"""Exact arithmetic in the residue field k.

Two kinds of field are supported: the prime field F_p and the rational
function field F_p(u).  Elements are immutable and canonical: fractions
are kept in lowest terms with a monic denominator, so equal values have
equal representations and can be hashed.
"""

import enum
import itertools

from .errors import (
    DivisionByZero,
    ResidueTooSmall,
    SpecMismatch,
    UnsupportedInput,
)


# ---------------------------------------------------------------------------
# Dense polynomials over F_p: tuples of ints in [0, p), lowest degree first,
# no trailing zeros.  The zero polynomial is the empty tuple.

def _ptrim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _pdeg(cs):
    return len(cs) - 1


def _padd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _ptrim(out)


def _pneg(a, p):
    return tuple([(-c) % p for c in a])


def _psub(a, b, p):
    return _padd(a, _pneg(b, p), p)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        # a nonzero constant times a trimmed polynomial stays trimmed
        c = a[0]
        return b if c == 1 else tuple([(c * x) % p for x in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _ptrim(out)


def _ppow(a, e, p):
    if e and e % p == 0:
        # a(u)^(p k) = a^k(u^p), as every coefficient lies in F_p
        low = _ppow(a, e // p, p)
        out = [0] * (p * len(low) - p + 1) if low else []
        out[::p] = low
        return tuple(out)
    out = (1,)
    base = a
    while e:
        if e & 1:
            out = _pmul(out, base, p)
        base = _pmul(base, base, p) if e > 1 else base
        e >>= 1
    return out


def _pdivmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return (), _ptrim(a)
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    q = [0] * (len(a) - db)
    for top in range(len(a) - 1, db - 1, -1):
        factor = (rem[top] * inv_lead) % p
        if factor == 0:
            continue
        q[top - db] = factor
        shift = top - db
        for i in range(db):
            rem[shift + i] = (rem[shift + i] - factor * b[i]) % p
        rem[top] = 0
    return _ptrim(q), _ptrim(rem)


def _pgcd(a, b, p):
    if len(a) == 1 or len(b) == 1:
        # a nonzero constant is a unit; a zero operand is not a constant
        return (1,)
    while b:
        _, r = _pdivmod(a, b, p)
        a, b = b, r
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = tuple([(c * inv_lead) % p for c in a])
    return a


def _pdiv_exact(a, b, p):
    q, _ = _pdivmod(a, b, p)
    return q


def _pmonomial(c, e):
    return _ptrim((0,) * e + (c,))


def _is_prime(n):
    if not isinstance(n, int) or n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldKind(enum.Enum):
    PRIME = "fp"
    RATIONAL = "fp-u"


# _SPECS[p, kind] is the one FieldSpec of its field, kept for the life of
# the process, so specs are compared by identity.
_SPECS = {}


class FieldSpec:
    """Identifies a residue field: the prime p and the field kind.

    FieldSpec(p, kind) returns the one spec of that field, built on first
    use together with its table of the constants 0, ..., p - 1.
    """

    __slots__ = ("p", "kind", "_constants")

    def __new__(cls, p, kind=FieldKind.PRIME):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        kind = FieldKind(kind)
        spec = _SPECS.get((p, kind))
        if spec is None:
            spec = _SPECS[p, kind] = object.__new__(cls)
            object.__setattr__(spec, "p", p)
            object.__setattr__(spec, "kind", kind)
            object.__setattr__(spec, "_constants", tuple([
                ResidueElem._raw(spec, (c,) if c else (), (1,)) for c in range(p)
            ]))
        return spec

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __hash__(self):
        return hash((self.p, self.kind))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, kind={self.kind.value!r})"

    # -- element factories --------------------------------------------------

    def zero(self):
        return self._constants[0]

    def one(self):
        return self._constants[1]

    def from_int(self, c):
        return self._constants[c % self.p]

    def u(self):
        if self.kind is not FieldKind.RATIONAL:
            raise UnsupportedInput("u exists only over the rational function field")
        return ResidueElem(self, (0, 1), (1,))

    def element(self, num, den=(1,)):
        """Build an element from coefficient tuples (lowest degree first)."""
        p = self.p
        return ResidueElem(
            self,
            _ptrim([c % p for c in num]),
            _ptrim([c % p for c in den]),
        )


class ResidueElem:
    """One value of the residue field, stored canonically."""

    __slots__ = ("spec", "num", "den")

    def __init__(self, spec, num, den):
        p = spec.p
        num = _ptrim(num)
        den = _ptrim(den)
        if not den:
            raise DivisionByZero("zero denominator")
        if spec.kind is FieldKind.PRIME and (_pdeg(num) > 0 or _pdeg(den) > 0):
            raise UnsupportedInput("prime-field values must be constants")
        if not num:
            den = (1,)
        elif len(den) == 1:
            if den != (1,):
                inv_lead = pow(den[0], p - 2, p)
                num = tuple([(c * inv_lead) % p for c in num])
                den = (1,)
        else:
            g = _pgcd(num, den, p)
            if _pdeg(g) > 0 or (g and g != (1,)):
                num, _ = _pdivmod(num, g, p)
                den, _ = _pdivmod(den, g, p)
            inv_lead = pow(den[-1], p - 2, p)
            if inv_lead != 1:
                num = tuple([(c * inv_lead) % p for c in num])
                den = tuple([(c * inv_lead) % p for c in den])
        _set_spec(self, spec)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("ResidueElem is immutable")

    @classmethod
    def _raw(cls, spec, num, den):
        # caller guarantees gcd(num, den) = 1 and den monic
        if not num:
            den = (1,)
        obj = _new(cls)
        _set_spec(obj, spec)
        _set_num(obj, num)
        _set_den(obj, den)
        return obj

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.num

    @property
    def is_polynomial(self):
        return self.den == (1,)

    def _check(self, other):
        if not isinstance(other, ResidueElem):
            raise TypeError(f"cannot combine ResidueElem with {type(other).__name__}")
        if other.spec is not self.spec:
            raise SpecMismatch(f"{self.spec!r} vs {other.spec!r}")

    # -- ring structure --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not ResidueElem or other.spec is not self.spec:
            self._check(other)
        p = self.spec.p
        na, da = self.num, self.den
        nb, db = other.num, other.den
        if da == (1,) and db == (1,):
            return ResidueElem._raw(self.spec, _padd(na, nb, p), (1,))
        g = _pgcd(da, db, p)
        if g == (1,):
            num = _padd(_pmul(na, db, p), _pmul(nb, da, p), p)
            return ResidueElem._raw(self.spec, num, _pmul(da, db, p))
        da_r = _pdiv_exact(da, g, p)
        db_r = _pdiv_exact(db, g, p)
        t = _padd(_pmul(na, db_r, p), _pmul(nb, da_r, p), p)
        g2 = _pgcd(t, g, p)
        if g2 == (1,):
            return ResidueElem._raw(self.spec, t, _pmul(da, db_r, p))
        return ResidueElem._raw(
            self.spec,
            _pdiv_exact(t, g2, p),
            _pmul(da_r, _pdiv_exact(db, g2, p), p),
        )

    def __neg__(self):
        return ResidueElem._raw(self.spec, _pneg(self.num, self.spec.p), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not ResidueElem or other.spec is not self.spec:
            self._check(other)
        p = self.spec.p
        na, da = self.num, self.den
        nb, db = other.num, other.den
        if not na or not nb:
            return ResidueElem._raw(self.spec, (), (1,))
        # elements are canonical, so a product with 1 is the other operand
        if na == (1,) and da == (1,):
            return other
        if nb == (1,) and db == (1,):
            return self
        if da == (1,) and db == (1,):
            return ResidueElem._raw(self.spec, _pmul(na, nb, p), (1,))
        g1 = _pgcd(na, db, p)
        if g1 != (1,):
            na = _pdiv_exact(na, g1, p)
            db = _pdiv_exact(db, g1, p)
        g2 = _pgcd(nb, da, p)
        if g2 != (1,):
            nb = _pdiv_exact(nb, g2, p)
            da = _pdiv_exact(da, g2, p)
        return ResidueElem._raw(
            self.spec, _pmul(na, nb, p), _pmul(da, db, p)
        )

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        p = self.spec.p
        lead = self.num[-1]
        if lead == 1:
            return ResidueElem._raw(self.spec, self.den, self.num)
        inv_lead = pow(lead, p - 2, p)
        return ResidueElem._raw(
            self.spec,
            tuple([(c * inv_lead) % p for c in self.den]),
            tuple([(c * inv_lead) % p for c in self.num]),
        )

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        p = self.spec.p
        return ResidueElem._raw(
            self.spec, _ppow(self.num, e, p), _ppow(self.den, e, p)
        )

    def scale_int(self, c):
        """Multiply by an integer scalar (reduced mod p)."""
        c %= self.spec.p
        if c == 0:
            return ResidueElem._raw(self.spec, (), (1,))
        return ResidueElem._raw(
            self.spec,
            tuple([(c * x) % self.spec.p for x in self.num]),
            self.den,
        )

    def ring_one(self):
        return self.spec.one()

    def __eq__(self, other):
        if not isinstance(other, ResidueElem):
            return NotImplemented
        return (
            self.spec is other.spec
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.spec, self.num, self.den))

    def __str__(self):
        from .grammar import render_residue

        return render_residue(self)

    def __repr__(self):
        return f"ResidueElem({self!s})"


# The slots' member descriptors set them past the immutability guard of
# __setattr__, in half the time object.__setattr__ takes by name.
_new = object.__new__
_set_spec = ResidueElem.spec.__set__
_set_num = ResidueElem.num.__set__
_set_den = ResidueElem.den.__set__


def _poly_pth_root(cs, p):
    """Root of a polynomial under the Frobenius, or None.

    Works because coefficients live in F_p where c^p = c: a root exists
    exactly when every exponent carrying a nonzero coefficient is a
    multiple of p.
    """
    if not cs:
        return ()
    out = [0] * (_pdeg(cs) // p + 1)
    for e, c in enumerate(cs):
        if c == 0:
            continue
        if e % p:
            return None
        out[e // p] = c
    return _ptrim(out)


def pth_root(a):
    """The unique p-th root of a residue element, or None if there is none."""
    if a.spec.kind is FieldKind.PRIME:
        return a
    p = a.spec.p
    rn = _poly_pth_root(a.num, p)
    rd = _poly_pth_root(a.den, p)
    if rn is None or rd is None:
        return None
    return ResidueElem(a.spec, rn, rd)


def _poly_nth_root(cs, n, p):
    """An n-th root of a polynomial for gcd(n, p) = 1, or None.

    Solved top-down: the leading coefficient of the root is an n-th root
    in F_p, and each lower coefficient is determined linearly because
    n is invertible mod p.
    """
    if not cs:
        return ()
    d = _pdeg(cs)
    if d % n:
        return None
    e = d // n
    lead_candidates = [r for r in range(1, p) if pow(r, n, p) == cs[-1]]
    for lead in lead_candidates:
        root = [0] * (e + 1)
        root[e] = lead
        denom_inv = pow((n * pow(lead, n - 1, p)) % p, p - 2, p)
        for j in range(e - 1, -1, -1):
            current = _ppow(_ptrim(root), n, p)
            idx = (n - 1) * e + j
            have = current[idx] if idx < len(current) else 0
            want = cs[idx] if idx < len(cs) else 0
            root[j] = ((want - have) * denom_inv) % p
        if _ppow(_ptrim(root), n, p) == cs:
            return _ptrim(root)
    return None


def nth_root(a, n):
    """An n-th root for gcd(n, p) = 1, or None.  Brute force over F_p."""
    p = a.spec.p
    if n % p == 0:
        raise UnsupportedInput("n must be coprime to p")
    if a.spec.kind is FieldKind.PRIME:
        val = a.num[0] if a.num else 0
        for c in range(p):
            if pow(c, n, p) == val:
                return a.spec.from_int(c)
        return None
    rn = _poly_nth_root(a.num, n, p)
    rd = _poly_nth_root(a.den, n, p)
    if rn is None or rd is None:
        return None
    return ResidueElem(a.spec, rn, rd)


def in_AS_image(a):
    """Witness g with g^p - g = a, or None if a is not of that form.

    Over F_p the image is {0}.  Over F_p(u) the input must be a
    polynomial; membership is decided by stripping the top term, which
    must sit in a degree divisible by p with a leading coefficient that
    has a p-th root.  Denominators never help: a reduced fraction with a
    nonconstant denominator cannot equal g^p - g for polynomial output.
    """
    spec = a.spec
    p = spec.p
    if spec.kind is FieldKind.PRIME:
        return spec.zero() if a.is_zero else None
    if not a.is_polynomial:
        raise UnsupportedInput("membership test requires a polynomial value")
    cur = a.num
    parts = ()
    while _pdeg(cur) > 0:
        d = _pdeg(cur)
        if d % p:
            return None
        # leading coefficient c in F_p is its own p-th root
        g_top = _pmonomial(cur[-1], d // p)
        parts = _padd(parts, g_top, p)
        cur = _psub(cur, _psub(_ppow(g_top, p, p), g_top, p), p)
    if cur:
        return None
    g = ResidueElem(spec, parts, (1,))
    if g ** p - g != a:
        raise AssertionError(f"witness {g} does not map to {a}")
    return g


def build_disjoint_classes(spec):
    """Two classes whose nontrivial F_p-combinations all avoid g^p - g.

    Returns (u, u^e) with e = 2 for odd p and e = 3 for p = 2: every
    nonzero combination has degree coprime to p, hence lies outside the
    image.  The exhaustive sweep below re-checks that claim.
    """
    if spec.kind is FieldKind.PRIME:
        raise ResidueTooSmall(
            "F_p has a one-dimensional quotient by {g^p - g}; two independent "
            "classes need the rational function field"
        )
    p = spec.p
    e = 3 if p == 2 else 2
    a1 = spec.u()
    a2 = spec.u() ** e
    for c1, c2 in itertools.product(range(p), repeat=2):
        if c1 == 0 and c2 == 0:
            continue
        combo = a1.scale_int(c1) + a2.scale_int(c2)
        if in_AS_image(combo) is not None:
            raise AssertionError(f"combination {c1},{c2} unexpectedly in image")
    return a1, a2
