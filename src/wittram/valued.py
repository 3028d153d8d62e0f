"""The complete discrete valued field K = k((t)) with precision tracking.

Elements are finite sums of terms c*t^e known modulo t^N; the integer N
is the absolute precision.  Nothing is ever guessed about coefficients
at or beyond t^N: operations that would need them raise
PrecisionExhausted instead.

Precision propagation rules (tested exactly in the suite):

* add/sub:    min(Na, Nb)
* mul:        min(va + Nb, vb + Na), reading va = Na for apparent zeros
* inverse:    Na - 2*val(a)
* p-th power: p * Na
* p-th root:  ceil(Na / p)
* a ** e, e != 0: power_precision(va, Na, e), what square-and-multiply
  started at ring_one() (known to max(Na, 64)) reports, after inverting
  a for e < 0.  This can be less than a^e determines.  For e >= 1 it is
  e*va plus a relative precision r independent of e, and by the mul rule
  factors known to V_j + r_j have a product known to sum V_j + min r_j.

No exponent is out of range: arithmetic never raises LimitExceeded.
The command line bounds the exponents of the literals it reads.

Equality means "indistinguishable at the shared precision": all
coefficients below min(Na, Nb) agree.  Laurent elements are therefore
not hashable.

Sums, negatives, integer scalings and products have one body each,
written on {exponent: coefficient} dicts through the field's series
form (series_form): over F_p the coefficients are the ints c.num[0],
added and multiplied unreduced and reduced mod p once per exponent when
the dict is wrapped as a series; over F_p(u) they are ResidueElems, and
wrapping drops the zeros.  The Witt group law works through the same
form.  Inverses and p-th powers keep an F_p branch on ints.  The
precision rules above are the same for both fields.
"""

import collections
import math
from fractions import Fraction

from . import coeff as _coeff
from .errors import PrecisionExhausted, SpecMismatch, UnsupportedInput

DEFAULT_PRECISION = 64

_PRIME = _coeff.FieldKind.PRIME


class LaurentElem:
    """A Laurent series over the residue field, known modulo t^precision."""

    __slots__ = ("spec", "terms", "precision")

    def __init__(self, spec, terms, precision=DEFAULT_PRECISION):
        clean = {}
        for e, c in terms.items():
            if c.spec is not spec:
                raise SpecMismatch("coefficient spec differs from series spec")
            if c.is_zero or e >= precision:
                continue
            clean[e] = c
        _set_spec(self, spec)
        _set_terms(self, clean)
        _set_precision(self, precision)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentElem is immutable")

    @classmethod
    def _trusted(cls, spec, terms, precision):
        # The caller guarantees what __init__ checks per term: every
        # coefficient nonzero and of a spec equal to spec, and every
        # exponent below precision.
        obj = _new(cls)
        _set_spec(obj, spec)
        _set_terms(obj, terms)
        _set_precision(obj, precision)
        return obj

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, spec, precision=DEFAULT_PRECISION):
        return cls(spec, {}, precision)

    @classmethod
    def one(cls, spec, precision=DEFAULT_PRECISION):
        return cls(spec, {0: spec.one()}, precision)

    @classmethod
    def from_residue(cls, c, precision=DEFAULT_PRECISION):
        return cls(c.spec, {0: c}, precision)

    @classmethod
    def from_int(cls, spec, c, precision=DEFAULT_PRECISION):
        return cls(spec, {0: spec.from_int(c)}, precision)

    @classmethod
    def t_power(cls, spec, e, precision=DEFAULT_PRECISION):
        return cls(spec, {e: spec.one()}, precision)

    # -- views ---------------------------------------------------------------

    @property
    def is_apparent_zero(self):
        return not self.terms

    def val(self):
        """The valuation.  Raises PrecisionExhausted on apparent zeros."""
        if not self.terms:
            raise PrecisionExhausted(
                f"no terms visible below t^{self.precision}; valuation unknown"
            )
        return min(self.terms)

    def val_lower_bound(self):
        """A sound lower bound for the valuation (precision on apparent zeros)."""
        return min(self.terms) if self.terms else self.precision

    def leading_coeff(self):
        return self.terms[self.val()]

    def residue_at(self, e):
        return self.terms.get(e, self.spec.zero())

    def truncated(self, precision):
        """A view of the same value at lower (never higher) precision."""
        if precision > self.precision:
            raise UnsupportedInput("cannot raise precision after the fact")
        if precision == self.precision:
            return self
        return LaurentElem._trusted(
            self.spec,
            {e: c for e, c in self.terms.items() if e < precision},
            precision,
        )

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LaurentElem):
            raise TypeError(f"cannot combine LaurentElem with {type(other).__name__}")
        if other.spec is not self.spec:
            raise SpecMismatch(f"{self.spec!r} vs {other.spec!r}")

    def __add__(self, other):
        self._check(other)
        form = series_form(self.spec)
        out = form.add_into(dict(form.unwrap(self)), form.unwrap(other), 1)
        return form.wrap(self.spec, out, min(self.precision, other.precision))

    def __neg__(self):
        form = series_form(self.spec)
        return form.wrap(
            self.spec, form.add_into({}, form.unwrap(self), -1), self.precision
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        va = self.val_lower_bound()
        vb = other.val_lower_bound()
        precision = min(va + other.precision, vb + self.precision)
        form = series_form(self.spec)
        out = form.mul_into(form.unwrap(self), form.unwrap(other), precision, {}, 1)
        return form.wrap(self.spec, out, precision)

    def scale(self, c):
        """Multiply by a residue-field scalar (exact, keeps precision)."""
        return LaurentElem(
            self.spec, {e: x * c for e, x in self.terms.items()}, self.precision
        )

    def scale_int(self, c):
        """Multiply by an integer scalar (reduced mod p), keeping the
        precision.  c = 1 mod p gives self and c = 0 mod p the apparent
        zero, which is what the loops below build for them."""
        spec = self.spec
        r = c % spec.p
        if r == 1:
            return self
        if r == 0:
            return LaurentElem._trusted(spec, {}, self.precision)
        form = series_form(spec)
        return form.wrap(spec, form.add_into({}, form.unwrap(self), c), self.precision)

    def ring_one(self):
        return LaurentElem.one(self.spec, max(self.precision, DEFAULT_PRECISION))

    def inverse(self):
        """Series inverse; precision reflects to Na - 2*val(a)."""
        if not self.terms:
            raise PrecisionExhausted("cannot invert an apparent zero")
        v = self.val()
        rel = self.precision - v
        # unit-part coefficients a_0, a_1, ... relative to t^v
        lead_inv = self.terms[v].inverse()
        if len(self.terms) == 1:
            return LaurentElem(self.spec, {-v: lead_inv}, self.precision - 2 * v)
        if self.spec.kind is _PRIME:
            # the recursion below, on ints reduced mod p
            p = self.spec.p
            lead_inv = lead_inv.num[0]
            unit = {e - v: c.num[0] for e, c in self.terms.items()}
            offsets = sorted(unit)[1:]
            q = [lead_inv]
            for k in range(1, rel):
                acc = 0
                for off in offsets:
                    if off > k:
                        break
                    acc += unit[off] * q[k - off]
                q.append(-lead_inv * acc % p)
            return _wrap_ints(
                self.spec, {k - v: c for k, c in enumerate(q)}, self.precision - 2 * v
            )
        q = [lead_inv]
        offsets = sorted(e - v for e in self.terms)
        for k in range(1, rel):
            acc = None
            for off in offsets:
                if off == 0 or off > k:
                    continue
                contrib = self.terms[v + off] * q[k - off]
                acc = contrib if acc is None else acc + contrib
            q.append(self.spec.zero() if acc is None else -(lead_inv * acc))
        terms = {-v + k: c for k, c in enumerate(q)}
        return LaurentElem(self.spec, terms, self.precision - 2 * v)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e):
        if e == 0:
            return self.ring_one()
        v = self.val_lower_bound()
        target = power_precision(v, self.precision, e)
        if not self.terms:
            if e < 0:
                return self.inverse()
            return LaurentElem.zero(self.spec, target)
        if e > 0:
            return _base_p_power(self, e, target)
        # x^-e is known to (n - v) - e*v, so its inverse to n - v + e*v; it
        # is taken only as far as the inverse needs to reach target, and
        # one inverse of the sparse x^-e replaces the powers of the dense
        # x.inverse()
        return _base_p_power(self, -e, target - 2 * e * v).inverse()

    # -- comparison -------------------------------------------------------------

    def agrees_with(self, other):
        """True when both series match on all coefficients they both see.

        Zeros are never stored, so an exponent missing from one side
        differs from a term the other side has there.  A series agrees
        with itself, so that comparison reads no term.
        """
        if other is self:
            return True
        self._check(other)
        cut = min(self.precision, other.precision)
        mine, theirs = self.terms, other.terms
        for e, c in mine.items():
            if e < cut and theirs.get(e) != c:
                return False
        return all(e >= cut or e in mine for e in theirs)

    def __eq__(self, other):
        if not isinstance(other, LaurentElem):
            return NotImplemented
        return self.agrees_with(other)

    __hash__ = None

    def __str__(self):
        from .grammar import render_laurent

        return render_laurent(self)

    def __repr__(self):
        return f"LaurentElem({self!s})"


# Set past the immutability guard through the slots' member descriptors,
# as in coeff.
_new = object.__new__
_set_spec = LaurentElem.spec.__set__
_set_terms = LaurentElem.terms.__set__
_set_precision = LaurentElem.precision.__set__


def mul_ints(a, b, precision, out, c):
    """Add c times the product of two F_p series, given as {exponent: int}
    dicts, into the dict out below t^precision, and return out.  Nothing
    is reduced mod p and no zero is dropped: wrapping reduces once per
    exponent.  New exponents join out in the order the term products
    first reach them."""
    right = list(b.items())
    for ea, ca in a.items():
        ca *= c
        for eb, cb in right:
            e = ea + eb
            if e < precision:
                out[e] = out.get(e, 0) + ca * cb
    return out


def mul_terms(a, b, precision, out, c):
    """mul_ints for two F_p(u) series given as {exponent: ResidueElem}
    dicts: c times their product is added into out below t^precision,
    zero sums are kept, and out is returned."""
    right = list(b.items())
    for ea, ca in a.items():
        ca = ca if c == 1 else ca.scale_int(c)
        for eb, cb in right:
            e = ea + eb
            if e < precision:
                prod = ca * cb
                cur = out.get(e)
                out[e] = prod if cur is None else cur + prod
    return out


def _unwrap_ints(x):
    return {e: c.num[0] for e, c in x.terms.items()}


def _add_ints(out, x, c):
    for e, a in x.items():
        out[e] = out.get(e, 0) + c * a
    return out


def _wrap_ints(spec, ints, precision):
    p = spec.p
    table = spec._constants
    return LaurentElem._trusted(spec, {
        e: table[r] for e, c in ints.items() if e < precision and (r := c % p)
    }, precision)


def _unwrap_terms(x):
    return x.terms


def _add_terms(out, x, c):
    for e, a in x.items():
        a = a if c == 1 else a.scale_int(c)
        cur = out.get(e)
        out[e] = a if cur is None else cur + a
    return out


def _wrap_terms(spec, terms, precision):
    return LaurentElem._trusted(spec, {
        e: c for e, c in terms.items() if e < precision and c.num
    }, precision)


# unwrap(x): x's terms as an {exponent: coefficient} dict, to be read only;
# add_into(out, x, c): add c*x into the dict out, and return out;
# mul_into(a, b, precision, out, c): add c*a*b into out below t^precision;
# wrap(spec, out, precision): the series of out's nonzero terms below
# t^precision.  Sums in out are kept as they fall, zeros included.
_Form = collections.namedtuple("_Form", "unwrap add_into mul_into wrap")
_INTS = _Form(_unwrap_ints, _add_ints, mul_ints, _wrap_ints)
_TERMS = _Form(_unwrap_terms, _add_terms, mul_terms, _wrap_terms)


def series_form(spec):
    """The form of series arithmetic over spec's field on {exponent:
    coefficient} dicts: ints reduced mod p once, when wrapped, over F_p;
    ResidueElems over F_p(u)."""
    return _INTS if spec.kind is _PRIME else _TERMS


def power_precision(v, n, e):
    """The precision x ** e reports, for e != 0 and x with valuation bound
    v known to t^n: what square-and-multiply started at ring_one(), known
    to max(n, 64), reports, after inverting x for e < 0.  For an apparent
    zero (v = n) that is e*n; its negative powers raise instead."""
    if e < 0:
        return power_precision(-v, n - 2 * v, -e)
    return e * v + min(max(n, DEFAULT_PRECISION), n - v)


def binary_power(x, e, one):
    """x^e for e >= 0 by square-and-multiply, the product started at one:
    the power loop of integer polynomials and extension elements.  Started
    at one = c, it gives lemma 5.3's c^|i| = c * c^(|i|-1) by products."""
    out = one
    while e:
        if e & 1:
            out = out * x
        x = x * x if e > 1 else x
        e >>= 1
    return out


def _base_p_power(x, e, target):
    """x^e for x with terms and e >= 1, known modulo t^target.

    Horner form over the base-p digits d_k of e: x^(e // p^k) is
    F(x^(e // p^(k+1))) * x^(d_k), with F the Frobenius, so each digit
    costs one pth_power and at most one product.  With R = target - e*v,
    step k needs its factors only to relative precision ceil(R / p^k),
    and each is cut to that, so the result ends at target exactly.
    """
    p = x.spec.p
    v = min(x.terms)
    rel = target - e * v
    digits = []
    while e:
        e, d = divmod(e, p)
        digits.append(d)

    def need(k):
        return -(-rel // p ** k)

    # x^1 .. x^(max digit), at what the lowest nonzero digit's step needs
    low = next(k for k, d in enumerate(digits) if d)
    powers = [None, x.truncated(v + need(low))]
    for d in range(2, max(digits) + 1):
        powers.append(powers[d // 2] * powers[d - d // 2])
    out, ek = None, 0
    for k in reversed(range(len(digits))):
        r = need(k)
        if out is not None:
            out = pth_power(out).truncated(p * ek * v + r)
        d = digits[k]
        ek = ek * p + d
        if d:
            xd = powers[d].truncated(d * v + r)
            out = xd if out is None else out * xd
    return out


def pth_power(a):
    """The Frobenius: exponents and precision scale by p; coefficients^p.

    Over F_p every coefficient is its own p-th power.
    """
    p = a.spec.p
    if a.spec.kind is _PRIME:
        terms = {e * p: c for e, c in a.terms.items()}
    else:
        terms = {e * p: c ** p for e, c in a.terms.items()}
    return LaurentElem._trusted(a.spec, terms, a.precision * p)


def pth_root(a):
    """The unique p-th root if one exists, else None.

    Requires every visible exponent divisible by p and every coefficient
    to have a p-th root in the residue field.  Precision drops to
    ceil(Na / p): the root is only determined that far.
    """
    p = a.spec.p
    terms = {}
    for e, c in a.terms.items():
        if e % p:
            return None
        r = _coeff.pth_root(c)
        if r is None:
            return None
        terms[e // p] = r
    return LaurentElem(a.spec, terms, math.ceil(a.precision / p))


def frobenius_power(a, r):
    """a^(p^r) for r >= 0 via repeated Frobenius."""
    if r < 0:
        raise UnsupportedInput("negative Frobenius power")
    for _ in range(r):
        a = pth_power(a)
    return a


def ext_val(n, norm_value):
    """Valuation in a degree-n extension: val(norm)/n as an exact Fraction."""
    if n <= 0:
        raise UnsupportedInput("extension degree must be positive")
    return Fraction(norm_value.val(), n)
