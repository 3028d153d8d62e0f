"""Truncated Witt vector calculus.

The universal layer works over Z: ghost polynomials w_n, the addition
law S_n, and the negation law N_n are exact integer polynomials obtained
by the standard recursion with exact division by p^n.  The vector layer
evaluates those polynomials on components drawn from any coefficient
ring here (residue elements or Laurent series); each law's integer
coefficients are reduced mod p once, when the law is first used.

On series over F_p or F_p(u) the group law takes two passes per
component.  One takes the precision from one closed form per monomial:
the sum of its factors' e*v plus the least relative precision r of
their arguments.  The other multiplies out on {exponent: coefficient}
dicts only the monomials that can have terms, those nonzero mod p with
no apparent-zero argument, and builds only the powers they use.  Over
F_p each monomial's last product is added straight into the component's
sum, and the sum is reduced mod p once per exponent.  Residue components
and mixed operands go to IntPoly.evaluate; see _eval_law.

Generation is capped at m <= 4 and p <= 5: beyond that the universal
polynomials outgrow the desk scale this package targets.
"""

import functools
import math

from .coeff import FieldKind
from .errors import (
    InternalInexactDivision,
    LimitExceeded,
    ShapeMismatch,
    SpecMismatch,
)
from .valued import (
    LaurentElem,
    binary_power,
    frobenius_power,
    mul_ints,
    mul_terms,
    power_precision,
    pth_power,
)

_MAX_M = 4
_MAX_P = 5


class IntPoly:
    """A sparse multivariate polynomial over Z.

    Monomials are exponent tuples of fixed length nvars; zero
    coefficients are never stored.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        clean = {}
        for mono, c in terms.items():
            if c == 0:
                continue
            if len(mono) != nvars:
                raise ShapeMismatch("monomial length differs from nvars")
            clean[tuple(mono)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, {tuple(mono): 1})

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return IntPoly(self.nvars, terms)

    def __neg__(self):
        return IntPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple([x + y for x, y in zip(ma, mb)])
                terms[mono] = terms.get(mono, 0) + ca * cb
        return IntPoly(self.nvars, terms)

    def __pow__(self, e):
        return binary_power(self, e, self.ring_one())

    def scale_int(self, c):
        return IntPoly(self.nvars, {m: c * x for m, x in self.terms.items()})

    def ring_one(self):
        return IntPoly.constant(self.nvars, 1)

    def exact_div_int(self, k):
        terms = {}
        for mono, c in self.terms.items():
            q, r = divmod(c, k)
            if r:
                raise InternalInexactDivision(
                    f"coefficient {c} not divisible by {k}"
                )
            terms[mono] = q
        return IntPoly(self.nvars, terms)

    def map_vars(self, mapping, new_nvars):
        """Re-index variables: variable i becomes variable mapping[i]."""
        terms = {}
        for mono, c in self.terms.items():
            out = [0] * new_nvars
            for i, e in enumerate(mono):
                if e:
                    out[mapping[i]] += e
            key = tuple(out)
            terms[key] = terms.get(key, 0) + c
        return IntPoly(new_nvars, terms)

    def evaluate(self, args):
        """Evaluate on ring elements supporting +, **, scale_int, ring_one:
        the reference for oracle ghost-check and the tests, and the group
        law on operands off _eval_law's series path."""
        if len(args) != self.nvars:
            raise ShapeMismatch("argument count differs from nvars")
        acc = None
        for mono, c in self.terms.items():
            term = None
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                factor = args[i] ** e
                term = factor if term is None else term * factor
            if term is None:
                term = args[0].ring_one()
            term = term.scale_int(c)
            acc = term if acc is None else acc + term
        if acc is None:
            return args[0].scale_int(0)
        return acc

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "IntPoly(0)"
        bits = []
        for mono, c in sorted(self.terms.items()):
            factors = []
            if c != 1 or not any(mono):
                factors.append(str(c))
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                factors.append(f"v{i}" + (f"^{e}" if e > 1 else ""))
            bits.append("*".join(factors))
        return "IntPoly(" + " + ".join(bits) + ")"


def _check_caps(p, m):
    if m < 1 or m > _MAX_M:
        raise LimitExceeded(f"vector length {m} outside 1..{_MAX_M}")
    if p > _MAX_P:
        raise LimitExceeded(f"universal polynomials capped at p <= {_MAX_P}")
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise LimitExceeded(f"p must be prime, got {p}")


@functools.lru_cache(maxsize=None)
def ghost_polys(p, m):
    """Ghost components w_n = sum_{i<=n} p^i X_i^(p^(n-i)) for n < m."""
    _check_caps(p, m)
    out = []
    for n in range(m):
        poly = IntPoly(m, {})
        for i in range(n + 1):
            mono = [0] * m
            mono[i] = p ** (n - i)
            poly = poly + IntPoly(m, {tuple(mono): p ** i})
        out.append(poly)
    return tuple(out)


def _solve_ghost(p, rhs):
    """The S_0..S_{m-1} with w_n(S) = rhs[n] for every n < m, solved
    recursively with the division by p^n checked exact."""
    out = []
    for n, r in enumerate(rhs):
        for i in range(n):
            r = r - (out[i] ** (p ** (n - i))).scale_int(p ** i)
        out.append(r.exact_div_int(p ** n))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def sum_polys(p, m):
    """Addition law S_0..S_{m-1} in Z[X_0..X_{m-1}, Y_0..Y_{m-1}],
    defined by w_n(S) = w_n(X) + w_n(Y)."""
    _check_caps(p, m)
    nv = 2 * m
    ghosts = ghost_polys(p, m)
    return _solve_ghost(p, [
        g.map_vars(list(range(m)), nv) + g.map_vars(list(range(m, nv)), nv)
        for g in ghosts
    ])


@functools.lru_cache(maxsize=None)
def neg_polys(p, m):
    """Negation law N_0..N_{m-1}, defined by w_n(N) = -w_n(X)."""
    _check_caps(p, m)
    return _solve_ghost(p, [-g for g in ghost_polys(p, m)])


class WittVector:
    """A length-m vector of ring components with the Witt group law."""

    __slots__ = ("p", "m", "components")

    def __init__(self, p, m, components):
        components = tuple(components)
        if len(components) != m:
            raise ShapeMismatch(f"expected {m} components, got {len(components)}")
        _check_caps(p, m)
        first = components[0]
        for c in components[1:]:
            if type(c) is not type(first):
                raise ShapeMismatch("mixed component kinds")
            if c.spec is not first.spec:
                raise SpecMismatch("mixed component specs")
        if first.spec.p != p:
            raise SpecMismatch(
                f"component characteristic {first.spec.p} differs from p={p}"
            )
        _set_p(self, p)
        _set_m(self, m)
        _set_components(self, components)

    def __setattr__(self, name, value):
        raise AttributeError("WittVector is immutable")

    def _check(self, other):
        if not isinstance(other, WittVector):
            raise TypeError("expected a WittVector")
        if other.p != self.p or other.m != self.m:
            raise ShapeMismatch("vector shapes differ")

    def __add__(self, other):
        return witt_add(self, other)

    def __neg__(self):
        return witt_neg(self)

    def __sub__(self, other):
        return witt_sub(self, other)

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        if self.p != other.p or self.m != other.m:
            return False
        return all(a == b for a, b in zip(self.components, other.components))

    __hash__ = None

    def __str__(self):
        from .grammar import render_witt

        return render_witt(self)

    def __repr__(self):
        return f"WittVector({self!s})"


# Set past the immutability guard through the slots' member descriptors,
# as in coeff.
_set_p = WittVector.p.__set__
_set_m = WittVector.m.__set__
_set_components = WittVector.components.__set__


class _LawModP:
    """A law's Z-polynomials, kept as polys for IntPoly.evaluate off the
    series path, with each monomial also kept as (factors, c, mask):
    factors lists its (variable, exponent) pairs with exponent > 0 in
    variable order, c is its coefficient reduced mod p, mask has bit i
    set for each variable i in factors, and the monomials keep the
    Z-polynomials' order.  A law vanishes at zero, so no monomial is
    constant."""

    __slots__ = ("polys", "monomials", "_needs")

    def __init__(self, polys, p):
        self.polys = polys
        self.monomials = tuple([
            tuple([
                (tuple([(i, e) for i, e in enumerate(mono) if e]), c % p,
                 sum([1 << i for i, e in enumerate(mono) if e]))
                for mono, c in poly.terms.items()
            ])
            for poly in polys
        ])
        self._needs = {}

    def needs(self, live):
        """Each variable's largest exponent in the monomials with c != 0
        and every variable in the mask live, worked out once per mask."""
        tops = self._needs.get(live)
        if tops is None:
            tops = [0] * self.polys[0].nvars
            for monomials in self.monomials:
                for factors, c, mask in monomials:
                    if c and not mask & ~live:
                        for i, e in factors:
                            tops[i] = max(tops[i], e)
            tops = self._needs[live] = tuple(tops)
        return tops


@functools.lru_cache(maxsize=None)
def _sum_law(p, m):
    return _LawModP(sum_polys(p, m), p)


@functools.lru_cache(maxsize=None)
def _neg_law(p, m):
    return _LawModP(neg_polys(p, m), p)


def _power_table(x, top, r):
    """[x ** 1, ..., x ** top] for top >= 1, with r = power_precision(v,
    n, 1) - v: row e is x ** e in terms and precision, cut to e*v + r.
    x ** 1 is x cut to v + r, and valued's product rule carries
    x ** (e - 1) * x ** 1 there.  Where p divides e, the Frobenius of
    x ** (e / p), cut, is cheaper: over F_p(u) it spreads coefficients,
    a product multiplies polynomials.  Row e has valuation bound e*v:
    over a field the leading term's e-th power is nonzero, and an
    apparent zero's row is the apparent zero at e*n.  Only series on
    _eval_law's path come here; off-path operands go to IntPoly.evaluate,
    whose ** computes each power itself."""
    p = x.spec.p
    v = x.val_lower_bound()
    x = x.truncated(v + r)
    row = [x]
    for e in range(2, top + 1):
        if e % p:
            row.append(row[-1] * x)
        else:
            row.append(pth_power(row[e // p - 1]).truncated(e * v + r))
    return row


def _eval_law(law, args):
    """The law's components at args, equal term for term and in precision
    to IntPoly.evaluate on each of its Z-polynomials.

    Series over one residue field, F_p or F_p(u), take two passes per
    component, held as {exponent: coefficient} dicts: ints over F_p,
    ResidueElems over F_p(u).  The first takes the least precision over
    every monomial, including those that vanish mod p or have an
    apparent-zero factor, whose product would still have cut the
    precision of the sum.  Argument i, with valuation bound v_i, has
    x_i ** e known to e*v_i + r_i for every e >= 1, r_i being
    power_precision(v_i, n_i, 1) - v_i, so valued's product rule gives
    a monomial its weight, the sum of its e*v_i, plus the least r_i of
    its factors.  Each weight is worked out once per call.  The second
    multiplies out the monomials with c != 0 and no apparent-zero
    factor, the only ones with terms (valued.mul_ints or
    valued.mul_terms), into one dict wrapped as one series.  Over F_p
    the dict holds unreduced ints: a monomial's last product is added
    into it, times c, by mul_ints, a one-factor monomial adds c times
    its power-table row, and _from_ints reduces each exponent's sum mod
    p once.  _power_table builds each argument's powers only as far as
    law.needs says those monomials use them.

    Residue components and operands of mixed kinds or specs go to
    IntPoly.evaluate on each Z-polynomial.
    """
    spec = args[0].spec
    if not all(isinstance(x, LaurentElem) and x.spec is spec for x in args):
        return [poly.evaluate(args) for poly in law.polys]
    prime = spec.kind is FieldKind.PRIME
    live = sum([1 << i for i, x in enumerate(args) if x.terms])
    vals = [x.val_lower_bound() for x in args]
    rels = [power_precision(v, x.precision, 1) - v for v, x in zip(vals, args)]
    # per variable, the terms of x ** 1, x ** 2, ... as far as needed,
    # as ints over F_p
    powers = [
        [{e: c.num[0] for e, c in y.terms.items()} if prime else y.terms
         for y in _power_table(x, top, r)] if top else []
        for x, top, r in zip(args, law.needs(live), rels)
    ]
    out = []
    for monomials in law.monomials:
        weights = [
            sum([e * vals[i] for i, e in factors]) for factors, _, _ in monomials
        ]
        # precision: over every monomial, those without terms included
        cut = min([
            w + min([rels[i] for i, _ in factors])
            for w, (factors, _, _) in zip(weights, monomials)
        ])
        # values: a partial product is kept only below cut minus the
        # weights of the factors still to come, which is never above the
        # precision the product itself has; over F_p the last product
        # goes straight into acc, unreduced
        acc = {}
        for rest, (factors, c, mask) in zip(weights, monomials):
            if c == 0 or mask & ~live:
                continue
            prod = None
            for i, e in factors[:-1]:
                rest -= e * vals[i]
                row = powers[i][e - 1]
                prod = (row if prod is None
                        else mul_ints(prod, row, cut - rest, {}, 1) if prime
                        else mul_terms(prod, row, cut - rest))
            i, e = factors[-1]
            row = powers[i][e - 1]
            if prod is not None:
                if prime:
                    mul_ints(prod, row, cut, acc, c)
                    continue
                row = mul_terms(prod, row, cut)
            for e, x in row.items():
                if prime:
                    acc[e] = acc.get(e, 0) + c * x
                else:
                    x = x if c == 1 else x.scale_int(c)
                    cur = acc.get(e)
                    acc[e] = x if cur is None else cur + x
        if prime:
            out.append(LaurentElem._from_ints(spec, acc, cut))
        else:
            out.append(LaurentElem._trusted(spec, {
                e: x for e, x in acc.items() if e < cut and x.num
            }, cut))
    return out


def witt_add(a, b):
    """Componentwise evaluation of the universal addition law."""
    a._check(b)
    law = _sum_law(a.p, a.m)
    return WittVector(a.p, a.m, _eval_law(law, a.components + b.components))


def witt_neg(a):
    return WittVector(a.p, a.m, _eval_law(_neg_law(a.p, a.m), a.components))


def witt_sub(a, b):
    return witt_add(a, witt_neg(b))


def _component_frobenius(c, r):
    # Laurent components grow precision under the Frobenius; residue
    # components are plain powers.
    if isinstance(c, LaurentElem):
        return frobenius_power(c, r)
    return c ** (c.spec.p ** r)


def frobenius_twist(a, r):
    """Componentwise p^r-th powers (the Frobenius acting on the vector)."""
    if r < 0:
        raise LimitExceeded("negative Frobenius power")
    return WittVector(a.p, a.m, [_component_frobenius(c, r) for c in a.components])


def shift_in(a):
    """Prepend a zero component (the additive transfer to length m+1)."""
    zero = a.components[0].scale_int(0)
    return WittVector(a.p, a.m + 1, (zero,) + a.components)


def artin_schreier_map(a):
    """F(a) - a, the additive map whose cokernel indexes the extensions."""
    return witt_sub(frobenius_twist(a, 1), a)


def _cross_coeff(p, i):
    """(p-1)! / (i! (p-i)!) as a plain integer (it divides exactly)."""
    return math.factorial(p - 1) // (math.factorial(i) * math.factorial(p - i))


def lemma54_closed_form(p, c, omega2, b):
    """The length-2 sum (c^p, omega2) + (b, 0) written in closed form.

    Returns (c^p + b, omega2 - sum_i ((p-1)!/(i!(p-i)!)) c^(p*i) b^(p-i)),
    which must agree with the universal addition law; the suite checks
    that identity on random inputs.
    """
    cp = frobenius_power(c, 1)
    first = cp + b
    second = omega2
    for i in range(1, p):
        term = (cp ** i) * (b ** (p - i))
        second = second - term.scale_int(_cross_coeff(p, i))
    return WittVector(p, 2, (first, second))
