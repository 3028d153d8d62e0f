"""Independent brute-force oracles used only by the tests.

These recompute answers by definition-level enumeration or, for field
norms, by the determinant of the multiplication map.  They share no code
with the routines they check beyond the series arithmetic itself; the
Brauer invariant shares none of that either.
"""

import itertools
from fractions import Fraction

from wittram.coeff import FieldKind, ResidueElem
from wittram.errors import PrecisionExhausted
from wittram.extension import ExtensionElem, _second_relation_coeffs
from wittram.valued import LaurentElem


def _laurent_det(rows):
    """Determinant by elimination with minimal-valuation pivots.

    Raises PrecisionExhausted when some column carries no term that the
    working precision can see, since the determinant is then not
    separated from zero.
    """
    n = len(rows)
    rows = [list(r) for r in rows]
    sign = 1
    pivots = []
    for col in range(n):
        pivot_row = None
        pivot_val = None
        for r in range(col, n):
            entry = rows[r][col]
            if entry.is_apparent_zero:
                continue
            v = entry.val()
            if pivot_val is None or v < pivot_val:
                pivot_val = v
                pivot_row = r
        if pivot_row is None:
            raise PrecisionExhausted(
                "no usable pivot: determinant not separated from zero"
            )
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        inv = pivot.inverse()
        for r in range(col + 1, n):
            entry = rows[r][col]
            if entry.is_apparent_zero:
                continue
            factor = entry * inv
            rows[r] = [
                rows[r][k] - factor * rows[col][k] for k in range(n)
            ]
        pivots.append(pivot)
    det = pivots[0]
    for piv in pivots[1:]:
        det = det * piv
    return det.scale_int(sign)


def work_stack_mul(x, y):
    """x * y in the extension, with every pair product of coefficients
    sent through x2^p = x2 + R(x1) and x1^p = x1 + omega1 on its own,
    from a work stack: the reference for ExtensionElem.__mul__, which
    sums per exponent first."""
    x._check(y)
    desc = x.desc
    p = desc.p
    if desc.m == 2:
        relation = _second_relation_coeffs(p, *desc.omega.components)
    out = {}
    work = []
    for (i1, j1), a in x.coeffs.items():
        for (i2, j2), b in y.coeffs.items():
            work.append((i1 + i2, j1 + j2, a * b))
    while work:
        i, j, a = work.pop()
        if j >= p:
            # x2^p = x2 + R(x1)
            work.append((i, j - p + 1, a))
            for k, r in enumerate(relation):
                work.append((i + k, j - p, a * r))
            continue
        if i >= p:
            # x1^p = x1 + omega1
            work.append((i - p + 1, j, a))
            work.append((i - p, j, a * desc.omega1))
            continue
        key = (i, j)
        out[key] = out[key] + a if key in out else a
    return ExtensionElem(desc, out)


def determinant_norm(desc, elem):
    """Field norm as the determinant of multiplication by elem on the
    basis x1^i x2^j, independent of the library's conjugate product and
    of ExtensionElem.__mul__."""
    basis = desc.basis()
    index = {key: pos for pos, key in enumerate(basis)}
    n = len(basis)
    zero = desc.zero_scalar()
    cols = []
    for key in basis:
        unit = ExtensionElem(desc, {key: desc.omega1.ring_one()})
        prod = work_stack_mul(elem, unit)
        col = [zero] * n
        for k, a in prod.coeffs.items():
            col[index[k]] = a
        cols.append(col)
    rows = [[cols[c][r] for c in range(n)] for r in range(n)]
    return _laurent_det(rows)


def ring_one_power(x, e):
    """x^e by square-and-multiply with the product started at
    x.ring_one(), after inverting x for e < 0: the reference for the
    values, precision and errors of LaurentElem.__pow__."""
    if e < 0:
        return ring_one_power(x.inverse(), -e)
    out = x.ring_one()
    while e:
        if e & 1:
            out = out * x
        if e > 1:
            x = x * x
        e >>= 1
    return out


# Series arithmetic one ResidueElem coefficient at a time, every result
# built through the LaurentElem constructor, which checks each
# coefficient's spec and drops zeros and terms at or past the precision:
# the reference for the values, precision, term order and errors of the
# integer kernel LaurentElem uses over F_p.

def series_add(a, b):
    a._check(b)
    precision = min(a.precision, b.precision)
    terms = dict(a.terms)
    for e, c in b.terms.items():
        cur = terms.get(e)
        terms[e] = c if cur is None else cur + c
    return LaurentElem(a.spec, terms, precision)


def series_neg(a):
    return LaurentElem(a.spec, {e: -c for e, c in a.terms.items()}, a.precision)


def series_sub(a, b):
    return series_add(a, series_neg(b))


def series_mul(a, b):
    a._check(b)
    va = a.val_lower_bound()
    vb = b.val_lower_bound()
    precision = min(va + b.precision, vb + a.precision)
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = ea + eb
            if e >= precision:
                continue
            prod = ca * cb
            cur = terms.get(e)
            terms[e] = prod if cur is None else cur + prod
    return LaurentElem(a.spec, terms, precision)


def series_scale_int(a, c):
    return LaurentElem(
        a.spec, {e: x.scale_int(c) for e, x in a.terms.items()}, a.precision
    )


def series_inverse(a):
    if not a.terms:
        raise PrecisionExhausted("cannot invert an apparent zero")
    v = a.val()
    rel = a.precision - v
    lead_inv = a.terms[v].inverse()
    if len(a.terms) == 1:
        return LaurentElem(a.spec, {-v: lead_inv}, a.precision - 2 * v)
    q = [lead_inv]
    offsets = sorted(e - v for e in a.terms)
    for k in range(1, rel):
        acc = None
        for off in offsets:
            if off == 0 or off > k:
                continue
            contrib = a.terms[v + off] * q[k - off]
            acc = contrib if acc is None else acc + contrib
        q.append(a.spec.zero() if acc is None else -(lead_inv * acc))
    terms = {-v + k: c for k, c in enumerate(q)}
    return LaurentElem(a.spec, terms, a.precision - 2 * v)


def series_pth_power(a):
    p = a.spec.p
    if a.spec.kind is FieldKind.PRIME:
        terms = {e * p: c for e, c in a.terms.items()}
    else:
        terms = {e * p: c ** p for e, c in a.terms.items()}
    return LaurentElem(a.spec, terms, a.precision * p)


def _residue_candidates(spec, max_deg):
    """Every residue element with polynomial numerator of degree <= max_deg."""
    p = spec.p
    if spec.kind is FieldKind.PRIME:
        for n in range(p):
            yield ResidueElem(spec, (n,), (1,))
        return
    for coeffs in itertools.product(range(p), repeat=max_deg + 1):
        yield ResidueElem(spec, coeffs, (1,))


def brute_as_witness(target, max_deg=3):
    """Search a with a^p - a = target by enumeration; None if no witness
    exists among polynomial candidates of degree <= max_deg."""
    spec = target.spec
    for a in _residue_candidates(spec, max_deg):
        if a ** spec.p - a == target:
            return a
    return None


def brute_pth_root(target, max_deg=3):
    """Search a with a^p = target by enumeration."""
    spec = target.spec
    for a in _residue_candidates(spec, max_deg):
        if a ** spec.p == target:
            return a
    return None


# The Hasse invariant of a symbol [omega, b) over F_p, on integer lifts
# mod p^m: it shares no code with witt, brauer or valued's products.
# Br(F_p((t)))[p^m] is Z/p^m.  With omega~_i and b~ the series whose
# coefficients are the integers in [0, p) that name omega_i's and b's,
#   w   = sum_i p^i * omega~_i^(p^(m-1-i))   (the last ghost component)
#   inv = Res(w * db~/b~) mod p^m,
# Schmid's residue formula at m = 1 and Witt's for every m (both in
# J. reine angew. Math. 176).  Another lift changes omega~_i by p*d, and
# (a + p*d)^(p^k) = a^(p^k) mod p^(k+1); it changes b~ by an exact
# differential's worth, whose residue is 0.  The invariant is returned
# as inv / p^m in Q/Z, so symbols of different lengths compare.

def _zmul(a, b, modulus, top):
    """The product of two {exponent: int} series mod modulus, kept
    through t^top."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb <= top:
                out[ea + eb] = (out.get(ea + eb, 0) + ca * cb) % modulus
    return out


def _zpow(a, k, modulus, top):
    """a^k mod modulus through t^top, for a with terms: the factors still
    to come lower an exponent by at most v each."""
    v = min(a)
    out = {0: 1}
    for j in range(k):
        out = _zmul(out, a, modulus, top - (k - 1 - j) * v)
    return out


def _integers(x):
    return {e: c.num[0] for e, c in x.terms.items()}


def brauer_invariant(sym):
    """inv([omega, b)) over F_p, as a Fraction in [0, 1) with denominator
    dividing p^m; None where the windows leave it undecided.

    The ghost term of omega_i is known through t^0 when its precision
    N_i >= 1 + (p^(m-1-i) - 1) * max(0, -v_i), v_i its valuation lower
    bound; then w is known through t^0, and db/b has valuation >= -1.
    b's unknown terms change db/b from t^(R-1) on, R = N_b - v(b), so
    they miss the residue when R >= 1 - min(0, min_i p^(m-1-i) * v_i)
    over the components with terms, which bounds w's valuation.
    """
    p, m, b = sym.p, sym.m, sym.b
    modulus = p ** m
    low = 0
    for i, x in enumerate(sym.omega.components):
        k, v = p ** (m - 1 - i), x.val_lower_bound()
        if x.precision < 1 + (k - 1) * max(0, -v):
            return None
        if x.terms:
            low = min(low, k * v)
    vb = min(b.terms)
    if b.precision - vb < 1 - low:
        return None
    w = {}
    for i, x in enumerate(sym.omega.components):
        if x.terms:
            power = _zpow(_integers(x), p ** (m - 1 - i), modulus, 0)
            for e, c in power.items():
                w[e] = (w.get(e, 0) + p ** i * c) % modulus
    w = {e: c for e, c in w.items() if c}
    if not w:
        return Fraction(0)
    # db~/b~ = (sum_e e*b_e*t^(e-vb-1)) * unit^-1, b~ = t^vb * unit, is
    # needed through t^top; its first factor starts at t^-1
    top = -1 - min(w)
    unit = [0] * (top + 2)
    for e, c in _integers(b).items():
        if e - vb < top + 2:
            unit[e - vb] = c
    inverse = [pow(unit[0], -1, modulus)]
    for k in range(1, top + 2):
        acc = sum(unit[j] * inverse[k - j] for j in range(1, k + 1))
        inverse.append(-inverse[0] * acc % modulus)
    dlog = _zmul(
        {e - vb - 1: e * c for e, c in _integers(b).items()},
        dict(enumerate(inverse)), modulus, top,
    )
    res = sum(c * dlog.get(-1 - e, 0) for e, c in w.items())
    return Fraction(res % modulus, modulus)
