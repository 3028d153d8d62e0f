"""Independent brute-force oracles used only by the tests.

These recompute answers by definition-level enumeration or, for field
norms, by the determinant of the multiplication map.  They share no code
with the routines they check beyond the series arithmetic itself.
"""

import itertools

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
