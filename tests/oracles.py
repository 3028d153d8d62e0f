"""Independent brute-force oracles used only by the tests.

These recompute answers by definition-level enumeration or, for field
norms, by the determinant of the multiplication map.  They share no code
with the routines they check beyond the element arithmetic itself.
"""

import itertools

from wittram.coeff import FieldKind, ResidueElem
from wittram.errors import PrecisionExhausted
from wittram.extension import ExtensionElem


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


def determinant_norm(desc, elem):
    """Field norm as the determinant of multiplication by elem on the
    basis x1^i x2^j, independent of the library's conjugate product."""
    basis = desc.basis()
    index = {key: pos for pos, key in enumerate(basis)}
    n = len(basis)
    zero = desc.zero_scalar()
    cols = []
    for key in basis:
        prod = elem * ExtensionElem(desc, {key: desc.omega1.ring_one()})
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
