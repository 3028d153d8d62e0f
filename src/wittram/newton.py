"""Independent cross-check for the degree-p classifier.

Decisions here are made from the Newton polygon of x^p - x - omega and
brute-force searches over the residue field: p-th roots are found by
enumerating coefficient tuples, and residue equations X^p - X = c are
solved by degree-bounded enumeration.  Nothing here calls the reduction
or root-finding routines used by the main classifier, so agreement
between the two paths is meaningful evidence.
"""

import itertools
from fractions import Fraction

from .coeff import FieldKind, ResidueElem
from .errors import PrecisionExhausted, ShapeMismatch
from .valued import LaurentElem

SPLIT = "split"
UNRAMIFIED = "unramified"
TOTALLY_RAMIFIED = "totally_ramified"
UNCLASSIFIED = "unclassified"


# Coefficient tuples over F_p, lowest degree first.  These are this
# module's own, so that a fault in coeff's polynomial arithmetic cannot
# hide behind the same fault here.

def _ptrim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _pdeg(cs):
    return len(cs) - 1


def _psub(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return _ptrim((x - y) % p for x, y in zip(a, b))


def _ppow(a, e, p):
    """a^e by e schoolbook products."""
    out = (1,)
    for _ in range(e):
        prod = [0] * (len(out) + len(a) - 1) if a else []
        for i, x in enumerate(out):
            for j, y in enumerate(a):
                prod[i + j] = (prod[i + j] + x * y) % p
        out = _ptrim(prod)
    return out


def lower_hull(points):
    """Lower convex hull of (x, y) points sorted by x, as a point list."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_slopes(p, v_omega):
    """Slopes (with x-run lengths) of the polygon of x^p - x - omega.

    The relevant points are (0, v(omega)), (1, 0), (p, 0).
    """
    points = [(0, Fraction(v_omega)), (1, Fraction(0)), (p, Fraction(0))]
    hull = lower_hull(points)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return tuple(out)


def _all_polys(p, deg):
    """All coefficient tuples over F_p of degree <= deg, trimmed."""
    for tail in itertools.product(range(p), repeat=deg + 1):
        yield _ptrim(tail)


def _brute_poly_pth_root(cs, p):
    """Find r with r^p == cs by enumeration, or None."""
    d = _pdeg(cs)
    if d < 0:
        return ()
    if d % p != 0:
        return None
    for cand in _all_polys(p, d // p):
        if _ptrim(_ppow(cand, p, p)) == _ptrim(cs):
            return cand
    return None


def _brute_pth_root(a):
    """p-th root of a residue element by enumeration, or None."""
    p = a.spec.p
    num = _brute_poly_pth_root(a.num, p)
    if num is None:
        return None
    den = _brute_poly_pth_root(a.den, p)
    if den is None:
        return None
    return ResidueElem(a.spec, num, den)


def _brute_as_witness(a):
    """Search g with g^p - g == a.  Returns (decidable, witness)."""
    p = a.spec.p
    if a.spec.kind is FieldKind.PRIME:
        for c in range(p):
            cand = a.spec.from_int(c)
            if cand ** p - cand == a:
                return True, cand
        return True, None
    if a.den != (1,):
        return False, None
    d = _pdeg(a.num)
    if d <= 0:
        bound = 0
    elif d % p != 0:
        return True, None
    else:
        bound = d // p
    for cand in _all_polys(p, bound):
        if _ptrim(_psub(_ppow(cand, p, p), cand, p)) == a.num:
            return True, ResidueElem(a.spec, cand, (1,))
    return True, None


def newton_classify_deg_p(omega):
    """Classify x^p - x = omega from the polygon plus brute-force residue
    work.  Returns one of the module's four outcome strings."""
    if not isinstance(omega, LaurentElem):
        raise ShapeMismatch("expected a Laurent series element")
    p = omega.spec.p
    current = omega
    while True:
        if current.is_apparent_zero:
            if current.precision <= 0:
                raise PrecisionExhausted("zero to an empty precision window")
            return SPLIT
        v = current.val()
        if v >= 0:
            break
        # largest polygon slope corresponds to the most negative root
        # valuation; for v < 0 the hull is the single chord of slope -v/p
        slopes = newton_slopes(p, v)
        steep = max(s for s, _ in slopes)
        if steep <= 0:
            break
        root_val = -steep
        if root_val.denominator == p:
            return TOTALLY_RAMIFIED
        # integer negative root valuation: try to push the pole up with
        # a brute-forced p-th root of the leading coefficient
        root = _brute_pth_root(current.leading_coeff())
        if root is None:
            return UNCLASSIFIED
        c = LaurentElem(
            current.spec, {v // p: root}, max(current.precision, v // p + 1)
        )
        current = current - (c ** p - c)
    const = current.residue_at(0)
    decidable, witness = _brute_as_witness(const)
    if not decidable:
        return UNCLASSIFIED
    if witness is not None:
        return SPLIT
    return UNRAMIFIED
