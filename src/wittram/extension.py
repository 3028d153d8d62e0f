"""Reduction and classification of degree-p and degree-p^2 equations.

Everything here works over K = k((t)).  An equation x^p - x = omega is
reduced by subtracting Artin-Schreier coboundaries g^p - g until the
right side is zero, a constant, or has negative valuation; the shape of
the reduced form decides how K(x)/K ramifies.  Vectors get the same
treatment one component at a time, with every step applied through the
Witt group law so the vector stays in the same class.
"""

import dataclasses
import enum
import math
from fractions import Fraction

from . import coeff
from .errors import (
    DegenerateExtension,
    HypothesisViolation,
    PrecisionExhausted,
    ShapeMismatch,
    SpecMismatch,
    UnsupportedCase,
    UnsupportedInput,
)
from .valued import LaurentElem, binary_power, frobenius_power
from .witt import WittVector, _cross_coeff, artin_schreier_map, witt_add, witt_sub


class Classification(enum.Enum):
    SPLIT = "split"
    UNRAMIFIED = "unramified"
    TOTALLY_RAMIFIED = "totally_ramified"
    UNCLASSIFIED = "unclassified"


@dataclasses.dataclass(frozen=True)
class ReducedForm:
    """Outcome of coboundary reduction of a single Laurent element.

    kind is one of "zero", "neg_coprime", "stalled", "constant";
    witness g satisfies original = element + (g^p - g) up to precision.
    """

    kind: str
    element: "LaurentElem"
    constant: object
    witness: "LaurentElem"
    steps: tuple


@dataclasses.dataclass(frozen=True)
class RamReport:
    classification: Classification
    trace: tuple
    evidence: dict
    reduced: object
    source: str


def _strip_witness(omega):
    """Witness c for one leading-term strip of omega, whose valuation v
    is negative and divisible by p, or None when the leading coefficient
    has no p-th root r.  Then c = r * t^(v/p) and omega - (c^p - c) has
    strictly larger valuation.
    """
    r = coeff.pth_root(omega.leading_coeff())
    if r is None:
        return None
    v = omega.val()
    prec = max(omega.precision, v // omega.spec.p + 1)
    return LaurentElem(omega.spec, {v // omega.spec.p: r}, prec)


def _tail_witness(omega):
    """Witness g with g^p - g = tail(omega) for the positive-val tail.

    g = -(tau + tau^p + tau^(p^2) + ...), truncated once the power's
    valuation clears the working precision.
    """
    tail_terms = {e: c for e, c in omega.terms.items() if e >= 1}
    tau = LaurentElem(omega.spec, tail_terms, omega.precision)
    if tau.is_apparent_zero:
        return None
    g = tau
    power = tau
    while power.val_lower_bound() * omega.spec.p < omega.precision:
        power = frobenius_power(power, 1)
        if power.is_apparent_zero:
            break
        g = g + power
    return -g


def _coboundary(g):
    return frobenius_power(g, 1) - g


def _next_move(comp):
    """The next coboundary reduction move on one component, as (move, datum).

    The reduction ends on "zero", "opaque" (zero to an empty precision
    window), "neg_coprime" (valuation negative and coprime to p),
    "stalled" (no p-th root of the leading coefficient) or "constant",
    whose datum is the residue at t^0.  Otherwise the move is "strip" or
    "absorb_tail", and its datum g is the witness to subtract as g^p - g.
    """
    if comp.is_apparent_zero:
        return ("opaque" if comp.precision <= 0 else "zero"), None
    v = comp.val()
    if v < 0:
        if v % comp.spec.p != 0:
            return "neg_coprime", None
        c = _strip_witness(comp)
        return ("stalled", None) if c is None else ("strip", c)
    g = _tail_witness(comp)
    if g is not None:
        return "absorb_tail", g
    return "constant", comp.residue_at(0)


def _stall_step(comp, **where):
    return {"op": "stall", **where, "valuation": comp.val(),
            "leading": str(comp.leading_coeff())}


def as_reduce(omega):
    """Reduce omega modulo Artin-Schreier coboundaries g^p - g.

    Returns a ReducedForm.  Raises PrecisionExhausted when omega looks
    like zero but the precision window is empty (nothing is known).
    """
    if not isinstance(omega, LaurentElem):
        raise ShapeMismatch("as_reduce expects a Laurent series element")
    steps = []
    witness = omega.scale_int(0)
    current = omega
    while True:
        move, datum = _next_move(current)
        if move == "opaque":
            raise PrecisionExhausted(
                "series is zero to the available precision but the "
                "precision window is empty"
            )
        if move == "stalled":
            steps.append(_stall_step(current))
        if move not in ("strip", "absorb_tail"):
            return ReducedForm(move, current, datum, witness, tuple(steps))
        step = {"op": move, "witness": str(datum)}
        if move == "strip":
            step["new_val_above"] = current.val()
        current = current - _coboundary(datum)
        witness = witness + datum
        steps.append(step)


def tr_valuation_evidence(p, v1):
    """Root valuations (v(x1), v(x2)) forced by a reduced first component
    of valuation v1 in a totally ramified length-2 vector."""
    return (Fraction(v1, p), Fraction(v1 * (p * p - p + 1), p * p))


def newton_valuations(eta):
    """Root valuations (v(x1), v(x2)) for length-2 data eta meeting the
    totally ramified hypotheses: v(eta1) < 0 and coprime to p, and
    v(eta1) < v(eta2).

    v(x1) = v(eta1)/p and v(x2) = ((p-1)v(eta1) + v(x1))/p; the second
    has denominator exactly p^2.  Raises HypothesisViolation when a
    hypothesis fails and PrecisionExhausted when eta2 looks like zero
    but its precision cannot certify v(eta1) < v(eta2).
    """
    if not isinstance(eta, WittVector) or eta.m != 2:
        raise ShapeMismatch("expected a length-2 vector")
    p = eta.p
    comp1, comp2 = eta.components
    if comp1.is_apparent_zero:
        raise HypothesisViolation("the first component must be nonzero")
    v1 = comp1.val()
    if v1 >= 0:
        raise HypothesisViolation(f"v(eta1) = {v1} is not negative")
    if v1 % p == 0:
        raise HypothesisViolation(f"v(eta1) = {v1} is divisible by {p}")
    if comp2.is_apparent_zero:
        if comp2.val_lower_bound() <= v1:
            raise PrecisionExhausted(
                "cannot certify v(eta1) < v(eta2) at this precision"
            )
    elif comp2.val() <= v1:
        raise HypothesisViolation("v(eta1) < v(eta2) is required")
    return tr_valuation_evidence(p, v1)


def _single_verdict(p, kind, const, element):
    """Verdict and evidence for one reduced component of the given kind."""
    if kind == "zero":
        return Classification.SPLIT, {}
    if kind == "neg_coprime":
        v = element.val()
        return Classification.TOTALLY_RAMIFIED, {
            "v_omega": v, "v_x1": Fraction(v, p), "ramification_index": p,
        }
    if kind == "constant":
        return Classification.UNRAMIFIED, {
            "residue_constant": str(const), "residue_degree": p,
        }
    return Classification.UNCLASSIFIED, {"reason": f"component reduction: {kind}"}


def decide_constant(const):
    """The constant step of a reduction: is the residue constant of the
    form w^p - w?  Returns (True, w) when it is, (True, None) when it is
    not, and (False, None) when that is undecided here (over F_p(u), for
    a constant that is not a polynomial)."""
    try:
        return True, coeff.in_AS_image(const)
    except UnsupportedInput:
        return False, None


def classify_deg_p(omega):
    """Classify K(x)/K for x^p - x = omega: split, unramified, totally
    ramified, or unclassified when reduction stalls."""
    red = as_reduce(omega)
    kind, const, element = red.kind, red.constant, red.element
    trace = red.steps
    constant_witness = {}
    if kind == "constant":
        decided, g = decide_constant(const)
        if not decided:
            return RamReport(
                Classification.UNCLASSIFIED,
                trace + ({"op": "constant_undecided", "constant": str(const)},),
                {"reason": "membership in the coboundary image is undecided here"},
                element,
                "classify_deg_p",
            )
        if g is not None:
            kind, element = "zero", element.scale_int(0)
            trace += ({"op": "constant_split", "witness": str(g)},)
            constant_witness = {"constant_witness": str(g)}
    verdict, evidence = _single_verdict(omega.spec.p, kind, const, element)
    if kind == "zero":
        evidence = {"witness": str(red.witness), **constant_witness}
    elif kind == "stalled":
        evidence = {
            "reason": "leading coefficient has no p-th root in the residue field"
        }
    return RamReport(verdict, trace, evidence, element, "classify_deg_p")


def _unit_vector(eta, idx, g):
    """The vector with g in slot idx and zeros elsewhere."""
    zero = eta.components[0].scale_int(0)
    comps = [zero] * eta.m
    comps[idx] = g
    return WittVector(eta.p, eta.m, comps)


@dataclasses.dataclass(frozen=True)
class WittReduceResult:
    """kinds[i] is how component i ended: "zero", "opaque", "neg_coprime",
    "stalled", "constant" or "constant_undecided"; constants[i] holds the
    residue for the last two and None otherwise."""

    reduced: "WittVector"
    kinds: tuple
    constants: tuple
    steps: tuple
    witness: "WittVector"


def witt_reduce(eta):
    """Reduce each component of a vector in turn through the group law.

    A correction in slot i changes only slots i and later, so the slots
    before it stay reduced.  Unlike as_reduce, constants in the
    coboundary image are killed too.  The result's witness vector g
    satisfies eta = reduced + (F(g) - g) in the Witt group, up to the
    working precision.
    """
    if not isinstance(eta, WittVector):
        raise ShapeMismatch("witt_reduce expects a Witt vector")
    if not isinstance(eta.components[0], LaurentElem):
        raise ShapeMismatch("witt_reduce expects Laurent series components")
    steps = []
    zero = eta.components[0].scale_int(0)
    witness = WittVector(eta.p, eta.m, (zero,) * eta.m)
    kinds = []
    constants = []
    for idx in range(eta.m):
        while True:
            comp = eta.components[idx]
            move, g = _next_move(comp)
            const = g if move == "constant" else None
            if move == "constant":
                decided, w = decide_constant(const)
                if not decided:
                    steps.append({"op": "constant_undecided", "component": idx})
                    move = "constant_undecided"
                    break
                if w is None:
                    break
                g = LaurentElem.from_residue(w, max(comp.precision, 1))
                step = {"op": "kill_constant", "component": idx, "witness": str(w)}
            elif move in ("strip", "absorb_tail"):
                step = {"op": move, "component": idx, "witness": str(g)}
            else:
                if move == "stalled":
                    steps.append(_stall_step(comp, component=idx))
                break
            vec = _unit_vector(eta, idx, g)
            eta = witt_sub(eta, artin_schreier_map(vec))
            witness = witt_add(witness, vec)
            steps.append(step)
        kinds.append(move)
        constants.append(const)
    return WittReduceResult(
        eta, tuple(kinds), tuple(constants), tuple(steps), witness
    )


def classify(omega):
    """Classify the cyclic extension of a series (degree p) or of a
    vector of length m <= 2 (degree p^m)."""
    if not isinstance(omega, WittVector):
        return classify_deg_p(omega)
    if omega.m == 1:
        return classify_deg_p(omega.components[0])
    if omega.m == 2:
        return classify_len2(omega)
    raise UnsupportedCase("classification is implemented for m <= 2")


def classify_len2(eta):
    """Classify the degree-p^2 extension attached to a length-2 vector."""
    if not isinstance(eta, WittVector) or eta.m != 2:
        raise ShapeMismatch("classify_len2 expects a length-2 vector")
    res = witt_reduce(eta)
    verdict, evidence, closing = _len2_verdict(res)
    return RamReport(
        verdict, res.steps + closing, evidence, res.reduced, "classify_len2"
    )


def _len2_verdict(res):
    """Verdict, evidence and closing trace steps for a reduced length-2
    vector, one row per kind of its first component.  Raises
    PrecisionExhausted when a component the verdict rests on is zero to
    too small a window."""
    (kind1, kind2), (const1, const2) = res.kinds, res.constants
    p = res.reduced.p
    comp1, comp2 = res.reduced.components

    if kind1 == "opaque":
        raise PrecisionExhausted(
            "first component is zero to an empty precision window"
        )

    if kind1 in ("zero", "constant") and kind2 == "opaque":
        raise PrecisionExhausted(
            "second component is zero to an empty precision window"
        )

    if kind1 == "zero":
        verdict, evidence = _single_verdict(p, kind2, const2, comp2)
        closing = {"op": "degenerate", "note": "first component reduces to "
                   "zero; the pair generates only a degree-p extension"}
        return verdict, dict(evidence, degenerate=True), (closing,)

    if kind1 == "neg_coprime":
        v1 = comp1.val()
        threshold = v1 * (p * p - p + 1)  # p * ((p-1)*v1 + v1/p)
        if comp2.is_apparent_zero:
            if p * comp2.val_lower_bound() <= threshold:
                raise PrecisionExhausted(
                    "second component is zero to a precision too small to "
                    "separate it from the dominant cross term"
                )
            v2 = None
        else:
            v2 = comp2.val()
        if v2 is None or p * v2 > threshold:
            vx1, vx2 = tr_valuation_evidence(p, v1)
            return Classification.TOTALLY_RAMIFIED, {
                "v_omega1": v1,
                "v_x1": vx1,
                "v_x2": vx2,
                "ramification_index": p * p,
                "value_group_note": "v(x2) lies in (1/p^2)Z but not in (1/p)Z",
            }, ()
        return Classification.UNCLASSIFIED, {
            "reason": "second component dominates; finishing the reduction "
            "needs arithmetic over the degree-p subextension",
            "v_omega1": v1,
            "v_omega2": v2,
        }, ()

    if kind1 == "constant":
        if kind2 in ("zero", "constant"):
            return Classification.UNRAMIFIED, {
                "residue_constant": str(const1),
                "second_constant": str(const2) if const2 is not None else "0",
                "note": "unramified; the degree divides p^2 and may drop "
                "if the second level splits over the first",
            }, ()
        return Classification.UNCLASSIFIED, {
            "reason": "first level is unramified but the second component "
            "is not integral or not decided"
        }, ()

    return Classification.UNCLASSIFIED, {
        "reason": "reduction of a component stalled or was undecided"
    }, ()


def _second_relation_coeffs(p, omega1, omega2):
    """Coefficients R[0..p-1] with x2^p = x2 + sum_i R[i] x1^i.

    (x1^p, x2^p) = (x1, x2) + (omega1, omega2), and the second component
    of that Witt sum is x2 + omega2 - sum_i ((p-1)!/(i!(p-i)!)) x1^i
    omega1^(p-i), so R[0] = omega2 and R[i] is the i-th cross term.
    """
    return (omega2,) + tuple([
        (omega1 ** (p - i)).scale_int(-_cross_coeff(p, i)) for i in range(1, p)
    ])


class CyclicExtDesc:
    """A cyclic extension K(x1, ..., xm) of degree p^m (m <= 2) given by
    reduced data: x_l^p = x_l + R_l, with R_1 = omega1 and R_2 = R(x1).
    relations[l - 1] holds R_l as {basis key: coefficient}.
    """

    __slots__ = ("p", "m", "omega", "omega1", "relations")

    def __init__(self, omega):
        if not isinstance(omega, WittVector):
            raise ShapeMismatch("expected a Witt vector of Laurent components")
        if omega.m not in (1, 2):
            raise UnsupportedCase("extension arithmetic implemented for m <= 2")
        if not isinstance(omega.components[0], LaurentElem):
            raise ShapeMismatch("expected Laurent series components")
        if classify_deg_p(omega.components[0]).classification is Classification.SPLIT:
            raise DegenerateExtension(
                "first component splits; the data does not define a degree-p^m field"
            )
        relations = ({(0, 0): omega.components[0]},)
        if omega.m == 2:
            rel2 = _second_relation_coeffs(omega.p, *omega.components)
            relations += ({(k, 0): r for k, r in enumerate(rel2)},)
        object.__setattr__(self, "p", omega.p)
        object.__setattr__(self, "m", omega.m)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "omega1", omega.components[0])
        object.__setattr__(self, "relations", relations)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicExtDesc is immutable")

    @property
    def degree(self):
        return self.p ** self.m

    def zero_scalar(self):
        return self.omega1.scale_int(0)

    def scalar(self, a):
        return ExtensionElem(self, {(0, 0): a})

    def x1(self):
        return ExtensionElem(self, {(1, 0): self.omega1.ring_one()})

    def x2(self):
        if self.m != 2:
            raise UnsupportedCase("x2 exists only for m = 2")
        return ExtensionElem(self, {(0, 1): self.omega1.ring_one()})

    def basis(self):
        top2 = self.p if self.m == 2 else 1
        return [(i, j) for j in range(top2) for i in range(self.p)]


def _add_at(coeffs, key, a):
    coeffs[key] = coeffs[key] + a if key in coeffs else a


class ExtensionElem:
    """Element of the extension in the basis x1^i x2^j, 0 <= i, j < p."""

    __slots__ = ("desc", "coeffs")

    def __init__(self, desc, coeffs):
        basis = desc.basis()
        clean = {}
        for key, a in coeffs.items():
            if key not in basis or {type(e) for e in key} != {int}:
                raise ShapeMismatch("basis exponent out of range")
            if not isinstance(a, LaurentElem):
                raise ShapeMismatch("coefficients must be Laurent series")
            clean[key] = a
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExtensionElem is immutable")

    def coeff_at(self, i, j=0):
        a = self.coeffs.get((i, j))
        if a is None:
            return self.desc.zero_scalar()
        return a

    def _check(self, other):
        if not isinstance(other, ExtensionElem):
            raise TypeError("expected an ExtensionElem")
        if other.desc is not self.desc and other.desc.omega != self.desc.omega:
            raise SpecMismatch("elements live in different extensions")

    def __add__(self, other):
        self._check(other)
        coeffs = dict(self.coeffs)
        for key, a in other.coeffs.items():
            _add_at(coeffs, key, a)
        return ExtensionElem(self.desc, coeffs)

    def __neg__(self):
        return ExtensionElem(self.desc, {k: -a for k, a in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        return ExtensionElem(self.desc, {k: c * a for k, c in self.coeffs.items()})

    def __mul__(self, other):
        self._check(other)
        p = self.desc.p
        acc = {}
        for (i1, j1), a in self.coeffs.items():
            for (i2, j2), b in other.coeffs.items():
                _add_at(acc, (i1 + i2, j1 + j2), a * b)
        # Top down in (j, i) order, a key is summed before x_l^p = x_l + R_l.
        out = {}
        while acc:
            key = max(acc, key=lambda k: k[::-1])
            a = acc.pop(key)
            level = max((l for l, e in enumerate(key) if e >= p), default=None)
            if level is None:
                out[key] = a
                continue
            low = list(key)
            low[level] -= p
            for (i, j), r in self.desc.relations[level].items():
                _add_at(acc, (low[0] + i, low[1] + j), a * r)
            low[level] += 1
            _add_at(acc, tuple(low), a)
        return ExtensionElem(self.desc, out)

    def __pow__(self, e):
        if e < 0:
            raise UnsupportedInput("negative powers are not implemented here")
        one = self.desc.scalar(self.desc.omega1.ring_one())
        return binary_power(self, e, one)

    def is_apparent_zero(self):
        return all(a.is_apparent_zero for a in self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, ExtensionElem):
            return NotImplemented
        return (self - other).is_apparent_zero()

    __hash__ = None

    def __repr__(self):
        bits = []
        for (i, j) in self.desc.basis():
            a = self.coeffs.get((i, j))
            if a is None or a.is_apparent_zero:
                continue
            label = ""
            if i:
                label += f"x1^{i}" if i > 1 else "x1"
            if j:
                label += ("*" if label else "") + (f"x2^{j}" if j > 1 else "x2")
            bits.append(f"({a}){'*' + label if label else ''}")
        return "ExtensionElem(" + (" + ".join(bits) if bits else "0") + ")"


def _shift(elem, level, k):
    """The conjugate of elem under x_level -> x_level + k, k in F_p.

    Each basis exponent e < p of x_level expands binomially into
    sum_l C(e, l) k^(e-l) x_level^l, so the result stays in the basis.
    """
    out = {}
    for key, a in elem.coeffs.items():
        e = key[level - 1]
        for low in range(e + 1):
            term = a.scale_int(math.comb(e, low) * k ** (e - low))
            _add_at(out, key[:level - 1] + (low,) + key[level:], term)
    return ExtensionElem(elem.desc, out)


def norm_element(desc, elem):
    """Field norm N_{L/K} as a product of Galois conjugates, one level at
    a time from the top: N = N_{L1/K} o N_{L/L1}.

    x_i^p = x_i + (terms in lower variables), so x_i -> x_i + k for k in
    F_p generates Gal(L_i/L_{i-1}).  The product of the p conjugates at
    level i lies in L_{i-1}: its coefficients on positive powers of x_i
    are exactly zero, so they are dropped.  No step divides.
    """
    if not isinstance(elem, ExtensionElem):
        raise ShapeMismatch("norm_element expects an ExtensionElem")
    if elem.desc is not desc and elem.desc.omega != desc.omega:
        raise SpecMismatch("element does not live in this extension")
    z = elem
    for level in range(desc.m, 0, -1):
        prod = z
        for k in range(1, desc.p):
            prod = prod * _shift(z, level, k)
        z = ExtensionElem(desc, {
            key: a for key, a in prod.coeffs.items() if not any(key[level - 1:])
        })
    return z.coeff_at(0, 0)
