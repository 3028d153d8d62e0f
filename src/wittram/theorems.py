"""Constructions connecting cyclic extensions, symbols, and division
algebras over K = k((t)).

cyclic_to_insep:        totally ramified cyclic data -> an element c
                        with v(c) coprime to p, generating a totally
                        ramified purely inseparable subfield.
insep_to_cyclic_p/p2:   a symbol with v(b) coprime to p -> a totally
                        ramified cyclic presentation of the same class.
insep_to_cyclic_perfect: the same construction over F_p, by direct
                        vector addition instead of certified rewriting.
division_certificate:   checked hypotheses under which [omega, b) is a
                        division algebra.
build_disjoint_division_pair: two division algebras whose unramified
                        parts are residue-disjoint.
conjecture_roundtrip:   run both directions and report each stage.
"""

import dataclasses
import math
from fractions import Fraction

from . import coeff
from .brauer import (
    BrauerSymbol,
    RewriteTrace,
    add_absorbed,
    dominate_b,
    lemma54_rewrite,
    normalize_symbol,
)
from .coeff import FieldKind
from .errors import (
    HypothesisNotVerified,
    HypothesisViolation,
    ShapeMismatch,
    UnsupportedCase,
)
from .extension import (
    Classification,
    CyclicExtDesc,
    classify,
    classify_deg_p,
    classify_len2,
    norm_element,
)
from .valued import DEFAULT_PRECISION, LaurentElem, ext_val
from .witt import WittVector


@dataclasses.dataclass(frozen=True)
class InsepNormalForm:
    """The purely inseparable field K(b^(1/p^m)) presented by its
    generator b and the root generator's exact valuation."""

    p: int
    m: int
    b: "LaurentElem"
    root_valuation: Fraction
    note: str

    def verify(self):
        if math.gcd(self.b.val(), self.p) != 1:
            raise HypothesisViolation("v(b) is not coprime to p")
        if self.root_valuation.denominator != self.p ** self.m:
            raise HypothesisViolation(
                "root valuation denominator is not exactly p^m"
            )
        return True


def insep_normal_form(b, m):
    """Witness for the totally ramified purely inseparable field
    K(b^(1/p^m)): requires gcd(v(b), p) = 1, so the root generator has
    valuation v(b)/p^m with denominator exactly p^m."""
    if not isinstance(b, LaurentElem):
        raise ShapeMismatch("expected a Laurent element")
    p = b.spec.p
    if not 1 <= m <= 4:
        raise UnsupportedCase("exponents are supported for 1 <= m <= 4")
    vb = b.val()
    if math.gcd(vb, p) != 1:
        raise HypothesisViolation(f"v(b) = {vb} is not coprime to {p}")
    root_val = ext_val(p ** m, b)
    return InsepNormalForm(
        p, m, b, root_val,
        f"the p^{m}-th root of b has valuation {root_val}, which is in "
        f"(1/p^{m})Z but not (1/p^{m - 1})Z",
    )


@dataclasses.dataclass(frozen=True)
class SubfieldWitness:
    """An element c with v(c) coprime to p; K(c^(1/p^m)) is the totally
    ramified inseparable subfield produced from totally ramified cyclic
    data."""

    p: int
    m: int
    c: "LaurentElem"
    b: "LaurentElem"
    norm_factor: object
    report: object
    note: str

    def verify(self):
        v = self.c.val()
        if math.gcd(v, self.p) != 1:
            raise HypothesisViolation("witness valuation is not coprime to p")
        if self.report.classification is not Classification.TOTALLY_RAMIFIED:
            raise HypothesisViolation("source data was not totally ramified")
        if self.norm_factor is not None and self.c != self.norm_factor * self.b:
            raise HypothesisViolation("witness is not norm_factor * b")
        return True


def cyclic_to_insep(omega, b):
    """From totally ramified cyclic data omega and a nonzero b, produce
    c with gcd(v(c), p) = 1: directly c = b when v(b) is already coprime
    to p, otherwise c = N(u) * b for a norm N(u) of coprime valuation.

    Raises HypothesisViolation when omega is not totally ramified and
    UnsupportedCase when the length-2 analysis is inconclusive.
    """
    if not isinstance(omega, WittVector):
        raise ShapeMismatch("expected a Witt vector")
    return _subfield_witness(omega, b, classify(omega))


def _subfield_witness(omega, b, report):
    """cyclic_to_insep after classification: report is classify(omega)."""
    if report.classification is Classification.UNCLASSIFIED:
        raise UnsupportedCase(
            "the analyzer could not settle the input; totally ramified "
            "hypotheses are required here"
        )
    if report.classification is not Classification.TOTALLY_RAMIFIED:
        raise HypothesisViolation(
            f"input must be totally ramified, found {report.classification.value}"
        )
    p = omega.p
    vb = b.val()
    if math.gcd(vb, p) == 1:
        return SubfieldWitness(
            p, omega.m, b, b, None, report,
            "v(b) is already coprime to p, so c = b",
        )
    reduced = report.reduced
    if omega.m == 1:
        reduced = WittVector(p, 1, (reduced,))
    desc = CyclicExtDesc(reduced)
    top = desc.x2() if desc.m == 2 else desc.x1()
    factor = norm_element(desc, top)
    c = factor * b
    if math.gcd(c.val(), p) != 1:
        raise HypothesisViolation(
            "norm adjustment failed to reach a coprime valuation"
        )
    return SubfieldWitness(
        p, omega.m, c, b, factor, report,
        f"c = N(x{desc.m}) * b with v(N(x{desc.m})) coprime to p",
    )


@dataclasses.dataclass(frozen=True)
class CyclicConstruction:
    p: int
    m: int
    input_symbol: object
    result_symbol: object
    omega_new: object
    report: object
    trace: RewriteTrace
    evidence_level: str
    note: str


def insep_to_cyclic_p(sym):
    """Length-1 symbol with gcd(v(b), p) = 1: after normalization, the
    class is [omega1' + b', b') whose cyclic part is totally ramified."""
    if sym.m != 1:
        raise ShapeMismatch("this construction expects a length-1 symbol")
    return _insep_to_cyclic(sym)


def insep_to_cyclic_p2(sym):
    """Length-2 symbol with gcd(v(b), p) = 1: normalize, then rewrite
    [(c^p, w2), b') to [(c^p + b', w2), b'); the new first component has
    the valuation of b', so the cyclic part is totally ramified."""
    if sym.m != 2:
        raise ShapeMismatch("this construction expects a length-2 symbol")
    return _insep_to_cyclic(sym)


def _insep_to_cyclic(sym):
    """insep_to_cyclic_p or insep_to_cyclic_p2, for a symbol of length 1
    or 2: normalize, add the split symbol [(b', 0, ..), b') (at length 2
    through lemma 5.4's rewrite), then classify the new vector."""
    if sym.m not in (1, 2):
        raise UnsupportedCase("the construction is implemented for m <= 2")
    norm = normalize_symbol(sym)
    if sym.m == 1:
        result, added = add_absorbed(norm.symbol)
        report = classify_deg_p(result.omega.components[0])
        note = "cyclic part x^p - x = omega1' + b' is totally ramified"
    else:
        rewritten = lemma54_rewrite(norm.symbol)
        result, added = rewritten.symbol, rewritten.trace.steps
        report = classify_len2(result.omega)
        note = "after the rewrite the first component carries v(b')"
    return CyclicConstruction(
        sym.p, sym.m, sym, result, result.omega, report,
        RewriteTrace(norm.trace.steps + added), "full", note,
    )


def insep_to_cyclic_perfect(sym):
    """The prime-field variant: adjust b, then add (b', 0, ..., 0) with
    the plain group law.  Works for 1 <= m <= 4; for m >= 3 only the
    first component's ramification is certified."""
    spec = sym.b.spec
    if spec.kind is not FieldKind.PRIME:
        raise HypothesisViolation(
            "this construction is stated over the prime residue field"
        )
    p = sym.p
    if math.gcd(sym.b.val(), p) != 1:
        raise HypothesisViolation("v(b) must be coprime to p")
    cur, adjust = dominate_b(sym)
    result, absorbed = add_absorbed(cur)
    steps = adjust + absorbed
    if sym.m <= 2:
        report = classify(result.omega)
        level = "full"
    else:
        report = classify_deg_p(result.omega.components[0])
        level = "first_component"
    return CyclicConstruction(
        p, sym.m, sym, result, result.omega, report,
        RewriteTrace(steps), level,
        "direct vector addition over the prime residue field",
    )


@dataclasses.dataclass(frozen=True)
class DivisionCertificate:
    """Checked hypotheses under which [omega, b) is division of degree
    p^m: the extension of omega is unramified of degree p^m and v(b) is
    coprime to p, so b has order p^m modulo norms."""

    p: int
    m: int
    v_b: int
    hypotheses: dict
    residue_data: dict
    report: object
    valuation_note: str
    semiramified_note: str

    @property
    def is_division(self):
        return True


def division_certificate(omega, b):
    """Certify that the symbol algebra [omega, b) is division.

    Raises HypothesisNotVerified naming the hypothesis that failed:
    length_at_most_2, coprime_valuation, or unramified_extension.
    """
    if not isinstance(omega, WittVector):
        raise ShapeMismatch("expected a Witt vector")
    p = omega.p
    if omega.m > 2:
        raise HypothesisNotVerified(
            "length_at_most_2",
            "unramified analysis is implemented for m <= 2 only",
        )
    vb = b.val()
    if math.gcd(vb, p) != 1:
        raise HypothesisNotVerified(
            "coprime_valuation", f"v(b) = {vb} is divisible by {p}"
        )
    report = classify(omega)
    if report.classification is not Classification.UNRAMIFIED:
        raise HypothesisNotVerified(
            "unramified_extension",
            f"the analyzer found {report.classification.value}",
        )
    pm = p ** omega.m
    residue_data = {
        k: v for k, v in report.evidence.items() if "residue" in k or "constant" in k
    }
    return DivisionCertificate(
        p,
        omega.m,
        vb,
        {
            "length_at_most_2": True,
            "coprime_valuation": True,
            "unramified_extension": True,
        },
        residue_data,
        report,
        f"the slot generator y satisfies y^(p^{omega.m}) = b, so "
        f"{pm} * v(y) = v(b) = {vb} and the value group gains denominator {pm}",
        "the algebra is semiramified: its residue division algebra is the "
        "unramified extension and its value group is (1/p^m)Z",
    )


@dataclasses.dataclass(frozen=True)
class DisjointDivisionPair:
    """Two division certificates whose unramified parts are generated by
    residue classes independent modulo coboundaries."""

    first: DivisionCertificate
    second: DivisionCertificate
    classes: tuple
    sweep: dict
    note: str

    def __iter__(self):
        yield self.first
        yield self.second


def build_disjoint_division_pair(spec, b=None, m=1):
    """Build two residue-disjoint division algebras over F_p(u)((t)).

    The residue classes come from an exhaustive sweep showing that no
    nontrivial F_p-combination of the two constants is a coboundary;
    that the tensor product of the two algebras is division then
    follows from the standard residue-disjointness criterion, which is
    used here without re-verification.
    """
    a1, a2 = coeff.build_disjoint_classes(spec)
    if b is None:
        b = LaurentElem.t_power(spec, 1, DEFAULT_PRECISION)
    if m not in (1, 2):
        raise UnsupportedCase("pairs are built for m <= 2")
    certs = []
    for a in (a1, a2):
        lead = LaurentElem.from_residue(a, b.precision)
        zero = lead.scale_int(0)
        omega = WittVector(spec.p, m, (lead,) + (zero,) * (m - 1))
        certs.append(division_certificate(omega, b))
    p = spec.p
    sweep = {
        "combinations_checked": p * p - 1,
        "statement": "lam1*a1 + lam2*a2 is a coboundary only for lam1 = lam2 = 0",
    }
    return DisjointDivisionPair(
        certs[0],
        certs[1],
        (a1, a2),
        sweep,
        "tensor-product division-ness follows from residue disjointness "
        "(external criterion, not re-verified here)",
    )


@dataclasses.dataclass(frozen=True)
class RoundtripReport:
    stages: tuple
    witness: SubfieldWitness
    construction: CyclicConstruction

    @property
    def ok(self):
        return all(label != "failed" for label, _ in self.stages)


def conjecture_roundtrip(omega, b):
    """Exercise both directions on one symbol [omega, b) with v(b)
    coprime to p: first rewrite it to a totally ramified cyclic
    presentation, then hand that cyclic data back to cyclic_to_insep
    and check the final purely inseparable witness.

    The rewritten symbol keeps v(b') coprime to p, so the return
    direction ends in the direct branch c = b'; every trace and witness
    is re-validated before the report is returned.
    """
    if omega.m not in (1, 2):
        raise UnsupportedCase("the roundtrip covers m <= 2")
    sym = BrauerSymbol(omega, b)
    stages = []
    construction = _insep_to_cyclic(sym)
    stages.append(("insep_to_cyclic", construction))
    stages.append(("classify_cyclic", construction.report))
    # the construction already classified omega_new
    witness = _subfield_witness(
        construction.omega_new, construction.result_symbol.b,
        construction.report,
    )
    stages.append(("cyclic_to_insep", witness))
    witness.verify()
    construction.trace.validate()
    stages.append(("final_check", "witness and trace re-validated"))
    return RoundtripReport(tuple(stages), witness, construction)
