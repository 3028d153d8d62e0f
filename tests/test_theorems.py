"""End-to-end constructions: subfield witnesses, cyclic presentations,
division certificates, and the two-direction roundtrip."""

import dataclasses
from fractions import Fraction

import pytest

from conftest import ALL_SPECS, F2, F2U, F3, F3U, L, W
from wittram import coeff, sampling, theorems
from wittram.brauer import BrauerSymbol
from wittram.errors import (
    HypothesisNotVerified,
    HypothesisViolation,
    ShapeMismatch,
    UnsupportedCase,
)
from wittram.extension import Classification, classify
from wittram.theorems import (
    build_disjoint_division_pair,
    conjecture_roundtrip,
    cyclic_to_insep,
    division_certificate,
    insep_normal_form,
    insep_to_cyclic_p,
    insep_to_cyclic_p2,
    insep_to_cyclic_perfect,
)
from wittram.valued import LaurentElem
from wittram.witt import WittVector


# -- purely inseparable normal forms ------------------------------------------

def test_insep_normal_form_golden():
    nf = insep_normal_form(L("t", F2), 2)
    assert nf.p == 2 and nf.m == 2
    assert nf.root_valuation == Fraction(1, 4)
    assert nf.verify()

    nf2 = insep_normal_form(L("u * t^-1", F2U), 1)
    assert nf2.root_valuation == Fraction(-1, 2)
    assert nf2.verify()

    assert insep_normal_form(L("t", F2), 4).root_valuation == Fraction(1, 16)


def test_certificates_reject_tampered_fields():
    replace = dataclasses.replace
    nf = insep_normal_form(L("t", F2), 2)
    for bad in (replace(nf, b=L("t^2", F2)),
                replace(nf, root_valuation=Fraction(1, 2))):
        with pytest.raises(HypothesisViolation):
            bad.verify()
    w = cyclic_to_insep(W("[t^-1]", F2), L("t^2", F2))
    for bad in (replace(w, c=w.b, norm_factor=None),
                replace(w, c=L("t^3", F2)),
                replace(w, report=classify(W("[1]", F2)))):
        with pytest.raises(HypothesisViolation):
            bad.verify()


def test_constructions_refuse_a_series_for_a_vector():
    with pytest.raises(ShapeMismatch):
        cyclic_to_insep(L("t^-1", F2), L("t", F2))
    with pytest.raises(ShapeMismatch):
        division_certificate(L("u", F2U), L("t", F2U))


def test_insep_normal_form_guards():
    with pytest.raises(HypothesisViolation):
        insep_normal_form(L("t^3", F3), 1)
    with pytest.raises(UnsupportedCase):
        insep_normal_form(L("t", F2), 0)
    with pytest.raises(UnsupportedCase):
        insep_normal_form(L("t", F2), 5)
    with pytest.raises(ShapeMismatch):
        insep_normal_form("t", 1)


# -- cyclic data to inseparable witness ----------------------------------------

def test_cyclic_to_insep_m1_norm_branch():
    w = cyclic_to_insep(W("[t^-1]", F2), L("t^2", F2))
    assert w.c == L("t", F2)
    assert w.norm_factor == L("t^-1", F2)
    assert w.note == "c = N(x1) * b with v(N(x1)) coprime to p"
    assert w.verify()


def test_cyclic_to_insep_m2_norm_branch():
    w = cyclic_to_insep(W("[t^-1; 0]", F2), L("t^2", F2))
    assert w.norm_factor.val() == -3
    assert w.c.val() == -1
    assert w.note == "c = N(x2) * b with v(N(x2)) coprime to p"
    assert w.verify()


def test_cyclic_to_insep_direct_branch():
    w = cyclic_to_insep(W("[t^-1]", F2), L("t", F2))
    assert w.c == L("t", F2)
    assert w.norm_factor is None
    assert w.note == "v(b) is already coprime to p, so c = b"
    assert w.verify()


def test_cyclic_to_insep_rejects_unramified():
    with pytest.raises(HypothesisViolation, match="must be totally ramified"):
        cyclic_to_insep(W("[u]", F2U), L("t", F2U))


def test_cyclic_to_insep_rejects_unclassified():
    with pytest.raises(UnsupportedCase, match="could not settle"):
        cyclic_to_insep(W("[u * t^-2]", F2U), L("t", F2U))


def test_cyclic_to_insep_random_coprime():
    rng = sampling.make_rng(7)
    n = 0
    while n < 16:
        spec = ALL_SPECS[n % 4]
        p = spec.p
        m = 1 + (n % 2)
        omega = sampling.random_tr_vector_len2(rng, spec) if m == 2 else (
            WittVector(p, 1, (sampling.random_tr_element(rng, spec),))
        )
        b = sampling.random_laurent(rng, spec, vmin=-4, vmax=4, nonzero=True)
        try:
            w = cyclic_to_insep(omega, b)
        except UnsupportedCase:
            continue
        import math

        assert math.gcd(w.c.val(), p) == 1
        assert w.verify()
        n += 1


# -- symbol to cyclic presentation ----------------------------------------------

def test_insep_to_cyclic_p_golden():
    con = insep_to_cyclic_p(BrauerSymbol(W("[0]", F2), L("t^-1", F2)))
    assert [s.rule for s in con.trace.steps] == ["absorb", "same_b"]
    assert con.omega_new.components[0] == L("t^-1", F2)
    assert con.result_symbol.b == L("t^-1", F2)
    assert con.report.classification is Classification.TOTALLY_RAMIFIED
    assert con.report.evidence["v_x1"] == Fraction(-1, 2)
    assert con.evidence_level == "full"
    assert con.trace.validate()


def test_insep_to_cyclic_p_length_guard():
    with pytest.raises(ShapeMismatch):
        insep_to_cyclic_p(BrauerSymbol(W("[0; 0]", F2), L("t", F2)))


def test_insep_to_cyclic_p2_golden():
    con = insep_to_cyclic_p2(BrauerSymbol(W("[t^2; t^3]", F2), L("t^-1", F2)))
    assert [s.rule for s in con.trace.steps] == [
        "frob_twist", "absorb", "same_b", "strip_zero",
        "same_omega", "absorb", "pth_power_b", "same_b",
    ]
    assert con.result_symbol.b == L("t^-1", F2)
    assert con.omega_new.components[0].val() == -1
    assert con.report.classification is Classification.TOTALLY_RAMIFIED
    assert con.report.evidence["v_x2"] == Fraction(-3, 4)
    assert con.report.evidence["ramification_index"] == 4
    assert con.trace.validate()


def test_insep_to_cyclic_p2_length_guard():
    with pytest.raises(ShapeMismatch):
        insep_to_cyclic_p2(BrauerSymbol(W("[0]", F2), L("t", F2)))


def test_insep_to_cyclic_dispatch_by_length():
    for src, direct in (("[0]", insep_to_cyclic_p), ("[t^2; t^3]", insep_to_cyclic_p2)):
        sym = BrauerSymbol(W(src, F2), L("t^-1", F2))
        con = theorems._insep_to_cyclic(sym)
        assert (con.m, con.note) == (sym.m, direct(sym).note)
    long = BrauerSymbol(W("[0; 0; 0]", F2), L("t", F2))
    with pytest.raises(UnsupportedCase, match="construction is implemented for m <= 2"):
        theorems._insep_to_cyclic(long)
    # the roundtrip checks the length before it dispatches
    with pytest.raises(UnsupportedCase, match="the roundtrip covers m <= 2"):
        conjecture_roundtrip(long.omega, long.b)


def test_insep_to_cyclic_never_unclassified():
    rng = sampling.make_rng(23)
    n = 0
    while n < 24:
        spec = ALL_SPECS[n % 4]
        m = 1 + (n % 2)
        comps = tuple(
            sampling.random_laurent(rng, spec, vmin=-4, vmax=4)
            for _ in range(m)
        )
        sym = BrauerSymbol(
            WittVector(spec.p, m, comps), sampling.random_symbol_b(rng, spec)
        )
        con = theorems._insep_to_cyclic(sym)
        assert con.report.classification in (
            Classification.TOTALLY_RAMIFIED, Classification.SPLIT,
        )
        assert con.trace.validate()
        n += 1


# -- the prime-field shortcut ---------------------------------------------------

def test_perfect_agrees_with_length1_pipeline():
    sym = BrauerSymbol(W("[0]", F2), L("t^-1", F2))
    pf = insep_to_cyclic_perfect(sym)
    via_rewrite = insep_to_cyclic_p(sym)
    assert pf.omega_new == via_rewrite.omega_new
    assert pf.result_symbol.b == via_rewrite.result_symbol.b
    assert pf.report.classification is Classification.TOTALLY_RAMIFIED
    assert pf.evidence_level == "full"
    assert pf.trace.validate()


def test_perfect_adjusts_shallow_b():
    pf = insep_to_cyclic_perfect(BrauerSymbol(W("[t; 0]", F3), L("t^2", F3)))
    assert [s.rule for s in pf.trace.steps] == [
        "power_adjust_b", "absorb", "same_b",
    ]
    assert pf.result_symbol.b.val() == -7
    assert pf.omega_new.components[0].val() == -7
    assert pf.report.classification is Classification.TOTALLY_RAMIFIED
    assert pf.trace.validate()


def test_perfect_m3_first_component_level():
    omega = WittVector(2, 3, (L("t^-3", F2), L("0", F2), L("0", F2)))
    pf = insep_to_cyclic_perfect(BrauerSymbol(omega, L("t^-1", F2)))
    assert pf.evidence_level == "first_component"
    assert pf.report.classification is Classification.TOTALLY_RAMIFIED
    assert pf.trace.validate()


def test_perfect_rejects_rational_residue():
    with pytest.raises(HypothesisViolation, match="prime residue field"):
        insep_to_cyclic_perfect(BrauerSymbol(W("[u]", F2U), L("t", F2U)))


def test_perfect_rejects_divisible_valuation():
    with pytest.raises(HypothesisViolation, match="coprime"):
        insep_to_cyclic_perfect(BrauerSymbol(W("[0]", F2), L("t^2", F2)))


# -- division certificates --------------------------------------------------------

def test_division_certificate_golden():
    cert = division_certificate(W("[u]", F2U), L("t", F2U))
    assert cert.p == 2 and cert.m == 1 and cert.v_b == 1
    assert cert.hypotheses == {
        "length_at_most_2": True,
        "coprime_valuation": True,
        "unramified_extension": True,
    }
    assert cert.residue_data["residue_constant"] == "u"
    assert cert.residue_data["residue_degree"] == 2
    assert cert.is_division
    assert "2 * v(y) = v(b) = 1" in cert.valuation_note
    assert "semiramified" in cert.semiramified_note


def test_division_certificate_names_failed_hypothesis():
    with pytest.raises(HypothesisNotVerified, match="length_at_most_2"):
        division_certificate(
            WittVector(2, 3, (L("u", F2U),) * 3), L("t", F2U)
        )
    with pytest.raises(HypothesisNotVerified, match="coprime_valuation"):
        division_certificate(W("[u]", F2U), L("t^2", F2U))
    with pytest.raises(HypothesisNotVerified, match="unramified_extension"):
        division_certificate(W("[t^-1]", F2U), L("t", F2U))


def test_division_certificate_needs_an_unramified_verdict():
    # [u*t^-2] is Unclassified, not merely short of totally ramified
    assert classify(W("[u*t^-2]", F2U)).classification is (
        Classification.UNCLASSIFIED
    )
    with pytest.raises(HypothesisNotVerified, match="unramified_extension"):
        division_certificate(W("[u*t^-2]", F2U), L("t", F2U))


@pytest.mark.parametrize("omega, b, spec", [
    ("[0; 1]", "t", F3),
    ("[t + t^2 + t^3; 1 + t^2]", "t^-5 + t^4", F2),
])
def test_division_certificate_refuses_degenerate_vectors(omega, b, spec):
    # the first component reduces to zero, so the unramified extension
    # has degree p and the symbol has index p, not p^2
    omega = W(omega, spec)
    report = classify(omega)
    assert report.classification is Classification.UNRAMIFIED
    assert report.evidence["degenerate"]
    with pytest.raises(HypothesisNotVerified, match="unramified_extension"):
        division_certificate(omega, L(b, spec))


def _random_unramified_vector(rng, spec, m):
    # first component a nonsplit constant, later components integral
    lead = LaurentElem.from_residue(sampling.random_nonsplit_constant(rng, spec))
    rest = [sampling.random_laurent(rng, spec, vmin=0, vmax=4)
            for _ in range(m - 1)]
    return WittVector(spec.p, m, [lead] + rest)


def test_division_certificate_random_unramified():
    rng = sampling.make_rng(41)
    for n in range(12):
        spec = (F2U, F3U)[n % 2]
        m = 1 + (n % 2)
        omega = _random_unramified_vector(rng, spec, m)
        b = sampling.random_symbol_b(rng, spec)
        cert = division_certificate(omega, b)
        assert cert.is_division
        assert cert.report.classification is Classification.UNRAMIFIED


# -- residue-disjoint pairs --------------------------------------------------------

def test_disjoint_pair_golden_f2u():
    pair = build_disjoint_division_pair(F2U)
    a1, a2 = pair.classes
    assert a1 == F2U.u()
    assert a2 == F2U.element((0, 0, 0, 1))
    assert pair.sweep["combinations_checked"] == 3
    for cert, a in zip(pair, pair.classes):
        assert cert.is_division
        assert cert.v_b == 1
        assert cert.m == 1
        assert cert.residue_data["residue_constant"] == str(a)


def test_disjoint_pair_golden_f3u():
    pair = build_disjoint_division_pair(F3U, m=2)
    a1, a2 = pair.classes
    assert a1 == F3U.u()
    assert a2 == F3U.element((0, 0, 1))
    assert pair.sweep["combinations_checked"] == 8
    assert pair.first.m == 2
    assert pair.second.report.classification is Classification.UNRAMIFIED
    for cert, a in zip(pair, pair.classes):
        assert cert.residue_data["residue_constant"] == str(a)
        assert cert.residue_data["second_constant"] == "0"


def test_disjoint_pair_classes_independent():
    for spec in (F2U, F3U):
        pair = build_disjoint_division_pair(spec)
        a1, a2 = pair.classes
        p = spec.p
        for l1 in range(p):
            for l2 in range(p):
                if l1 == l2 == 0:
                    continue
                combo = a1.scale_int(l1) + a2.scale_int(l2)
                assert coeff.in_AS_image(combo) is None


def test_disjoint_pair_guards():
    with pytest.raises(UnsupportedCase):
        build_disjoint_division_pair(F2U, m=3)


# -- the roundtrip ------------------------------------------------------------------

def test_roundtrip_golden():
    rt = conjecture_roundtrip(W("[0; 0]", F2), L("t", F2))
    assert rt.ok
    assert [label for label, _ in rt.stages] == [
        "insep_to_cyclic", "classify_cyclic", "cyclic_to_insep", "final_check",
    ]
    assert rt.witness.c.val() == -3
    assert rt.witness.verify()
    assert rt.construction.trace.validate()


def test_roundtrip_classifies_each_vector_once(monkeypatch):
    # the return direction reuses the construction's report
    calls = []
    for name in ("classify", "classify_deg_p", "classify_len2"):
        def counted(*args, _name=name, _f=getattr(theorems, name)):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(theorems, name, counted)
    for omega, expected in (("[0]", "classify_deg_p"), ("[0; 0]", "classify_len2")):
        calls.clear()
        rt = conjecture_roundtrip(W(omega, F2U), L("t", F2U))
        assert calls == [expected]
        assert rt.witness.report is rt.construction.report


def test_roundtrip_deep_precision_loss_regression():
    # normalization here multiplies b by t^-27 and the rewrite leaves the
    # second component invisible at its shrunken window; the classifier
    # must still certify via the valuation lower bound
    omega = W(
        "[(u^2 + 2*u) * t^-6 + (u^3 + u^2 + 2*u) * t^4; "
        "(2*u^3 + 2*u^2 + u) * t^-4 + (2*u^2 + 2) + t^6]",
        F3U,
    )
    b = L("t^2 + (u + 1) * t^3 + (2*u + 2) * t^7", F3U)
    rt = conjecture_roundtrip(omega, b)
    assert rt.ok
    assert rt.witness.c.val() == -25


def test_roundtrip_random_sweep():
    rng = sampling.make_rng(31)
    n = 0
    while n < 20:
        spec = ALL_SPECS[n % 4]
        m = 1 + (n % 2)
        comps = tuple(
            sampling.random_laurent(rng, spec, vmin=-4, vmax=4)
            for _ in range(m)
        )
        omega = WittVector(spec.p, m, comps)
        b = sampling.random_symbol_b(rng, spec)
        rt = conjecture_roundtrip(omega, b)
        assert rt.ok
        assert rt.witness.verify()
        n += 1


def test_roundtrip_length_guard():
    with pytest.raises(UnsupportedCase):
        conjecture_roundtrip(
            WittVector(2, 3, (L("0", F2),) * 3), L("t", F2)
        )
