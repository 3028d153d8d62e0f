"""Degree-p and degree-p^2 extensions: reduction, classification, norms."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from wittram import sampling
from wittram.coeff import FieldKind, FieldSpec
from wittram.grammar import parse_laurent, parse_witt
from wittram.errors import (
    DegenerateExtension,
    HypothesisViolation,
    PrecisionExhausted,
    ShapeMismatch,
    UnsupportedCase,
)
from wittram.extension import (
    Classification,
    CyclicExtDesc,
    ExtensionElem,
    _second_relation_coeffs,
    as_reduce,
    classify_deg_p,
    classify_len2,
    newton_valuations,
    norm_element,
    witt_reduce,
)
from wittram.newton import newton_classify_deg_p
from wittram.valued import DEFAULT_PRECISION, LaurentElem, ext_val, pth_power
from wittram.witt import WittVector, artin_schreier_map, sum_polys, witt_add

from conftest import ALL_SPECS, F2, F2U, F3, F3U, F5, L, W
from oracles import determinant_norm, work_stack_mul


# -- as_reduce ---------------------------------------------------------------

def test_as_reduce_strips_even_valuation():
    red = as_reduce(L("t^-2", F2))
    assert red.kind == "neg_coprime"
    assert red.element == L("t^-1", F2)
    assert any(step["op"] == "strip" for step in red.steps)


def test_as_reduce_collapses_coboundary():
    g = L("t^-3 + u*t^-1 + 1 + u*t^2", F2U)
    omega = pth_power(g) - g
    red = as_reduce(omega)
    assert red.kind == "zero"
    assert red.element.is_apparent_zero


def test_as_reduce_stalls_without_root():
    a = L("u*t^-2", F2U)
    red = as_reduce(a)
    assert red.kind == "stalled"
    assert red.element == a
    assert any(step["op"] == "stall" for step in red.steps)


@given(pairs=st.lists(st.tuples(st.integers(-7, 7), st.integers(1, 4)),
                      min_size=0, max_size=4),
       which=st.integers(0, 3))
@settings(max_examples=60)
def test_as_reduce_replay(pairs, which):
    spec = ALL_SPECS[which]
    terms = {}
    for e, c in pairs:
        terms[e] = terms.get(e, spec.zero()) + spec.from_int(c)
    omega = LaurentElem(spec, terms, DEFAULT_PRECISION)
    red = as_reduce(omega)
    g = red.witness
    assert omega - (pth_power(g) - g) == red.element


# -- classify_deg_p ----------------------------------------------------------

def test_classify_deg_p_totally_ramified():
    rep = classify_deg_p(L("t^-1", F2))
    assert rep.classification is Classification.TOTALLY_RAMIFIED
    assert rep.evidence["v_omega"] == -1
    assert rep.evidence["v_x1"] == Fraction(-1, 2)
    assert rep.evidence["ramification_index"] == 2
    assert rep.source == "classify_deg_p"


def test_classify_deg_p_unramified():
    rep = classify_deg_p(L("u", F2U))
    assert rep.classification is Classification.UNRAMIFIED


def test_classify_deg_p_split():
    rep = classify_deg_p(L("t^2 + t^5", F2))
    assert rep.classification is Classification.SPLIT
    # a constant in the image of g^p - g reduces to zero
    rep = classify_deg_p(L("u^2 + u", F2U))
    assert rep.classification is Classification.SPLIT
    assert rep.reduced.is_apparent_zero


def test_classify_deg_p_stall_is_unclassified():
    rep = classify_deg_p(L("u*t^-2", F2U))
    assert rep.classification is Classification.UNCLASSIFIED


def test_classify_deg_p_empty_window():
    with pytest.raises(PrecisionExhausted):
        classify_deg_p(LaurentElem(F2, {}, precision=0))


def _random_classify_sweep(spec, n, seed):
    rng = sampling.make_rng(seed)
    mismatches = []
    unclassified = 0
    for _ in range(n):
        omega = sampling.random_classify_input(rng, spec)
        got = classify_deg_p(omega).classification.value
        want = newton_classify_deg_p(omega)
        if got == "unclassified":
            unclassified += 1
            continue
        if want == "unclassified":
            continue
        if got != want:
            mismatches.append((str(omega), got, want))
    return mismatches, unclassified


def test_classify_deg_p_matches_newton_oracle():
    for spec in ALL_SPECS:
        mismatches, unclassified = _random_classify_sweep(spec, 60, seed=5)
        assert mismatches == []
        if spec.kind.name == "PRIME":
            assert unclassified == 0


def test_newton_oracle_binds_no_coeff_function():
    # the oracle's polynomial arithmetic must not be coeff's own code
    from wittram import newton

    borrowed = [
        name for name, value in vars(newton).items()
        if inspect.isfunction(value) and value.__module__ == "wittram.coeff"
    ]
    assert borrowed == []


# -- witt_reduce and classify_len2 -------------------------------------------

def test_witt_reduce_reconstruction():
    rng = sampling.make_rng(9)
    for i in range(24):
        spec = ALL_SPECS[i % 4]
        eta = WittVector(spec.p, 2, (
            sampling.random_classify_input(rng, spec),
            sampling.random_classify_input(rng, spec),
        ))
        res = witt_reduce(eta)
        recon = witt_add(res.reduced, artin_schreier_map(res.witness))
        assert recon == eta
    # the same loop runs over every component, at any length
    for m, draws in ((1, 12), (3, 4)):
        for i in range(draws):
            spec = ALL_SPECS[i % 4]
            eta = WittVector(spec.p, m, [
                sampling.random_classify_input(rng, spec) for _ in range(m)
            ])
            res = witt_reduce(eta)
            assert len(res.kinds) == len(res.constants) == m
            recon = witt_add(res.reduced, artin_schreier_map(res.witness))
            assert recon == eta


def test_classify_len2_totally_ramified():
    rep = classify_len2(W("[t^-1; 0]", F2))
    assert rep.classification is Classification.TOTALLY_RAMIFIED
    assert rep.evidence["v_x1"] == Fraction(-1, 2)
    assert rep.evidence["v_x2"] == Fraction(-3, 4)
    assert rep.evidence["ramification_index"] == 4


def test_classify_len2_unramified():
    rep = classify_len2(W("[u; u^3]", F2U))
    assert rep.classification is Classification.UNRAMIFIED
    assert rep.evidence["second_constant"] == "u^3"


def test_classify_len2_stall_is_unclassified():
    rep = classify_len2(W("[u*t^-2; t]", F2U))
    assert rep.classification is Classification.UNCLASSIFIED


def test_classify_len2_dominated_second_component():
    rep = classify_len2(W("[t^-1; t^-5]", F2))
    assert rep.classification is Classification.UNCLASSIFIED
    assert rep.evidence["v_omega2"] == -5
    # p * v2 = -10 sits just below the threshold v1 * (p^2 - p + 1) = -9
    rep = classify_len2(W("[t^-3; t^-5]", F2))
    assert rep.classification is Classification.UNCLASSIFIED


def test_classify_len2_degenerate_first():
    rep = classify_len2(W("[t^2; t^-1]", F2))
    assert rep.evidence.get("degenerate") is True
    assert rep.classification is Classification.TOTALLY_RAMIFIED


def test_classify_len2_shape():
    with pytest.raises(ShapeMismatch):
        classify_len2(W("[t^-1]", F2))


def test_classify_len2_opaque_second_component():
    # an apparent zero whose window is already spent still certifies the
    # dominance test through its valuation lower bound
    eta = WittVector(2, 2, (
        LaurentElem(F2, {-25: F2.one()}, precision=37),
        LaurentElem(F2, {}, precision=-13),
    ))
    rep = classify_len2(eta)
    assert rep.classification is Classification.TOTALLY_RAMIFIED


def test_classify_len2_opaque_second_component_too_shallow():
    eta = WittVector(2, 2, (
        LaurentElem(F2, {-25: F2.one()}, precision=37),
        LaurentElem(F2, {}, precision=-90),
    ))
    with pytest.raises(
        PrecisionExhausted,
        match="^second component is zero to a precision too small to "
        "separate it from the dominant cross term$",
    ):
        classify_len2(eta)


def test_classify_len2_opaque_first_component():
    eta = WittVector(2, 2, (
        LaurentElem(F2, {}, precision=-1),
        LaurentElem(F2, {1: F2.one()}, precision=64),
    ))
    with pytest.raises(
        PrecisionExhausted,
        match="^first component is zero to an empty precision window$",
    ):
        classify_len2(eta)


# -- newton_valuations -------------------------------------------------------

def test_newton_valuations_values():
    assert newton_valuations(W("[t^-1; 0]", F2)) == (Fraction(-1, 2), Fraction(-3, 4))
    assert newton_valuations(W("[t^-1; 0]", F3)) == (Fraction(-1, 3), Fraction(-7, 9))
    assert newton_valuations(W("[t^-3; 0]", F2)) == (Fraction(-3, 2), Fraction(-9, 4))


def test_newton_valuations_guards():
    with pytest.raises(HypothesisViolation):
        newton_valuations(W("[t; 0]", F2))
    with pytest.raises(HypothesisViolation):
        newton_valuations(W("[t^-2; 0]", F2))
    with pytest.raises(HypothesisViolation):
        newton_valuations(W("[t^-1; t^-3]", F2))
    with pytest.raises(ShapeMismatch):
        newton_valuations(W("[t^-1]", F2))
    eta = WittVector(2, 2, (
        L("t^-9", F2),
        LaurentElem(F2, {}, precision=-20),
    ))
    with pytest.raises(PrecisionExhausted):
        newton_valuations(eta)


def _random_strict_tr_vector(rng, spec):
    """First component of negative valuation coprime to p, second of
    strictly larger valuation (or zero)."""
    first = sampling.random_tr_element(rng, spec)
    v1 = first.val()
    if rng.random() < 0.3:
        second = LaurentElem(spec, {}, DEFAULT_PRECISION)
    else:
        second = sampling.random_laurent(rng, spec, vmin=v1 + 1, vmax=4)
    return WittVector(spec.p, 2, (first, second))


def test_newton_valuations_denominator_property():
    rng = sampling.make_rng(13)
    for spec in ALL_SPECS:
        for _ in range(12):
            eta = _random_strict_tr_vector(rng, spec)
            v1, v2 = newton_valuations(eta)
            assert v1.denominator == spec.p
            assert v2.denominator == spec.p ** 2


# -- extension arithmetic and norms ------------------------------------------

def test_minimal_relations_m1():
    for spec, src in ((F2, "t^-1"), (F3, "t^-1 + 2*t")):
        w = L(src, spec)
        desc = CyclicExtDesc(WittVector(spec.p, 1, (w,)))
        x1 = desc.x1()
        lhs = x1 ** spec.p - x1 - desc.scalar(w)
        assert lhs.is_apparent_zero


def test_minimal_relations_m2():
    eta = W("[t^-1; 0]", F2)
    desc = CyclicExtDesc(eta)
    x1, x2 = desc.x1(), desc.x2()
    w1, w2 = eta.components
    assert x1 * x1 == x1 + desc.scalar(w1)
    # x2^2 = x2 + w2 + w1 x1 over p = 2
    rhs = x2 + desc.scalar(w2) + desc.x1().scale(w1)
    assert x2 * x2 == rhs


def _relation_from_addition_law(p, omega1, omega2):
    """R[0..p-1] read off the Z-polynomial S_1 = X1 + Y1 + sum_i c_i
    X0^i Y0^(p-i), the second component of the addition law."""
    coeffs = [omega2] + [None] * (p - 1)
    for (e_x0, e_x1, e_y0, e_y1), c in sum_polys(p, 2)[1].terms.items():
        if e_x1 or e_y1:
            assert (e_x0, e_y0, c) == (0, 0, 1)
            continue
        assert e_x0 + e_y0 == p and coeffs[e_x0] is None
        coeffs[e_x0] = (omega1 ** e_y0).scale_int(c)
    return coeffs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_second_relation_matches_addition_law(p):
    rng = sampling.make_rng(40 + p)
    for kind in (FieldKind.PRIME, FieldKind.RATIONAL):
        spec = FieldSpec(p, kind)
        for _ in range(10):
            omega1, omega2 = (
                sampling.random_laurent(rng, spec, precision=rng.randrange(8, 101))
                for _ in range(2)
            )
            got = _second_relation_coeffs(p, omega1, omega2)
            want = _relation_from_addition_law(p, omega1, omega2)
            assert [(x.terms, x.precision) for x in got] == [
                (x.terms, x.precision) for x in want
            ]


def test_ext_mul_laws():
    rng = sampling.make_rng(21)
    eta = W("[t^-1; t]", F3)
    desc = CyclicExtDesc(eta)

    def rand_elem():
        coeffs = {}
        for key in desc.basis():
            coeffs[key] = sampling.random_laurent(rng, F3, vmin=-2, vmax=2)
        return ExtensionElem(desc, coeffs)

    for _ in range(6):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _exact(elem):
    return {key: (a.terms, a.precision) for key, a in elem.coeffs.items()}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_product_matches_work_stack_oracle(p):
    """Summing per exponent before the relations gives the oracle's
    products: exactly for scalars and powers of x1 and x2, and for
    general elements below the oracle's precision, at no less precision."""
    rng = sampling.make_rng(70 + p)
    for kind in (FieldKind.PRIME, FieldKind.RATIONAL):
        spec = FieldSpec(p, kind)
        for m in (1, 2):
            for precision in (16, 32):
                if m == 1:
                    first = sampling.random_tr_element(rng, spec, precision)
                    omega = WittVector(p, 1, (first,))
                else:
                    omega = sampling.random_tr_vector_len2(rng, spec, precision)
                desc = CyclicExtDesc(omega)

                def series():
                    return sampling.random_laurent(
                        rng, spec, vmin=-2, vmax=3, max_terms=3,
                        precision=precision, nonzero=True,
                    )

                one = desc.omega1.ring_one()
                keys = [(1, 0), (p - 1, 0)] + ([(0, 1), (0, p - 1)] if m == 2 else [])
                monomials = [desc.scalar(series())] + [
                    ExtensionElem(desc, {key: one}) for key in keys
                ]
                for a in monomials:
                    for b in monomials:
                        assert _exact(a * b) == _exact(work_stack_mul(a, b))
                for _ in range(2):
                    a, b = (
                        ExtensionElem(desc, {
                            key: series() for key in desc.basis()
                            if rng.random() < 0.7
                        })
                        for _ in range(2)
                    )
                    got, want = a * b, work_stack_mul(a, b)
                    assert got.coeffs.keys() == want.coeffs.keys()
                    for key, c in want.coeffs.items():
                        assert got.coeffs[key].agrees_with(c)
                        assert got.coeffs[key].precision >= c.precision


def test_product_sums_before_relations(monkeypatch):
    """At p = 5, m = 2 a product of two full elements makes its 625 pair
    products, then one product per reduced key and relation term: the 36
    keys with j >= 5 meet the 5 terms of R_2, and the 36 keys with i >= 5
    and j < 5 (i up to 12 in rows 0-3, up to 8 in row 4) meet omega1."""
    rng = sampling.make_rng(75)
    desc = CyclicExtDesc(sampling.random_tr_vector_len2(rng, F5, 32))
    a, b = (
        ExtensionElem(desc, {
            key: sampling.random_laurent(rng, F5, vmin=-2, vmax=3, nonzero=True)
            for key in desc.basis()
        })
        for _ in range(2)
    )
    count = 0
    series_mul = LaurentElem.__mul__

    def counting_mul(x, y):
        nonlocal count
        count += 1
        return series_mul(x, y)

    monkeypatch.setattr(LaurentElem, "__mul__", counting_mul)
    a * b
    assert count <= 625 + 36 * 5 + 36


@pytest.mark.parametrize("key", [(1,), (0, 0, 0), 1, (0.0, 0), (True, 0), (2, 0)])
def test_extension_elem_rejects_malformed_keys(key):
    desc = CyclicExtDesc(W("[t^-1]", F2))
    with pytest.raises(ShapeMismatch, match="basis exponent out of range"):
        ExtensionElem(desc, {key: L("1", F2)})


def test_degenerate_extension_rejected():
    with pytest.raises(DegenerateExtension):
        CyclicExtDesc(W("[t^2]", F2))


def test_extension_m3_unsupported():
    with pytest.raises(UnsupportedCase):
        CyclicExtDesc(W("[t^-1; 0; 0]", F2))


def test_norm_of_one_and_scalars():
    for eta, spec in ((W("[t^-1]", F2), F2), (W("[t^-1; 0]", F3), F3)):
        desc = CyclicExtDesc(eta)
        one = desc.scalar(desc.omega1.ring_one())
        assert norm_element(desc, one) == LaurentElem.one(spec)
        c = L("t^3 + 2*t^5", spec) if spec.p == 3 else L("t^3 + t^5", spec)
        assert norm_element(desc, desc.scalar(c)) == c ** desc.degree


def test_norm_x1_is_conjugate_product():
    for spec in (F2, F3, F2U, F3U):
        w = L("t^-1", spec) if spec.p == 2 else L("t^-1 + t", spec)
        desc = CyclicExtDesc(WittVector(spec.p, 1, (w,)))
        sign = (-1) ** (spec.p + 1)
        got = norm_element(desc, desc.x1())
        det = determinant_norm(desc, desc.x1())
        assert got == det
        assert got.precision >= det.precision
        assert got == w.scale_int(sign)
        assert ext_val(spec.p, got) == Fraction(w.val(), spec.p)


def test_norm_x2_valuation():
    desc = CyclicExtDesc(W("[t^-1; 0]", F2))
    n = norm_element(desc, desc.x2())
    assert n.val() == -3
    assert ext_val(4, n) == Fraction(-3, 4)


# Over F_p(u) the determinant oracle's series inverses grow large
# fractions, so those extensions and elements are few, small and fixed;
# over F_p they are drawn at random, at twice the precision.
FPU_NORM_EXTENSIONS = (
    (F2U, "[u*t^-1 + t]"), (F3U, "[u*t^-2 + t^-1]"),
    (F2U, "[t^-3; u*t^-1]"), (F3U, "[u*t^-1; t^-2]"), (F3U, "[t^-1; u]"),
)


def _norm_cases(seed, precision):
    """(desc, label, element) for x1, x2 and one general element of each
    extension, for m = 1 and 2 over both residue kinds."""
    rng = sampling.make_rng(seed)
    descs = [
        CyclicExtDesc(parse_witt(src, spec, precision))
        for spec, src in FPU_NORM_EXTENSIONS
    ]
    for spec in (F2, F3):
        for m in (1, 2):
            for _ in range(3):
                if m == 1:
                    first = sampling.random_tr_element(rng, spec, 2 * precision)
                    omega = WittVector(spec.p, 1, (first,))
                else:
                    omega = sampling.random_tr_vector_len2(rng, spec, 2 * precision)
                descs.append(CyclicExtDesc(omega))
    for desc in descs:
        yield desc, "x1", desc.x1()
        if desc.m == 2:
            yield desc, "x2", desc.x2()
        spec = desc.omega1.spec
        coeffs = {}
        for key in desc.basis()[:3]:
            if spec.kind is FieldKind.RATIONAL:
                src = "t^-1" if sum(key) % 2 else "1 + u*t"
                coeffs[key] = parse_laurent(src, spec, precision)
            else:
                coeffs[key] = sampling.random_laurent(
                    rng, spec, vmin=-1, vmax=2, max_terms=2,
                    precision=desc.omega1.precision, nonzero=True,
                )
        yield desc, "general", ExtensionElem(desc, coeffs)


def test_norm_matches_determinant_oracle():
    compared = 0
    for desc, label, elem in _norm_cases(seed=61, precision=32):
        got = norm_element(desc, elem)
        try:
            det = determinant_norm(desc, elem)
        except PrecisionExhausted:
            continue  # the elimination found no pivot; nothing to compare
        assert got == det, (desc.omega, label)
        assert got.precision >= det.precision, (desc.omega, label)
        if label != "general":
            assert got.precision == det.precision, (desc.omega, label)
        compared += 1
    assert compared >= 40


def test_norm_precision_is_honest():
    """Recomputing from inputs known to a lower precision agrees with the
    full computation below the precision the lower one claims."""
    for desc, label, elem in _norm_cases(seed=62, precision=40):
        full = norm_element(desc, elem)
        known = desc.omega1.precision
        for cut in (known // 2, 3 * known // 4):
            low_desc = CyclicExtDesc(WittVector(
                desc.p, desc.m,
                tuple(c.truncated(cut) for c in desc.omega.components),
            ))
            low_elem = ExtensionElem(
                low_desc, {k: a.truncated(cut) for k, a in elem.coeffs.items()}
            )
            low = norm_element(low_desc, low_elem)
            assert low.precision <= full.precision, (desc.omega, label, cut)
            assert low.agrees_with(full), (desc.omega, label, cut)


def test_norm_multiplicative():
    rng = sampling.make_rng(31)
    for eta, spec in ((W("[t^-1]", F2), F2), (W("[t^-1; 0]", F2), F2),
                      (W("[t^-1 + t]", F3), F3)):
        desc = CyclicExtDesc(eta)

        def rand_elem():
            while True:
                coeffs = {}
                for key in desc.basis():
                    coeffs[key] = sampling.random_laurent(rng, spec, vmin=-1, vmax=2)
                if not all(c.is_apparent_zero for c in coeffs.values()):
                    return ExtensionElem(desc, coeffs)

        for _ in range(4):
            a, b = rand_elem(), rand_elem()
            assert norm_element(desc, a * b) == norm_element(desc, a) * norm_element(desc, b)
