"""Symbol algebra rewrites: certified traces, normalization, split tests."""

import dataclasses
import itertools

import pytest

from wittram import brauer, sampling
from wittram.brauer import (
    SPLIT,
    BrauerSymbol,
    TraceStep,
    absorb_split,
    as_coboundary_split,
    frob_twist,
    is_split_quick,
    lemma53_split,
    lemma54_rewrite,
    normalize_symbol,
    power_adjust_b,
    pth_power_b_split,
    same_b_add,
    same_omega_mul,
    strip_zero,
)
from wittram.coeff import FieldKind, FieldSpec
from wittram.errors import (
    HypothesisViolation,
    NoRootError,
    PrecisionExhausted,
    RuleViolation,
    ShapeMismatch,
    SpecMismatch,
)
from wittram.grammar import parse_symbol
from wittram.valued import LaurentElem, frobenius_power, pth_root
from wittram.witt import WittVector, artin_schreier_map, witt_add

from conftest import ALL_SPECS, F2, F2U, F3, F3U, F5, L, W


def test_symbol_shape_guards():
    with pytest.raises(ShapeMismatch):
        BrauerSymbol(W("[t]", F2), LaurentElem.zero(F2))
    with pytest.raises(SpecMismatch):
        BrauerSymbol(W("[t]", F2), L("t", F3))


# -- primitive rules ----------------------------------------------------------

def test_same_b_add():
    s1 = BrauerSymbol(W("[t^-1; t]", F2), L("t", F2))
    s2 = BrauerSymbol(W("[t; 0]", F2), L("t", F2))
    out, step = same_b_add(s1, s2)
    step.validate()
    assert out.omega == witt_add(s1.omega, s2.omega)
    assert out.b == s1.b
    with pytest.raises(HypothesisViolation):
        same_b_add(s1, BrauerSymbol(s2.omega, L("t^2", F2)))


def test_same_omega_mul():
    s1 = BrauerSymbol(W("[t^-1; t]", F2), L("t", F2))
    s2 = BrauerSymbol(W("[t^-1; t]", F2), L("t^2 + t^3", F2))
    out, step = same_omega_mul(s1, s2)
    step.validate()
    assert out.b == s1.b * s2.b
    assert out.omega == s1.omega


def test_strip_zero():
    z = BrauerSymbol(W("[0; t^-1]", F2), L("t", F2))
    out, step = strip_zero(z)
    step.validate()
    assert out.m == 1
    assert out.omega.components[0] == L("t^-1", F2)
    with pytest.raises(HypothesisViolation):
        strip_zero(BrauerSymbol(W("[t; t^-1]", F2), L("t", F2)))


def test_frob_twist_rule():
    s = BrauerSymbol(W("[t^-1; t]", F2), L("t", F2))
    out, step = frob_twist(s)
    step.validate()
    assert out.omega.components[0] == L("t^-2", F2)
    assert out.b == s.b


def test_power_adjust_b():
    s = BrauerSymbol(W("[t^-1; t]", F2), L("t", F2))
    out, step = power_adjust_b(s, L("t^-1", F2))
    step.validate()
    # v(b) shifts by p^m * v(gamma), preserving v(b) mod p^m
    assert out.b.val() == s.b.val() - 4
    assert out.b.val() % 4 == s.b.val() % 4


def test_absorb_split():
    tri = BrauerSymbol(W("[t; 0]", F2), L("t", F2))
    step = absorb_split(tri)
    step.validate()
    assert step.after is SPLIT
    with pytest.raises(HypothesisViolation):
        absorb_split(BrauerSymbol(W("[t^2; 0]", F2), L("t", F2)))


def test_tampered_step_rejected():
    s1 = BrauerSymbol(W("[t^-1; t]", F2), L("t", F2))
    s2 = BrauerSymbol(W("[t; 0]", F2), L("t", F2))
    good, _ = same_b_add(s1, s2)
    bogus = TraceStep("same_b", (s1, s2), BrauerSymbol(good.omega, L("t^5", F2)))
    with pytest.raises(RuleViolation):
        bogus.validate()
    with pytest.raises(RuleViolation):
        TraceStep("nonsense", (s1,), s1).validate()


def _valid_steps():
    # one valid step per rule, over F_2
    s = BrauerSymbol(W("[t^-1; t]", F2), L("t", F2))
    g = W("[t^-1]", F2)
    return {
        "same_b": same_b_add(s, BrauerSymbol(W("[t; 0]", F2), L("t", F2)))[1],
        "same_omega": same_omega_mul(s, BrauerSymbol(s.omega, L("t^3", F2)))[1],
        "strip_zero": strip_zero(BrauerSymbol(W("[0; t^-1]", F2), s.b))[1],
        "frob_twist": frob_twist(s)[1],
        "power_adjust_b": power_adjust_b(s, L("t^-1", F2))[1],
        "absorb": absorb_split(BrauerSymbol(W("[t; 0]", F2), s.b)),
        "pth_power_b": pth_power_b_split(
            BrauerSymbol(W("[t^-1]", F2), L("t^2", F2)), L("t", F2)
        ),
        "as_coboundary": as_coboundary_split(
            BrauerSymbol(artin_schreier_map(g), s.b), g
        ),
    }


# a parameter of the right type that the rule does not accept
_WRONG_PARAMS = {
    "frob_twist": {"r": -1},
    "power_adjust_b": {"gamma": L("t^-2", F2)},
    "pth_power_b": {"gamma": L("t^3", F2)},
    "as_coboundary": {"g": W("[t]", F2)},
}


def _tampered(step):
    replace = dataclasses.replace
    if step.after is SPLIT:
        yield replace(step, after=step.before[0])
    else:
        yield replace(step, after=SPLIT)
        after = step.after
        yield replace(step, after=BrauerSymbol(after.omega, after.b * L("t", F2)))
    yield replace(step, before=step.before + step.before[:1])
    for name in step.params:
        missing = {k: v for k, v in step.params.items() if k != name}
        yield replace(step, params=missing)
        yield replace(step, params={**step.params, name: "t"})
    if not step.params:
        yield replace(step, params={"r": 1})
    if step.rule in _WRONG_PARAMS:
        yield replace(step, params=_WRONG_PARAMS[step.rule])


@pytest.mark.parametrize("rule", sorted(brauer._RULES))
def test_replay_rejects_tampered_steps(rule):
    # a rule with no valid step in _valid_steps fails here with KeyError
    step = _valid_steps()[rule]
    assert step.rule == rule
    step.validate()
    for bad in _tampered(step):
        with pytest.raises(RuleViolation):
            bad.validate()


def test_rule_table_matches_module_docstring():
    # every rule brauer applies and replays is documented, and only those
    block = brauer.__doc__.split("\nRules:\n", 1)[1].splitlines()
    lines = list(itertools.takewhile(str.strip, block))
    assert all(line.startswith("  ") for line in lines)
    assert sorted(line.split()[0] for line in lines) == sorted(brauer._RULES)


# -- lemma 5.3 traces ---------------------------------------------------------

def test_lemma53_step_counts():
    out = lemma53_split(1, 1, L("t", F2), L("t", F2))
    out.trace.validate()
    assert out.symbol is SPLIT
    assert out.trace.concludes_split
    assert len(out.trace) == 4

    out = lemma53_split(2, 1, L("t", F3), L("t", F3))
    out.trace.validate()
    assert out.trace.concludes_split
    assert len(out.trace) == 6


def test_lemma53_zero_scalar_collapses():
    # r = 0 mod p makes the symbol component vanish outright
    out = lemma53_split(2, 1, L("t", F2), L("t", F2))
    assert out.symbol is SPLIT
    assert len(out.trace) == 1
    assert out.trace.steps[0].rule == "as_coboundary"
    out = lemma53_split(1, 1, L("0", F3), L("t", F3))
    assert len(out.trace) == 1


def test_lemma53_exponent_guard():
    with pytest.raises(HypothesisViolation):
        lemma53_split(1, 2, L("t", F2), L("t", F2))
    with pytest.raises(HypothesisViolation):
        lemma53_split(1, 0, L("t", F3), L("t", F3))


def test_lemma53_negative_exponent():
    out = lemma53_split(1, -1, L("t", F3), L("t^2", F3))
    out.trace.validate()
    assert out.trace.concludes_split


def test_lemma53_random_traces_self_certify():
    # shallow windows keep the negative-exponent cases quick
    rng = sampling.make_rng(17)
    n = 0
    while n < 20:
        spec = ALL_SPECS[n % 4]
        p = spec.p
        i = rng.randrange(-4, 7)
        if i % p == 0:
            continue
        r = rng.randrange(0, p)
        c = sampling.random_laurent(rng, spec, vmin=-2, vmax=2, precision=32)
        if i < 0 and c.is_apparent_zero:
            continue
        b = sampling.random_symbol_b(rng, spec, precision=32)
        out = lemma53_split(r, i, c, b)
        assert out.trace.validate()
        assert out.trace.concludes_split
        n += 1


def _same_series(got, want):
    # LaurentElem equality ignores precision, so compare it on its own
    assert got.terms == want.terms
    assert got.precision == want.precision


def _check_lemma53_formulas(r, i, c, b):
    # a2, the link factor X and the pth_power_b witness gamma must be the
    # series the lemma 5.3 formulas give through `**`, precision included
    p = b.spec.p
    steps = lemma53_split(r, i, c, b).trace.steps
    cp = frobenius_power(c, 1)
    a2 = ((cp ** i) * (b ** (p - i))).scale_int(r)
    if a2.is_apparent_zero:
        assert [s.rule for s in steps] == ["as_coboundary"]
        _same_series(steps[0].before[0].omega.components[1], a2)
        return
    i0 = i % p
    eta = ((p - i0) * pow(r, -1, p)) % p
    k_prime = (i - i0) // p
    x = ((cp ** i).inverse() * (b ** (p * k_prime))).scale_int(eta)
    gamma = (c ** i).inverse().scale_int(eta) * (b ** k_prime)
    strip, link, last = steps[0], steps[-3], steps[-1]
    assert (strip.rule, link.rule, last.rule) == (
        "strip_zero", "same_omega", "pth_power_b"
    )
    _same_series(strip.before[0].omega.components[1], a2)
    _same_series(link.before[1].b, x)
    _same_series(last.params["gamma"], gamma)


@pytest.mark.parametrize("spec, r, i, c, b", [
    # b known further than c: here `**` reports less precision than the
    # power determines, and the split must report the same
    (F2, 1, 1, "t^-1 + O(t^40)", "t + O(t^200)"),
    (F2, 1, 1, "t^-1", "t + O(t^200)"),
    (F2, 1, -1, "t^-1", "t + O(t^200)"),
    (F2, 1, -1, "t + O(t^100)", "t + O(t^200)"),
    (F3, 1, -2, "2*t^-2", "t^-4 + 2 + 2*t"),
])
def test_lemma53_matches_direct_formulas_at_precision_edges(spec, r, i, c, b):
    _check_lemma53_formulas(r, i, L(c, spec), L(b, spec))


def test_lemma53_matches_direct_formulas():
    # Over F_p the windows reach 100, with b often known further than c.
    # Over F_p(u) they stay shallow to keep the direct formulas quick.
    rng = sampling.make_rng(5353)
    n = 0
    while n < 32:
        spec = ALL_SPECS[n % 4]
        p = spec.p
        if spec.kind is FieldKind.PRIME:
            c_windows, b_windows = (12, 40, 64, 100), (24, 64, 100)
        else:
            c_windows, b_windows = (6, 12), (6, 24, 64)
        i = rng.randrange(-4, 6)
        if i % p == 0:
            continue
        r = rng.randrange(0, p)
        c = sampling.random_laurent(
            rng, spec, vmin=-3, vmax=3, precision=rng.choice(c_windows)
        )
        if i < 0 and c.is_apparent_zero:
            continue
        b = sampling.random_symbol_b(
            rng, spec, precision=rng.choice(b_windows)
        )
        _check_lemma53_formulas(r, i, c, b)
        n += 1


# -- lemma 5.4 rewrite --------------------------------------------------------

def test_lemma54_golden():
    sym = BrauerSymbol(W("[t^2; t^4]", F2), L("t^-1", F2))
    out = lemma54_rewrite(sym)
    out.trace.validate()
    rules = [s.rule for s in out.trace.steps]
    assert rules == [
        "absorb", "same_b", "strip_zero", "same_omega",
        "absorb", "pth_power_b", "same_b",
    ]
    assert out.symbol.omega.components[0] == L("t^-1 + t^2", F2)
    assert out.symbol.omega.components[1] == L("t^4", F2)
    assert out.symbol.b == L("t^-1", F2)


def test_lemma54_requires_pth_power_first_component():
    with pytest.raises(NoRootError):
        lemma54_rewrite(BrauerSymbol(W("[u*t; 0]", F2U), L("t^-1", F2U)))


def test_lemma54_length_guard():
    with pytest.raises(HypothesisViolation):
        lemma54_rewrite(BrauerSymbol(W("[t^2]", F2), L("t^-1", F2)))


def test_lemma54_random_first_component_carries_vb():
    rng = sampling.make_rng(23)
    for k in range(12):
        spec = ALL_SPECS[k % 4]
        p = spec.p
        c = sampling.random_laurent(rng, spec, vmin=-2, vmax=2)
        w2 = sampling.random_laurent(rng, spec)
        from wittram.valued import pth_power

        omega = WittVector(p, 2, (pth_power(c), w2))
        b = sampling.random_tr_element(rng, spec)
        if b.val() >= p * c.val_lower_bound():
            continue
        out = lemma54_rewrite(BrauerSymbol(omega, b))
        out.trace.validate()
        assert out.symbol.omega.components[0].val() == b.val()
        assert out.symbol.b == b


# -- normalize_symbol ---------------------------------------------------------

def test_normalize_twists_when_needed():
    n = normalize_symbol(BrauerSymbol(W("[t^-1; 1]", F2), L("t", F2)))
    assert [s.rule for s in n.trace.steps] == ["frob_twist", "power_adjust_b"]
    assert n.symbol.omega.components[0] == L("t^-2", F2)
    assert n.symbol.omega.components[1] == L("1", F2)
    assert n.symbol.b.val() == -3
    n.trace.validate()


def test_normalize_skips_twist_when_roots_exist():
    n = normalize_symbol(BrauerSymbol(W("[t^-9]", F3), L("t", F3)))
    assert [s.rule for s in n.trace.steps] == ["power_adjust_b"]
    assert n.symbol.b.val() == -11


def test_normalize_fixed_point():
    sym = BrauerSymbol(W("[t^2; t^4]", F2), L("t^-3", F2))
    n = normalize_symbol(sym)
    assert n.trace.steps == ()
    assert n.symbol == sym


def test_normalize_postconditions_random():
    rng = sampling.make_rng(29)
    for k in range(16):
        spec = ALL_SPECS[k % 4]
        m = 1 + (k % 2)
        omega = WittVector(spec.p, m, tuple(
            sampling.random_laurent(rng, spec) for _ in range(m)))
        b = sampling.random_symbol_b(rng, spec)
        n = normalize_symbol(BrauerSymbol(omega, b))
        n.trace.validate()
        pm = spec.p ** m
        assert n.symbol.b.val() % pm == b.val() % pm
        bound = min([0] + [c.val() for c in n.symbol.omega.components
                           if not c.is_apparent_zero])
        assert n.symbol.b.val() < bound
        for c in n.symbol.omega.components:
            assert c.is_apparent_zero or pth_root(c) is not None


# -- is_split_quick -----------------------------------------------------------

def test_split_quick_coboundary():
    rng = sampling.make_rng(37)
    for k in range(12):
        spec = ALL_SPECS[k % 4]
        m = 1 + (k % 2)
        g = WittVector(spec.p, m, tuple(
            sampling.random_laurent(rng, spec, vmin=-3, vmax=3) for _ in range(m)))
        sym = BrauerSymbol(artin_schreier_map(g), sampling.random_symbol_b(rng, spec))
        trace = is_split_quick(sym)
        assert trace is not None
        trace.validate()
        assert trace.concludes_split


def test_split_quick_pth_power_b():
    sym = BrauerSymbol(W("[u*t^-1]", F2U), L("t^4", F2U))
    trace = is_split_quick(sym)
    assert trace is not None and trace.concludes_split
    trace.validate()


def test_split_quick_inverts_each_power_of_b_once(monkeypatch):
    # [4 c^20 b, b) at p = 5 has the shape F(d) * b^(p-i), d = 4 c^4,
    # first at i = 4, so the search reaches its last exponent; it
    # divides omega by each b^(p-i) once
    p = 5
    b, c = L("t^-1 + t", F5), L("1 + t", F5)
    split = lemma53_split(p - 1, p - 1, c, b).trace.steps
    sym = split[0].after
    powers = [b ** k for k in range(1, p)]
    inverted = []
    inverse = LaurentElem.inverse
    monkeypatch.setattr(
        LaurentElem, "inverse", lambda x: inverted.append(x) or inverse(x)
    )
    trace = is_split_quick(sym)
    monkeypatch.undo()
    assert trace.steps == split[1:]
    trace.validate()
    quotients = [
        x for x in inverted
        if any(x.terms == y.terms and x.precision == y.precision for y in powers)
    ]
    assert len(quotients) <= p - 1


def test_split_quick_splits_d_that_is_no_ith_power():
    # [F(d) * b, b) at p = 3 and i = 2 with d = u*t^-1, which is not a
    # square: lemma 5.3 splits it through d alone
    sym = BrauerSymbol(W("[u^3*t^-4]", F3U), L("t^-1", F3U))
    trace = is_split_quick(sym)
    assert [s.rule for s in trace.steps] == [
        "same_omega", "absorb", "pth_power_b"
    ]
    trace.validate()


def test_split_quick_strips_zero_first_component():
    # length 2: the vector reduces to itself, and [t^-1, t) after the
    # strip has lemma 5.3's shape with d = t^-1 and i = 1
    sym = BrauerSymbol(W("[0; t^-1]", F2), L("t", F2))
    trace = is_split_quick(sym)
    assert [s.rule for s in trace.steps] == [
        "strip_zero", "same_omega", "absorb", "pth_power_b"
    ]
    trace.validate()


def test_split_quick_certifies_the_symbol_it_is_given():
    # omega is F(d) * b^(p-i) at p = 5 and i = 4, for d = 2*t^-8 + 2*t^-6
    # + 2*t^-4 + 2*t^-2 and b known to t^64.  An n-th root that loses
    # precision can rebuild it as a zero known only below every term of
    # omega, which equality at the shared precision does not see; the
    # trace must split omega itself
    omega = W("[3*t^-41 + 2*t^-38 + 3*t^-37 + 3*t^-31 + 2*t^-28 + 3*t^-27"
              " + 3*t^-21 + 2*t^-18 + 3*t^-17 + 3*t^-11 + 2*t^-8 + 3*t^-7"
              " + O(t^24)]", F5)
    sym = BrauerSymbol(omega, L("4*t^-1 + t^2 + 4*t^3", F5))
    trace = is_split_quick(sym)
    assert [s.rule for s in trace.steps] == [
        "same_omega", "absorb", "pth_power_b"
    ]
    # at i = 4 the link step's product is [omega, b) itself
    link = trace.steps[0].after
    assert link.omega.components[0].terms == omega.components[0].terms
    trace.validate()


@pytest.mark.parametrize("text, spec", [
    # the same shape with omega known only to t^-8: d, and so the
    # pth_power_b step's b, is known too little past its leading term
    ("[[3*t^-41 + 2*t^-38 + 3*t^-37 + 3*t^-31 + 2*t^-28 + 3*t^-27"
     " + 3*t^-21 + 2*t^-18 + 3*t^-17 + 3*t^-11 + O(t^-8)];"
     " 4*t^-1 + t^2 + 4*t^3 + O(t^32))", F5),
    # the last symbol is [[t^-2 + O(t^0)]; t^8 + O(t^10)), window 2 of 3
    ("[[t^-2 + (u^3+u^2+1)*t^6 + O(t^64)]; t^6 + O(t^8))", F2U),
    ("[[t^-6 + u*t + (u^2+u)*t^5 + O(t^8)];"
     " (u^6+u^4+u^2)*t^4 + (u^2+1)*t^6 + O(t^8))", F2U),
])
def test_split_quick_lemma53_needs_b_past_the_conductor(text, spec):
    # lemma 5.3's trace ends in a pth_power_b step, which the search
    # takes only where b's window passes the same rule
    assert is_split_quick(parse_symbol(text, spec)) is None


def test_split_quick_certifies_lemma53_shapes():
    # [F(d) * b^(p-i), b) for random d, whatever i-th root d has
    rng = sampling.make_rng(3)
    for k in range(24):
        spec = (F3, F3U, F5, FieldSpec(5, FieldKind.RATIONAL))[k % 4]
        p = spec.p
        i = rng.randrange(1, p)
        d = sampling.random_laurent(
            rng, spec, vmin=-3, vmax=3, max_terms=2, nonzero=True
        )
        b = sampling.random_symbol_b(rng, spec)
        a = frobenius_power(d, 1) * b ** (p - i)
        trace = is_split_quick(BrauerSymbol(WittVector(p, 1, (a,)), b))
        assert trace is not None
        trace.validate()
        assert trace.concludes_split


def test_split_quick_needs_zeros_known_to_t():
    # a zero known only below t^1 completes to constants and poles:
    # [O(t^-3)] completes to [1], and [1, t) does not split
    with pytest.raises(PrecisionExhausted):
        is_split_quick(BrauerSymbol(W("[O(t^-3)]", F2), L("t", F2)))
    assert is_split_quick(
        BrauerSymbol(W("[0 + O(t^0); 0 + O(t^-2)]", F2), L("t", F2))
    ) is None
    trace = is_split_quick(BrauerSymbol(W("[O(t^1)]", F2), L("t", F2)))
    assert [s.rule for s in trace.steps] == ["as_coboundary"]
    trace.validate()


@pytest.mark.parametrize("b, certified", [
    ("t^2 + O(t^5)", False),
    ("t^2 + O(t^7)", False),
    ("t^2 + O(t^8)", True),
])
def test_split_quick_pth_power_b_needs_b_past_the_conductor(b, certified):
    # b = t^2 completes to t^2 + t^7, whose symbol with t^-5 has residue
    # Res(t^-5 * dlog(1 + t^5)) = 1 and does not split; b must be known
    # to 1 + 5 places past its leading term
    sym = BrauerSymbol(W("[t^-5]", F2), L(b, F2))
    trace = is_split_quick(sym)
    if not certified:
        assert trace is None
        return
    assert [s.rule for s in trace.steps] == ["pth_power_b"]
    trace.validate()


def test_split_quick_declines_division_case():
    # unramified slot with uniformizer b: the division-algebra pattern
    sym = BrauerSymbol(W("[u]", F2U), L("t", F2U))
    assert is_split_quick(sym) is None
