"""Laurent series with tracked precision windows."""

import math
import operator
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from wittram.coeff import FieldKind, FieldSpec, ResidueElem
from wittram.errors import PrecisionExhausted, SpecMismatch
from wittram.valued import (
    DEFAULT_PRECISION,
    LaurentElem,
    ext_val,
    frobenius_power,
    power_precision,
    pth_power,
    pth_root,
)

from conftest import ALL_SPECS, F2, F2U, F3, F3U, F5, L
from oracles import (
    ring_one_power,
    series_add,
    series_inverse,
    series_mul,
    series_neg,
    series_pth_power,
    series_scale_int,
    series_sub,
)

F5U = FieldSpec(5, FieldKind.RATIONAL)
F7 = FieldSpec(7)
SERIES_SPECS = ALL_SPECS + (F5,)


def test_leading_data():
    a = L("t^-2 + t + t^3", F2)
    assert a.val() == -2
    assert a.precision == DEFAULT_PRECISION
    assert str(a.leading_coeff()) == "1"
    assert a.residue_at(1) == F2.one()
    assert a.residue_at(5).is_zero


def test_zero_handling():
    z = LaurentElem.zero(F2)
    assert z.is_apparent_zero
    assert z.val_lower_bound() == DEFAULT_PRECISION
    with pytest.raises(PrecisionExhausted):
        z.val()
    # coefficients at or above the window are dropped
    a = LaurentElem(F2, {3: F2.one()}, precision=3)
    assert a.is_apparent_zero


def test_precision_rules_add_mul():
    a = LaurentElem(F2, {-1: F2.one()}, precision=10)
    b = LaurentElem(F2, {2: F2.one()}, precision=20)
    assert (a + b).precision == 10
    assert (a - b).precision == 10
    # product window: min(v_a + N_b, v_b + N_a)
    assert (a * b).precision == min(-1 + 20, 2 + 10)


def test_precision_rules_inverse():
    a = L("t^-3 + t", F2)
    inv = a.inverse()
    assert inv.precision == DEFAULT_PRECISION - 2 * (-3)
    assert (a * inv) == LaurentElem.one(F2)


def test_precision_rules_frobenius():
    a = L("t^-1 + t^2", F2)
    sq = pth_power(a)
    assert sq.precision == 2 * DEFAULT_PRECISION
    assert sq.val() == -2
    assert str(sq) == "t^-2 + t^4 + O(t^128)"
    back = pth_root(sq)
    assert back == a
    assert back.precision == DEFAULT_PRECISION


def test_pth_root_window_and_failure():
    a = L("t^2", F3)
    r = pth_root(L("t^6", F3))
    assert r == a
    assert r.precision == math.ceil(DEFAULT_PRECISION / 3)
    assert pth_root(L("t", F2)) is None
    assert pth_root(L("u*t^2", F2U)) is None


def test_frobenius_power_iterates():
    a = L("u*t^-1", F2U)
    assert frobenius_power(a, 2) == pth_power(pth_power(a))


def test_equality_below_joint_window():
    a = L("t + t^5", F2)
    b = LaurentElem(F2, {1: F2.one()}, precision=4)
    # they agree on every exponent below min(64, 4)
    assert a == b
    c = LaurentElem(F2, {1: F2.one(), 3: F2.one()}, precision=4)
    assert a != c
    # a series agrees with itself; another spec still raises
    assert all(x.agrees_with(x) for x in (a, b, c, LaurentElem.zero(F2U, 3)))
    with pytest.raises(SpecMismatch):
        a.agrees_with(L("t", F2U))


def test_equality_is_not_hashable():
    a = L("t", F2)
    with pytest.raises(TypeError):
        hash(a)


def test_inverse_of_apparent_zero():
    with pytest.raises(PrecisionExhausted):
        LaurentElem.zero(F2).inverse()


def test_negative_powers():
    a = L("t^-2 + 1", F3)
    assert a ** -2 == (a.inverse() * a.inverse())
    assert a ** 0 == LaurentElem.one(F3)


def _power_bases(spec, rng):
    """Apparent zeros; series with v < 0 and v > 0 at precisions below,
    at and above DEFAULT_PRECISION; and sparse series with valuations
    near and past -p^2 * max(|N|, DEFAULT_PRECISION), the command line's
    bound on a literal's exponents."""
    p = spec.p
    rational = spec.kind is FieldKind.RATIONAL

    def coeff(den=(1,)):
        if not rational:
            return spec.from_int(rng.randrange(1, p))
        return spec.element([rng.randrange(p), rng.randrange(1, p)], den)

    for n in (-7, 0, 40, 64, 90):
        yield LaurentElem.zero(spec, n)
    for n in (20, 63, 64, 65, 100):
        # relative precision at most 24 over F_p(u): the coefficient
        # degrees of a power grow fast
        v = max(rng.randint(-6, 6), n - 24) if rational else rng.randint(-6, 6)
        terms = {v + rng.randint(1, 12): coeff() for _ in range(3)}
        terms[v] = coeff((rng.randrange(1, p), 1))
        yield LaurentElem(spec, terms, n)
    limit = p * p * DEFAULT_PRECISION
    for v, n in ((-limit, 30), (-limit + 7, -200), (-limit - 44, 2 * limit + 88),
                 (-300, 600), (-limit // 2, 2)):
        yield LaurentElem(spec, {v: coeff(), v + (n - v) // 2: coeff()}, n)


def _power_outcome(f):
    try:
        x = f()
    except PrecisionExhausted as exc:
        return type(exc).__name__, str(exc)
    return x.terms, x.precision


@pytest.mark.parametrize("spec", (F2, F2U, F3, F3U, F5, F5U), ids=repr)
def test_power_matches_square_and_multiply_from_ring_one(spec):
    # The terms and the O(t^N) are those of the square-and-multiply loop
    # started at ring_one(), however deep the valuation; only a negative
    # power of an apparent zero raises, as its inverse does.  A negative
    # power is the inverse of the positive one, cut to the precision the
    # loop reports; the lemma 5.3 split takes powers of b down to about -2p.
    p = spec.p
    rng = random.Random(p * 10 + (spec.kind is FieldKind.RATIONAL))
    for x in _power_bases(spec, rng):
        exponents = range(-3, 70)
        if spec.kind is FieldKind.RATIONAL and not x.is_apparent_zero:
            exponents = sorted({-3, -1, 0, 1, 2, 3, p, p ** 2}
                               | set(rng.sample(exponents, 6)))
        for e in sorted({*exponents, -p - 1, -2 * p, -p * p, -12}):
            got = _power_outcome(lambda: x ** e)
            want = _power_outcome(lambda: ring_one_power(x, e))
            assert got == want, (str(x), e)
            assert isinstance(got[0], dict) or x.is_apparent_zero and e < 0


def test_power_precision_is_what_square_and_multiply_reports():
    # apparent zeros, and two-term series at every valuation from -4 to 4
    # that the precision leaves room for; a negative power of an apparent
    # zero raises instead
    cases = 0
    for spec in (F2, F2U, F3, F3U, F5, F5U):
        p = spec.p
        one = spec.one()
        for n in (-3, 0, 1, 20, 63, 64, 65, 100):
            bases = [LaurentElem.zero(spec, n)] + [
                LaurentElem(spec, {v: one, v + max(1, (n - v) // 2): one}, n)
                for v in range(-4, min(5, n))
            ]
            for x in bases:
                for e in (*range(-5, 0), *range(1, 2 * p + 2)):
                    if e < 0 and x.is_apparent_zero:
                        continue
                    want = ring_one_power(x, e).precision
                    assert power_precision(x.val_lower_bound(), n, e) == want, (
                        str(x), e)
                    cases += 1
    assert cases == 4548


def test_power_precision_is_e_times_v_plus_one_relative_precision():
    # the group law and _power_table read x ** e's precision as e*v + r,
    # r = power_precision(v, n, 1) - v, for every e >= 1; apparent zeros
    # (v = n) and windows at or below t^0 included
    for n in (-40, -3, 0, 1, 20, 63, 64, 65, 100, 1024):
        for v in sorted({n, n - 1, n - 64, n - 65, -8, -1, 0, 3}):
            if v > n:
                continue
            r = power_precision(v, n, 1) - v
            assert r >= 0
            for e in range(2, 31):
                assert power_precision(v, n, e) - e * v == r, (v, n, e)


def test_p_power_exponents_multiply_no_series(monkeypatch):
    products = []
    mul = LaurentElem.__mul__
    monkeypatch.setattr(
        LaurentElem, "__mul__", lambda a, b: products.append(1) or mul(a, b)
    )
    for spec in (F2, F3U, F5):
        x = L("t^-1 + 1 + t^2", spec)
        for k in range(4):
            assert (x ** spec.p ** k).val() == -(spec.p ** k)
    assert not products


def test_negative_power_inverts_one_sparse_power(monkeypatch):
    # x ** -6 inverts x^6 once; x.inverse() ** 6, whose terms and
    # precision it keeps, multiplies dense series
    sizes = []
    mul = LaurentElem.__mul__
    monkeypatch.setattr(
        LaurentElem, "__mul__",
        lambda a, b: sizes.append(min(len(a.terms), len(b.terms))) or mul(a, b),
    )
    x = L("u*t^-1 + (u + 1)*t", F3U)
    assert (x ** -6).val() == 6
    assert max(sizes) <= 7


def _kernel_operands(spec, rng):
    """Series over F_p for the integer kernel: apparent zeros; sparse and
    dense series at precisions below, at and above DEFAULT_PRECISION;
    terms at -p^2 * DEFAULT_PRECISION; deep series whose sums, products
    or p-th powers reach past -p^2 * max(|N|, DEFAULT_PRECISION), with
    their terms out of exponent order; and series over an equal spec
    that is a distinct object."""
    p = spec.p
    twin = FieldSpec(p)

    def series(exps, n, over=spec):
        return LaurentElem(
            spec, {e: ResidueElem(over, (rng.randrange(1, p),), (1,)) for e in exps}, n
        )

    for n in (-5, 0, 30, 64, 100):
        yield LaurentElem.zero(spec, n)
    for n in (20, 63, 64, 65, 130):
        v = rng.randint(-8, 8)
        yield series(rng.sample(range(v, v + 16), 3), n)
        if n in (20, 64, 130):
            yield series(range(v, min(n, v + 90)), n)
    limit = p * p * DEFAULT_PRECISION
    yield series((-limit + 1, -limit, -limit + 9), DEFAULT_PRECISION)
    for deep in (40 * p * p, 70 * p * p):
        yield series((-deep + 5, -deep, -deep + 2, 3), deep)
    shallow = 64 * p + 5
    yield series((-shallow + 4, -shallow, 0), 1)
    yield series(rng.sample(range(-4, 12), 4), 64, over=twin)
    yield LaurentElem(twin, {-1: ResidueElem(twin, (1,), (1,)), 2: spec.one()}, 40)


def _ordered_outcome(f):
    """Like _power_outcome, but the terms in insertion order, and the
    errors of mismatched operands too."""
    try:
        x = f()
    except (PrecisionExhausted, SpecMismatch, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return list(x.terms.items()), x.precision


def _assert_canonical(x, spec):
    for c in x.terms.values():
        assert c.spec == spec and c.den == (1,)
        assert len(c.num) == 1 and 0 < c.num[0] < spec.p


@pytest.mark.parametrize("spec", (F2, F3, F5, F7), ids=repr)
def test_fp_kernel_matches_coefficient_loops(spec):
    # Terms in the same order, precision and the TypeError/SpecMismatch
    # precedence of the ResidueElem loops in oracles.py, deep operands
    # included; every kernel coefficient is a canonical (c,)/(1,).
    rng = random.Random(spec.p)
    xs = list(_kernel_operands(spec, rng))
    others = [3, "t", L("t", FieldSpec(spec.p, FieldKind.RATIONAL)),
              L("t^-1", F7 if spec.p != 7 else F2)]
    unary = [
        (lambda x: -x, series_neg),
        (lambda x: x.inverse(), series_inverse),
        (pth_power, series_pth_power),
    ] + [
        (lambda x, n=n: x.truncated(min(n, x.precision)),
         lambda x, n=n: LaurentElem(x.spec, x.terms, min(n, x.precision)))
        for n in (0, 9)
    ] + [
        (lambda x, c=c: x.scale_int(c), lambda x, c=c: series_scale_int(x, c))
        for c in (0, 1, 2, spec.p - 1, spec.p, spec.p + 1, -spec.p, 1 - spec.p,
                  -1, 3 * spec.p + 2, 10 ** 20 + 1)
    ]
    binary = [
        (operator.add, series_add),
        (operator.sub, series_sub),
        (operator.mul, series_mul),
    ]

    def check(op, ref, *args):
        got = _ordered_outcome(lambda: op(*args))
        assert got == _ordered_outcome(lambda: ref(*args)), [str(a) for a in args]
        if isinstance(got[0], list):
            _assert_canonical(op(*args), spec)

    for x in xs:
        for op, ref in unary:
            check(op, ref, x)
        for y in xs:
            for op, ref in binary:
                check(op, ref, x, y)
        for y in others:
            check(operator.add, series_add, x, y)
            check(operator.mul, series_mul, x, y)


def test_fp_series_arithmetic_makes_no_residue_sums_or_products(monkeypatch):
    xs = [L("t^-1 + 2 + t^2", spec) for spec in (F2, F3, F5)]
    ys = [L("t^-2 + 3*t + t^3", spec) for spec in (F2, F3, F5)]
    calls = []
    for name in ("__mul__", "__add__"):
        method = getattr(ResidueElem, name)
        monkeypatch.setattr(
            ResidueElem, name, lambda a, b, f=method: calls.append(1) or f(a, b)
        )
    for x, y in zip(xs, ys):
        x * y, x + y, x - y, x.scale_int(2), x.inverse(), (x * y).inverse()
    assert not calls


def test_from_residue():
    c = F3U.u() + F3U.one()
    a = LaurentElem.from_residue(c)
    assert a.val() == 0
    assert a.residue_at(0) == c
    assert a.precision == DEFAULT_PRECISION


def test_specs_combine_by_value():
    twin = FieldSpec(3)  # equal to F3 but a distinct object
    a = L("t^-1 + 2*t", F3)
    b = L("2*t^-1 + t^2", twin)
    assert a + b == L("2*t + t^2", F3)
    assert a * b == L("2*t^-2 + 1 + t + 2*t^3", F3)
    assert LaurentElem(F3, {0: ResidueElem(twin, (1,), (1,))}) == LaurentElem.one(F3)
    for other in (L("t", F3U), L("t", F2)):
        for op in (lambda: a + other, lambda: a * other):
            with pytest.raises(SpecMismatch):
                op()
    with pytest.raises(SpecMismatch):
        LaurentElem(F3, {0: F3U.one()})


def test_truncation_keeps_deep_terms():
    # no exponent bound follows the precision down
    one = F2.one()
    x = LaurentElem(F2, {-300: one, -299: one}, 600).truncated(0)
    assert (x.terms, x.precision) == ({-300: one, -299: one}, 0)


def test_ext_val():
    from fractions import Fraction

    assert ext_val(4, L("t^-3", F2)) == Fraction(-3, 4)
    assert ext_val(2, L("t^6", F2)) == 3


def _laurent(spec, pairs, precision):
    terms = {}
    for e, c in pairs:
        terms[e] = terms.get(e, spec.zero()) + spec.from_int(c)
    return LaurentElem(spec, terms, precision)


pair_lists = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(1, 4)), min_size=0, max_size=4
)


@given(xs=pair_lists, ys=pair_lists, zs=pair_lists, spec=st.sampled_from(SERIES_SPECS))
def test_ring_laws(xs, ys, zs, spec):
    a = _laurent(spec, xs, DEFAULT_PRECISION)
    b = _laurent(spec, ys, DEFAULT_PRECISION)
    c = _laurent(spec, zs, DEFAULT_PRECISION)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentElem.zero(spec)
    # integer scalings, those by 0 and 1 mod p included, are the
    # coefficient loop's term for term and in precision
    for k in (0, 1, 2, spec.p, spec.p + 1, -spec.p, 1 - spec.p):
        got, want = a.scale_int(k), series_scale_int(a, k)
        assert (list(got.terms.items()), got.precision) == (
            list(want.terms.items()), want.precision)


@given(xs=pair_lists, ys=pair_lists, spec=st.sampled_from(SERIES_SPECS))
def test_frobenius_is_additive(xs, ys, spec):
    a = _laurent(spec, xs, DEFAULT_PRECISION)
    b = _laurent(spec, ys, DEFAULT_PRECISION)
    assert pth_power(a + b) == pth_power(a) + pth_power(b)


@given(xs=pair_lists, ys=pair_lists, spec=st.sampled_from(SERIES_SPECS))
def test_val_is_additive_on_products(xs, ys, spec):
    a = _laurent(spec, xs, DEFAULT_PRECISION)
    b = _laurent(spec, ys, DEFAULT_PRECISION)
    if a.is_apparent_zero or b.is_apparent_zero:
        return
    assert (a * b).val() == a.val() + b.val()


@given(xs=pair_lists, spec=st.sampled_from(SERIES_SPECS))
def test_inverse_roundtrip(xs, spec):
    a = _laurent(spec, xs, DEFAULT_PRECISION)
    if a.is_apparent_zero:
        return
    assert a.inverse().inverse() == a
    assert a * a.inverse() == LaurentElem.one(spec)
