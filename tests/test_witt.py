"""Truncated Witt vectors: universal polynomials and the group law."""

import random
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from wittram import witt
from wittram.coeff import FieldKind, FieldSpec, ResidueElem
from wittram.errors import LimitExceeded, ShapeMismatch
from wittram.valued import DEFAULT_PRECISION, LaurentElem, mul_ints, power_precision
from wittram.witt import (
    IntPoly,
    WittVector,
    artin_schreier_map,
    frobenius_twist,
    ghost_polys,
    lemma54_closed_form,
    neg_polys,
    shift_in,
    sum_polys,
    witt_add,
    witt_neg,
    witt_sub,
    _power_table,
)

from conftest import ALL_SPECS, F2, F2U, F3, F3U, L, W


def _ghost_identity_holds(p, m):
    """w_n(S_0..S_n) = w_n(X) + w_n(Y) as exact integer polynomials."""
    ghosts = ghost_polys(p, m)
    sums = sum_polys(p, m)
    ok = True
    for n in range(m):
        w = ghosts[n]
        lhs = w.evaluate(sums)
        x_side = w.map_vars(list(range(m)), 2 * m)
        y_side = w.map_vars([i + m for i in range(m)], 2 * m)
        ok = ok and lhs == x_side + y_side
    return ok


def test_ghost_identities():
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            assert _ghost_identity_holds(p, m), (p, m)


def test_ghost_poly_shapes():
    ghosts = ghost_polys(3, 3)
    # w_0 = X_0, and w_n has leading term X_0^(p^n)
    assert ghosts[0] == IntPoly.variable(3, 0)
    w2 = ghosts[2]
    assert w2.terms[(9, 0, 0)] == 1
    assert w2.terms[(0, 3, 0)] == 3
    assert w2.terms[(0, 0, 1)] == 9


def test_neg_polys_char2():
    # in W_2 over p=2 negation is not the identity map
    negs = neg_polys(2, 2)
    a = W("[t; 0]", F2)
    n = witt_neg(a)
    assert witt_add(a, n) == WittVector(2, 2, (L("0", F2), L("0", F2)))
    assert len(negs) == 2


def test_caps():
    with pytest.raises(LimitExceeded):
        ghost_polys(7, 2)
    with pytest.raises(LimitExceeded):
        ghost_polys(2, 5)
    with pytest.raises(LimitExceeded):
        frobenius_twist(W("[t]", F2), -1)


def test_component_count_checked():
    with pytest.raises(ShapeMismatch):
        WittVector(2, 2, (L("t", F2),))
    with pytest.raises(ShapeMismatch):
        witt_add(W("[t]", F2), W("[t; 0]", F2))


def test_sum_golden():
    # S_1 = X_1 + Y_1 - X_0 Y_0 over p = 2
    a = W("[t; 0]", F2)
    total = witt_add(a, a)
    assert str(total) == "[0; t^2]"


def test_add_precision_stays_default():
    a = W("[t; 0]", F2)
    out = witt_add(a, a)
    assert all(c.precision == DEFAULT_PRECISION for c in out.components)


def _vec(spec, m, srcs, rng_pairs):
    comps = []
    for pairs in rng_pairs[:m]:
        terms = {}
        for e, c in pairs:
            terms[e] = terms.get(e, spec.zero()) + spec.from_int(c)
        comps.append(LaurentElem(spec, terms, DEFAULT_PRECISION))
    return WittVector(spec.p, m, comps)


pair_lists = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(1, 4)), min_size=0, max_size=3
)
vec_data = st.lists(pair_lists, min_size=2, max_size=2)


@given(xs=vec_data, ys=vec_data, zs=vec_data, which=st.integers(0, 3))
@settings(max_examples=60)
def test_group_laws_len2(xs, ys, zs, which):
    spec = ALL_SPECS[which]
    a = _vec(spec, 2, None, xs)
    b = _vec(spec, 2, None, ys)
    c = _vec(spec, 2, None, zs)
    assert witt_add(a, b) == witt_add(b, a)
    assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
    zero = _vec(spec, 2, None, [[], []])
    assert witt_add(a, witt_neg(a)) == zero
    assert witt_sub(witt_add(a, b), b) == a


@given(xs=vec_data, ys=vec_data, which=st.integers(0, 3))
@settings(max_examples=40)
def test_frobenius_is_additive_on_vectors(xs, ys, which):
    spec = ALL_SPECS[which]
    a = _vec(spec, 2, None, xs)
    b = _vec(spec, 2, None, ys)
    lhs = frobenius_twist(witt_add(a, b), 1)
    rhs = witt_add(frobenius_twist(a, 1), frobenius_twist(b, 1))
    assert lhs == rhs


def test_frobenius_grows_precision():
    a = W("[t^-1; t]", F2)
    tw = frobenius_twist(a, 1)
    assert [c.precision for c in tw.components] == [128, 128]
    assert tw.components[0].val() == -2


def test_shift_in():
    a = W("[t; t^2]", F2)
    s = shift_in(a)
    assert s.m == 3
    assert s.components[0].is_apparent_zero
    assert s.components[1] == a.components[0]


def test_artin_schreier_map_len1():
    a = W("[t^-1]", F2)
    out = artin_schreier_map(a)
    assert out.components[0] == L("t^-2 + t^-1", F2)


@given(xs=vec_data, ys=vec_data, which=st.integers(0, 3))
@settings(max_examples=40)
def test_artin_schreier_is_additive(xs, ys, which):
    spec = ALL_SPECS[which]
    a = _vec(spec, 2, None, xs)
    b = _vec(spec, 2, None, ys)
    lhs = artin_schreier_map(witt_add(a, b))
    rhs = witt_add(artin_schreier_map(a), artin_schreier_map(b))
    assert lhs == rhs


@given(cs=pair_lists, ws=pair_lists, bs=pair_lists, which=st.integers(0, 3))
@settings(max_examples=60)
def test_lemma54_closed_form_matches_group_law(cs, ws, bs, which):
    spec = ALL_SPECS[which]
    build = lambda pairs: _vec(spec, 2, None, [pairs, []]).components[0]
    c = build(cs)
    omega2 = build(ws)
    b = build(bs)
    p = spec.p
    from wittram.valued import frobenius_power

    lhs = lemma54_closed_form(p, c, omega2, b)
    rhs = witt_add(
        WittVector(p, 2, (frobenius_power(c, 1), omega2)),
        WittVector(p, 2, (b, b.scale_int(0))),
    )
    assert lhs == rhs


# -- the group law against IntPoly.evaluate on the Z-polynomials -------------

def _reference_add(a, b):
    args = a.components + b.components
    return WittVector(a.p, a.m, [s.evaluate(args) for s in sum_polys(a.p, a.m)])


def _reference_neg(a):
    polys = neg_polys(a.p, a.m)
    return WittVector(a.p, a.m, [s.evaluate(a.components) for s in polys])


def _reference_as_map(a):
    return _reference_add(frobenius_twist(a, 1), _reference_neg(a))


def _assert_same(got, want):
    """Equal term for term and, for series, in precision."""
    for x, y in zip(got.components, want.components, strict=True):
        if isinstance(y, LaurentElem):
            assert (x.terms, x.precision) == (y.terms, y.precision)
        else:
            assert (x.num, x.den) == (y.num, y.den)


def _random_coeff(rng, spec):
    """A nonzero constant over F_p; over F_p(u) a monic quadratic, over
    a linear denominator one time in three."""
    if spec.kind is FieldKind.PRIME:
        return spec.from_int(rng.randrange(1, spec.p))
    num = [rng.randrange(spec.p) for _ in range(2)] + [1]
    if rng.random() < 1 / 3:
        return spec.element(num, [rng.randrange(1, spec.p), 1])
    return spec.element(num)


def _random_component(rng, spec):
    """1 to 3 terms with exponents in [-3, 6], or an apparent zero, known
    to a precision between 8 and 100."""
    precision = rng.randrange(8, 101)
    if rng.random() < 0.2:
        return LaurentElem.zero(spec, precision)
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        c = _random_coeff(rng, spec)
        terms[rng.randrange(-3, 7)] = c
    return LaurentElem(spec, terms, precision)


# (p, m, draws); both residue kinds at m <= 2
_LAW_SHAPES = (
    (2, 1, 10), (2, 2, 10), (2, 3, 10), (2, 4, 8),
    (3, 1, 10), (3, 2, 10), (3, 3, 8),
    (5, 1, 10), (5, 2, 10), (5, 3, 4),
    (3, 4, 2),
)


def _check_law_parity(a, b):
    _assert_same(witt_add(a, b), _reference_add(a, b))
    _assert_same(witt_neg(a), _reference_neg(a))
    _assert_same(artin_schreier_map(a), _reference_as_map(a))


def _dense_component(rng, spec):
    """8 to 12 terms with exponents in [-3, 8], known to a precision
    between 16 and 100."""
    terms, size = {}, rng.randrange(8, 13)
    while len(terms) < size:
        terms[rng.randrange(-3, 9)] = _random_coeff(rng, spec)
    return LaurentElem(spec, terms, rng.randrange(16, 101))


def _random_vector(rng, spec, m, component=_random_component):
    return WittVector(spec.p, m, [component(rng, spec) for _ in range(m)])


def _check_random_law_parity(rng, kinds, p, m, draws):
    for kind in kinds:
        spec = FieldSpec(p, kind)
        for _ in range(draws):
            a, b = _random_vector(rng, spec, m), _random_vector(rng, spec, m)
            _check_law_parity(a, b)


@pytest.mark.parametrize("p,m,draws", _LAW_SHAPES)
def test_group_law_matches_z_polynomials(p, m, draws, monkeypatch):
    rng = random.Random(1000 * p + m)
    kinds = (FieldKind.PRIME, FieldKind.RATIONAL) if m <= 2 else (FieldKind.PRIME,)
    _check_random_law_parity(rng, kinds, p, m, draws)
    # one dense draw over F_p per shape: from m = 2 on, the component sums
    # the law reduces pass p^3, and some are nonzero yet vanish mod p at
    # that one reduction.  witt_add builds its power tables first, so the
    # last m reductions are the m component sums.
    sums = []
    from_ints = LaurentElem._from_ints.__func__
    monkeypatch.setattr(LaurentElem, "_from_ints", classmethod(
        lambda cls, spec, ints, n: sums.append(ints) or from_ints(cls, spec, ints, n)
    ))
    spec = FieldSpec(p, FieldKind.PRIME)
    a = _random_vector(rng, spec, m, _dense_component)
    b = _random_vector(rng, spec, m, _dense_component)
    witt_add(a, b)
    if m > 1:
        coeffs = [c for ints in sums[-m:] for c in ints.values()]
        assert max(coeffs) > p ** 3
        assert any(c and not c % p for c in coeffs)
    _check_law_parity(a, b)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
def test_group_law_matches_z_polynomials_on_every_apparent_zero_pattern(p, m):
    # each subset of the 2m arguments set to apparent zeros, the others
    # given terms: every live-argument mask the group law can meet
    rng = random.Random(1000 * p + m + 11)
    kinds = (FieldKind.PRIME, FieldKind.RATIONAL) if m <= 2 else (FieldKind.PRIME,)
    for kind in kinds:
        spec = FieldSpec(p, kind)
        for zeros in range(1 << (2 * m)):
            args = []
            for i in range(2 * m):
                x = _random_component(rng, spec)
                while not x.terms:
                    x = _random_component(rng, spec)
                args.append(LaurentElem.zero(spec, x.precision)
                            if zeros >> i & 1 else x)
            _check_law_parity(WittVector(p, m, args[:m]), WittVector(p, m, args[m:]))


@pytest.mark.parametrize("p,m,draws", [(2, 3, 6), (3, 3, 4), (2, 4, 4)])
def test_fp_u_group_law_matches_z_polynomials_past_length_2(p, m, draws):
    rng = random.Random(1000 * p + m + 7)
    _check_random_law_parity(rng, (FieldKind.RATIONAL,), p, m, draws)


def _cut_and_retail(rng, x):
    """x cut to a lower precision n, and x below n with another tail
    above it, known to n + 3."""
    n = rng.randrange(min(x.terms, default=x.precision) - 2, x.precision + 1)
    cut = x.truncated(n)
    terms = dict(cut.terms)
    for e in range(n, n + 3):
        if rng.random() < 0.5:
            terms[e] = _random_coeff(rng, x.spec)
    return cut, LaurentElem(x.spec, terms, n + 3)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_group_law_precision_is_honest(p, m):
    # The full inputs and the same inputs with another tail above a lower
    # cut both extend the inputs cut there, so the outputs of each must
    # agree with those from the cut inputs below the smaller O(t^N) the
    # two claim.
    rng = random.Random(2000 * p + m)
    laws = (
        lambda x, y: witt_add(x, y),
        lambda x, y: witt_neg(x),
        lambda x, y: artin_schreier_map(x),
    )
    for kind in FieldKind:
        spec = FieldSpec(p, kind)
        for _ in range(6):
            a, b = _random_vector(rng, spec, m), _random_vector(rng, spec, m)
            lowered = [
                [_cut_and_retail(rng, x) for x in v.components] for v in (a, b)
            ]
            variants = [(a, b)] + [
                tuple(WittVector(p, m, [pair[k] for pair in v]) for v in lowered)
                for k in (0, 1)
            ]
            for law in laws:
                full, cut, retailed = (law(x, y) for x, y in variants)
                assert cut == full and cut == retailed


def test_group_law_keeps_precision_of_monomials_zero_mod_p():
    # In N_3 at p = 2 the monomials that vanish mod 2 hold the last
    # component to O(t^-4); the others alone would give O(t^0).
    a = W("[t^-3 + t + O(t^62); t^-2 + t^2 + t^3 + O(t^14); "
          "t^-2 + t^-1 + t + O(t^41); t^3 + O(t^83)]", F2)
    assert witt_neg(a).components[3].precision == -4
    _check_law_parity(a, a)


def test_fp_u_group_law_keeps_precision_of_monomials_zero_mod_p():
    # The same valuations and precisions over F_2(u): O(t^-4) again.
    a = W("[u*t^-3 + t + O(t^62); t^-2 + (u + 1)*t^2 + t^3 + O(t^14); "
          "t^-2 + (1)/(u)*t^-1 + u*t + O(t^41); (u^2 + 1)*t^3 + O(t^83)]",
          F2U)
    assert witt_neg(a).components[3].precision == -4
    _check_law_parity(a, a)


def test_group_law_on_residue_components():
    for spec in (FieldSpec(3), FieldSpec(3, FieldKind.RATIONAL)):
        u = spec.u() if spec.kind is FieldKind.RATIONAL else spec.from_int(2)
        a = WittVector(3, 3, (u, u * u + spec.one(), spec.zero()))
        b = WittVector(3, 3, (spec.one(), u, u.inverse()))
        _assert_same(witt_add(a, b), _reference_add(a, b))
        _assert_same(witt_neg(a), _reference_neg(a))


def test_group_law_on_mixed_operands_raises_as_before():
    f3u = FieldSpec(3, FieldKind.RATIONAL)
    series = W("[t^-1; 1]", F3)
    others = (
        WittVector(3, 2, (F3.one(), F3.from_int(2))),
        WittVector(3, 2, (LaurentElem.t_power(f3u, -1),) * 2),
    )
    for a, b in [(series, x) for x in others] + [(x, series) for x in others]:
        with pytest.raises(Exception) as expected:
            _reference_add(a, b)
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            witt_add(a, b)


def test_group_law_on_deep_series_matches_z_polynomials():
    # the degree-8 monomials of the (2, 4) laws take t^-40 to t^-320,
    # and their factors down to precision 0 and below
    a = W("[t^-40 + O(t^280); t; t; 1]", F2)
    _assert_same(witt_add(a, a), WittVector(2, 4, [
        s.evaluate(a.components * 2) for s in sum_polys(2, 4)
    ]))
    _assert_same(witt_neg(a), WittVector(2, 4, [
        s.evaluate(a.components) for s in neg_polys(2, 4)
    ]))


def _law_degree(p, m):
    """The largest total degree of a monomial of the addition law."""
    return max(sum(mono) for poly in sum_polys(p, m) for mono in poly.terms)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_group_law_past_the_exponent_limit_matches_z_polynomials(p, m):
    # A last component of valuation -200 takes the addition law's lowest
    # exponent past -p^2 * DEFAULT_PRECISION, the command line's bound on
    # a literal's exponents at the default precision; series that deep
    # take the two-pass path too, where monomials that vanish mod p are
    # skipped.
    spec = FieldSpec(p)
    one = spec.one()
    high = LaurentElem(spec, {-1: one, 2: one}, 200)
    low = LaurentElem(spec, {-200: one, 1: one}, 200)
    a = WittVector(p, m, [high] * (m - 1) + [low])
    b = WittVector(p, m, [LaurentElem(spec, {-3: one, 5: one}, 150)] * m)
    assert -200 * _law_degree(p, m) < -p * p * DEFAULT_PRECISION
    _assert_same(witt_add(a, b), _reference_add(a, b))
    _assert_same(witt_neg(a), _reference_neg(a))


def _law_outcome(out):
    return [(c.terms, c.precision) for c in out.components]


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 3)])
def test_group_law_matches_z_polynomials_at_deep_valuations(p, m):
    # The first component's lowest exponent times the addition law's
    # degree lies just above, exactly on and just below -p^2 * 64, the
    # command line's bound on a literal's exponents at the default
    # precision; the group law itself is bounded nowhere.  The others
    # have precision <= 0, are apparent zeros, or live over an equal
    # FieldSpec that is a distinct object.
    edge, r = divmod(-p * p * DEFAULT_PRECISION, _law_degree(p, m))
    assert r == 0
    for kind in FieldKind:
        spec, twin = FieldSpec(p, kind), FieldSpec(p, kind)
        one = spec.one()
        two = spec.from_int(2) if kind is FieldKind.PRIME else spec.element([2, 1])
        rest = [
            LaurentElem(spec, {-2: one, -1: two}, 0),
            LaurentElem.zero(spec, -3),
            LaurentElem(twin, {-1: one, 4: two}, 64),
        ][:m - 1]
        b = WittVector(p, m, [
            LaurentElem(twin, {-3: two, 5: one}, 150),
            LaurentElem.zero(twin, 40),
            LaurentElem(twin, {-2: ResidueElem(twin, (1,), (1,))}, -1),
            LaurentElem(spec, {0: one}, 70),
        ][:m])
        for low in (edge + 1, edge, edge - 1):
            a = WittVector(
                p, m, [LaurentElem(spec, {low: one, 1: two}, 300)] + rest
            )
            for x, y in ((a, b), (b, a)):
                # every outcome a value, F(x), which reaches p times
                # deeper, included
                assert _law_outcome(witt_add(x, y)) == _law_outcome(
                    _reference_add(x, y))
                assert _law_outcome(witt_neg(x)) == _law_outcome(
                    _reference_neg(x))
                assert _law_outcome(artin_schreier_map(x)) == _law_outcome(
                    _reference_as_map(x))


@pytest.mark.parametrize(
    "spec", [FieldSpec(p, kind) for kind in FieldKind for p in (2, 3, 5)],
    ids=repr,
)
def test_power_table_matches_pow(spec):
    # every entry equal to x ** e term for term and in precision, up to
    # the degree of the addition law at the largest length the laws take,
    # the entries at multiples of p (Frobenius images) included
    top = _law_degree(spec.p, 4 if spec.p < 5 else 3)
    if spec.kind is FieldKind.PRIME:
        a, b = spec.one(), spec.from_int(2)
    else:
        # u + 1 and (u^2 + 1)/u
        a, b = spec.element([1, 1]), spec.element([1, 0, 1], [0, 1])
    xs = [
        LaurentElem(spec, {-3: a, 1: b, 7: a}, 64),
        LaurentElem(spec, {-1: b, 0: a}, 20),
        LaurentElem(spec, {-2: a, 5: a}, 100),
        LaurentElem(spec, {0: b, 3: a}, 64),
        LaurentElem(spec, {2: a, 5: b}, 20),
        LaurentElem(spec, {1: a, 4: a}, 90),
        LaurentElem(spec, {-4: a}, -2),
        LaurentElem.zero(spec, 30),
        LaurentElem.zero(spec, 80),
        LaurentElem.zero(spec, -5),
    ]
    for x in xs:
        v, n = x.val_lower_bound(), x.precision
        row = _power_table(x, top, power_precision(v, n, 1) - v)
        assert len(row) == top
        for e, got in enumerate(row, 1):
            want = x ** e
            assert (got.terms, got.precision) == (want.terms, want.precision)
            # the closed forms the group law reads in place of the row
            assert (got.val_lower_bound(), got.precision) == (
                e * v, power_precision(v, n, e))


def _count_calls(monkeypatch, cls, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(cls, name)

        def counted(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def _table_powers(polys):
    return sum(
        max(mono[i] for s in polys for mono in s.terms)
        for i in range(polys[0].nvars)
    )


def test_fp_group_law_makes_one_series_product_per_table_power(monkeypatch):
    a = W("[t^-1 + 2*t; t^-2 + t^3; 2 + t]", F3)
    b = W("[t^-2 + t; 2*t^-1 + t^4; t^-1]", F3)
    series = _count_calls(
        monkeypatch, LaurentElem, ("__add__", "__mul__", "__pow__", "scale_int")
    )
    residue = _count_calls(
        monkeypatch, ResidueElem,
        ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale_int",
         "inverse"),
    )
    got = witt_add(a, b)
    assert series["__add__"] == series["__pow__"] == series["scale_int"] == 0
    assert 0 < series["__mul__"] <= _table_powers(sum_polys(3, 3))
    assert not any(residue.values())
    # F(c) - c for c = [x; 0; 0] has terms only in monomials of X_0 and
    # Y_0, up to S_2's eighth powers: five products each (the cubes and
    # sixth powers are Frobenius images), none for the zero X_1, Y_1
    c = W("[t^-2 + t; 0; 0]", F3)
    series["__mul__"] = 0
    got_as = artin_schreier_map(c)
    assert series["__mul__"] == 10
    monkeypatch.undo()
    _assert_same(got, _reference_add(a, b))
    _assert_same(got_as, _reference_as_map(c))


def test_fp_group_law_multiplies_out_only_monomials_nonzero_mod_p(monkeypatch):
    # S_2 at p = 3 has two monomials that vanish mod 3; with every
    # argument live, each other monomial costs one dict product per
    # factor after its first
    a = W("[t^-1 + 2*t; t^-2 + t^3; 2 + t]", F3)
    b = W("[t^-2 + t; 2*t^-1 + t^4; t^-1]", F3)
    calls = []
    monkeypatch.setattr(
        witt, "mul_ints", lambda *args: calls.append(1) or mul_ints(*args)
    )
    witt_add(a, b)
    monomials = [x for monos in witt._sum_law(3, 3).monomials for x in monos]
    assert sum(c == 0 for _, c, _ in monomials) == 2
    assert len(calls) == sum(len(f) - 1 for f, c, _ in monomials if c)


def test_fp_u_group_law_makes_one_series_product_per_table_power(monkeypatch):
    # F_p(u) takes the same two passes, on {exponent: ResidueElem} dicts;
    # at p = 2, N_1's X_0^2 is a Frobenius image and costs no product
    cases = [
        (W("[u*t^-1 + t; t^-2 + (u + 1)*t]", F2U),
         W("[t^-2 + u; (u + 1)/(u)*t^-1 + t^3]", F2U)),
        (W("[u*t^-1 + t; t^-2 + (1)/(u^2 + 1)]", F3U),
         W("[t^-2 + (u + 2)/(u)*t; (u + 1)*t^-1]", F3U)),
    ]
    series = _count_calls(
        monkeypatch, LaurentElem, ("__add__", "__mul__", "__pow__", "scale_int")
    )
    got = []
    for a, b in cases:
        for law, polys, args in ((witt_add, sum_polys(a.p, a.m), (a, b)),
                                 (witt_neg, neg_polys(a.p, a.m), (a,))):
            series.update(dict.fromkeys(series, 0))
            got.append(law(*args))
            assert series["__add__"] == series["__pow__"] == 0
            assert series["scale_int"] == 0
            assert series["__mul__"] <= _table_powers(polys)
    # an apparent-zero Y_0 leaves S_1's X_0^2 Y_0 and X_0 Y_0^2 without
    # terms, so no power past the first is built
    a, b = (W("[u*t^-1 + t; t^-2 + (u + 1)*t]", F3U),
            W("[0; (u + 2)/(u)*t^-1 + t^3]", F3U))
    series["__mul__"] = 0
    got.append(witt_add(a, b))
    assert series["__mul__"] == 0
    monkeypatch.undo()
    want = [w for x, y in cases for w in (_reference_add(x, y), _reference_neg(x))]
    want.append(_reference_add(a, b))
    for x, y in zip(got, want, strict=True):
        _assert_same(x, y)


def test_group_law_off_the_two_pass_path_reaches_pow(monkeypatch):
    # residue components and mixed operands are multiplied out with the
    # ring operators; deep series take the two-pass path, which has none
    one = F2.one()
    deep = WittVector(2, 2, [LaurentElem(F2, {-1: one, 2: one}, 200),
                             LaurentElem(F2, {-200: one, 1: one}, 200)])
    for call in (lambda: witt_neg(deep), lambda: witt_add(deep, deep)):
        counts = _count_calls(monkeypatch, LaurentElem, ("__pow__",))
        call()
        assert counts["__pow__"] == 0
        monkeypatch.undo()
    residue = WittVector(3, 2, (F3U.u(), F3U.one()))
    mixed = (W("[t^-1; 1]", F3), WittVector(3, 2, (F3.one(), F3.from_int(2))))

    def add_mixed():
        with pytest.raises(TypeError):
            witt_add(*mixed)

    calls = [
        (ResidueElem, lambda: witt_add(residue, residue)),
        (ResidueElem, lambda: witt_neg(residue)),
        (LaurentElem, add_mixed),
        (ResidueElem, add_mixed),
    ]
    for cls, call in calls:
        counts = _count_calls(monkeypatch, cls, ("__pow__",))
        call()
        assert counts["__pow__"] > 0
        monkeypatch.undo()
