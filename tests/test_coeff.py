"""Residue-field arithmetic: canonical forms, roots, coboundary tests."""

import itertools

import pytest
from hypothesis import given
import hypothesis.strategies as st

from wittram.coeff import (
    FieldKind,
    FieldSpec,
    ResidueElem,
    _pdivmod,
    _pgcd,
    _pmul,
    build_disjoint_classes,
    in_AS_image,
    nth_root,
    pth_root,
)
from wittram.errors import DivisionByZero, SpecMismatch, UnsupportedInput

from conftest import ALL_SPECS, F2, F2U, F3, F3U
from oracles import brute_as_witness, brute_pth_root


def test_prime_validation():
    with pytest.raises(ValueError):
        FieldSpec(4, FieldKind.PRIME)
    with pytest.raises(ValueError):
        FieldSpec(1, FieldKind.PRIME)
    with pytest.raises(ValueError):
        FieldSpec(3, "fq")
    with pytest.raises(ValueError):
        FieldSpec(3.0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_one_spec_per_field(p):
    for kind in FieldKind:
        spec = FieldSpec(p, kind)
        assert FieldSpec(p, kind) is spec
        assert FieldSpec(p, kind.value) is spec
        assert hash(spec) == hash((p, kind))
        assert spec.zero() is FieldSpec(p, kind).zero()
    assert FieldSpec(p) is FieldSpec(p, FieldKind.PRIME)
    assert FieldSpec(p, FieldKind.PRIME) is not FieldSpec(p, FieldKind.RATIONAL)
    assert "__eq__" not in vars(FieldSpec)


def test_prime_field_constants_only():
    with pytest.raises(UnsupportedInput):
        ResidueElem(F2, (0, 1), (1,))


def test_canonical_reduction():
    # (u^2 - 1) / (u - 1) reduces to u + 1 over F_3
    a = F3U.element((2, 0, 1), (2, 1))
    assert a == F3U.element((1, 1))
    # denominators are normalized monic
    b = F3U.element((1,), (0, 2))
    assert b.den == (0, 1)
    assert b.num == (2,)


def test_zero_denominator():
    with pytest.raises(DivisionByZero):
        F2U.element((1,), ())
    with pytest.raises(DivisionByZero):
        F2U.one().scale_int(0).inverse()


coeff_lists = st.lists(st.integers(0, 4), min_size=1, max_size=4)


def _build(spec, num, den):
    num = tuple(c % spec.p for c in num)
    den = tuple(c % spec.p for c in den)
    if not any(den):
        den = (1,)
    if spec.kind is FieldKind.PRIME:
        num, den = num[:1], (1,)
    return ResidueElem(spec, num, den)


@given(num=coeff_lists, den=coeff_lists, num2=coeff_lists, den2=coeff_lists,
       which=st.integers(0, 3))
def test_field_laws(num, den, num2, den2, which):
    spec = ALL_SPECS[which]
    a = _build(spec, num, den)
    b = _build(spec, num2, den2)
    assert a + b == b + a
    assert a * b == b * a
    assert a - b == -(b - a)
    assert (a + b) * a == a * a + b * a
    if not b.is_zero:
        assert (a / b) * b == a


@given(num=coeff_lists, den=coeff_lists, which=st.integers(0, 3))
def test_frobenius_root_roundtrip(num, den, which):
    spec = ALL_SPECS[which]
    a = _build(spec, num, den)
    r = pth_root(a ** spec.p)
    assert r == a


def test_pth_root_against_brute_force():
    for spec in (F2U, F3U):
        for num in [(0, 1), (1, 1), (0, 0, 1), (1, 0, 0, 1), (2, 1)]:
            a = ResidueElem(spec, tuple(c % spec.p for c in num), (1,))
            got = pth_root(a)
            want = brute_pth_root(a)
            assert got == want


def test_pth_root_missing():
    assert pth_root(F2U.u()) is None
    assert pth_root(F3U.u() + F3U.one()) is None


def test_nth_root():
    u = F2U.u()
    assert nth_root(u ** 3, 3) == u
    assert nth_root(F3U.u() ** 4, 4) == F3U.u()
    assert nth_root(u ** 3 + F2U.one(), 3) is None
    with pytest.raises(UnsupportedInput):
        nth_root(u, 2)


def test_as_image_prime_field():
    # over F_p, g^p - g vanishes identically, so the image is {0}
    for spec in (F2, F3):
        assert in_AS_image(spec.zero()) == spec.zero()
        for c in range(1, spec.p):
            assert in_AS_image(spec.from_int(c)) is None


def test_as_image_rational_field():
    u = F2U.u()
    assert in_AS_image(u) is None
    g = u ** 2 + u     # (u)^2 - (u)
    w = in_AS_image(g)
    assert w is not None and w ** 2 - w == g
    with pytest.raises(UnsupportedInput):
        in_AS_image(u.inverse())


@given(num=coeff_lists, which=st.integers(0, 1))
def test_as_image_against_brute_force(num, which):
    spec = (F2U, F3U)[which]
    a = ResidueElem(spec, tuple(c % spec.p for c in num[:3]), (1,))
    got = in_AS_image(a)
    want = brute_as_witness(a, max_deg=2)
    if got is None:
        assert want is None
    else:
        assert got ** spec.p - got == a
        assert want is not None


def test_disjoint_classes_sweep():
    for spec in (F2U, F3U):
        c1, c2 = build_disjoint_classes(spec)
        p = spec.p
        for i in range(p):
            for j in range(p):
                if i == 0 and j == 0:
                    continue
                combo = c1.scale_int(i) + c2.scale_int(j)
                assert in_AS_image(combo) is None


def _assert_is_int(got, spec, want):
    """got is the canonical element of spec for the integer want."""
    want %= spec.p
    assert got.spec == spec
    assert (got.num, got.den) == (((want,) if want else ()), (1,))
    assert got == spec.from_int(want)
    assert hash(got) == hash(spec.from_int(want))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_prime_field_agrees_with_int_arithmetic(p):
    spec = FieldSpec(p)
    twin = FieldSpec(p)  # equal to spec but a distinct object: must combine
    for x in range(p):
        a = spec.from_int(x)
        _assert_is_int(-a, spec, -x)
        for k in range(-p, p + 1):
            _assert_is_int(a.scale_int(k), spec, k * x)
        for e in range(0 if x == 0 else -p, p + 2):
            _assert_is_int(a ** e, spec, pow(x, e, p))
        if x:
            _assert_is_int(a.inverse(), spec, pow(x, -1, p))
        for y in range(p):
            b = ResidueElem(twin, (y,), (1,))
            _assert_is_int(a + b, spec, x + y)
            _assert_is_int(a - b, spec, x - y)
            _assert_is_int(a * b, spec, x * y)
            if y:
                _assert_is_int(a / b, spec, x * pow(y, -1, p))


def test_mixed_specs_still_raise():
    for a, b in ((F3.one(), F3U.one()), (F2.one(), F3.one()), (F2U.u(), F3U.u())):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
            with pytest.raises(SpecMismatch):
                op()


@pytest.mark.parametrize("p", (2, 3, 5))
def test_polynomial_products_and_gcds_with_constants(p):
    # Every trimmed polynomial of degree <= 2: a product with a constant
    # is the schoolbook product, a gcd with a nonzero constant is 1, and
    # the zero polynomial is no constant: gcd(0, g) = monic(g).
    polys = [()] + [
        tuple(cs) for n in (1, 2, 3)
        for cs in itertools.product(range(p), repeat=n) if cs[-1]
    ]
    for a, b in itertools.product(polys, repeat=2):
        want = [0] * (len(a) + len(b) - 1) if a and b else []
        for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
            want[i + j] = (want[i + j] + x * y) % p
        assert _pmul(a, b, p) == tuple(want)
        g = _pgcd(a, b, p)
        if len(a) == 1 or len(b) == 1:
            assert g == (1,)
        elif a or b:
            assert g[-1] == 1
            assert all(not _pdivmod(x, g, p)[1] for x in (a, b))
    for g in polys[1:]:
        inv = pow(g[-1], -1, p)
        monic = tuple(c * inv % p for c in g)
        assert _pgcd((), g, p) == _pgcd(g, (), p) == monic
    # a product with 1, on either side, is the element the constructor
    # builds from the schoolbook products of numerators and denominators
    for kind in FieldKind:
        spec = FieldSpec(p, kind)
        one = spec.one()
        xs = [spec.from_int(c) for c in range(p)]
        if kind is FieldKind.RATIONAL:
            xs += [spec.element(a) for a in polys[p:]]
            xs += [spec.element(a, g) for a in polys[1:p + 2] for g in polys[-3:]]
        for x in xs:
            want = ResidueElem(spec, _pmul(one.num, x.num, p), _pmul(one.den, x.den, p))
            for got in (one * x, x * one):
                assert (got.num, got.den) == (want.num, want.den)

