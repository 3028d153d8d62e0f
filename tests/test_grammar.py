"""Text grammar: parse/render round-trips and error positions."""

import pytest

from conftest import ALL_SPECS, F2, F2U, F3, F3U
from wittram import sampling
from wittram.brauer import BrauerSymbol
from wittram.coeff import FieldKind, FieldSpec
from wittram.errors import ParseError
from wittram.grammar import (
    parse_element,
    parse_laurent,
    parse_symbol,
    parse_witt,
    render_laurent,
    render_residue,
    render_symbol,
    render_witt,
)
from wittram.valued import LaurentElem
from wittram.witt import WittVector


# -- frozen parses ------------------------------------------------------------

def test_parse_laurent_golden():
    e = parse_laurent("t^-1 + u + O(t^64)", F2U)
    assert e.val() == -1
    assert e.precision == 64
    assert e.residue_at(0) == F2U.u()
    assert render_laurent(e) == "t^-1 + u"


def test_parse_symbol_golden():
    s = parse_symbol("[[t^-1; 0]; t^2)", F2U)
    assert s.m == 2
    assert s.omega.components[0].val() == -1
    assert s.b.val() == 2
    assert render_symbol(s) == "[[t^-1; 0]; t^2)"


def test_parse_precision_precedence():
    assert parse_laurent("t", F2U, 32).precision == 32
    assert parse_laurent("t + O(t^10)", F2U, 32).precision == 10
    assert parse_laurent("t", F2U).precision == 64


def test_parse_coefficient_fractions():
    e = parse_laurent("(u^2+1)/(u+2) * t^-3", F3U)
    assert e.val() == -3
    assert render_residue(e.residue_at(-3)) == "(u^2+1)/(u+2)"


def test_parse_element_dispatch():
    assert isinstance(parse_element("u + 1", F2U), LaurentElem)
    assert isinstance(parse_element("[t^-1; u]", F3U), WittVector)
    assert isinstance(parse_element("[[0]; t)", F2), BrauerSymbol)


# -- error positions ----------------------------------------------------------

def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_laurent("t^", F2U)
    assert exc.value.position == 2
    assert exc.value.expected == ("an integer",)

    with pytest.raises(ParseError) as exc:
        parse_laurent("t + + t", F2U)
    assert exc.value.position == 4

    with pytest.raises(ParseError) as exc:
        parse_element("", F2U)
    assert exc.value.position == 0
    assert "empty input" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_laurent("t @ u", F2U)
    assert exc.value.position == 2
    assert "unexpected character '@'" in str(exc.value)

    # exponents of u must be nonnegative
    with pytest.raises(ParseError) as exc:
        parse_laurent("u^-1 + t", F2U)
    assert exc.value.position == 2

    with pytest.raises(ParseError):
        parse_laurent("2/u", F3U)

    with pytest.raises(ParseError):
        parse_witt("[t; 0", F2)

    with pytest.raises(ParseError):
        parse_symbol("[[t;0]; t", F2)


def test_parse_error_offsets_count_from_the_literal_start():
    # an error inside a vector component or a symbol slot is reported at
    # its offset into the whole input, not into the component or slot
    for parse, text, spec, position, message in (
        (parse_witt, "[t; t^]", F2, 6, "found ']' (expected an integer)"),
        (parse_witt, "[t; (u+)*t]", F2U, 7,
         "found ')' (expected an integer, u)"),
        (parse_symbol, "[[t; t^]; t)", F2, 7, "found ']' (expected an integer)"),
        (parse_symbol, "[[t^-1; 0]; t^)", F2, 14,
         "found ')' (expected an integer)"),
        (parse_element, "[[0]; t + t^)", F2, 12,
         "found ')' (expected an integer)"),
        # leading blanks count too
        (parse_element, " [t^]", F2, 4, "found ']' (expected an integer)"),
        (parse_element, "  t^", F2, 4, "found '' (expected an integer)"),
    ):
        with pytest.raises(ParseError) as exc:
            parse(text, spec)
        assert exc.value.position == position, text
        assert str(exc.value) == f"at offset {position}: {message}", text


def test_parse_error_message_shape():
    with pytest.raises(ParseError, match="at offset 2: found '' \\(expected an integer\\)"):
        parse_laurent("t^", F2U)


# -- render conventions ---------------------------------------------------------

def test_render_ascending_with_parenthesized_coeffs():
    e = parse_laurent("(u + 1) * t^-1 + u^3 * t^2", F3U)
    assert render_laurent(e) == "(u+1)*t^-1 + u^3*t^2"


def test_render_precision_suffix_rules():
    assert render_laurent(parse_laurent("0", F2U)) == "0"
    assert render_laurent(parse_laurent("0 + O(t^5)", F2U)) == "0 + O(t^5)"
    assert render_laurent(parse_laurent("t^-1 + O(t^10)", F2U)) == "t^-1 + O(t^10)"
    assert render_laurent(parse_laurent("2 * t^0", F3)) == "2"
    x = LaurentElem(F2U, {2: F2U.u()}, 40)
    assert render_laurent(x) == "u*t^2 + O(t^40)"
    assert render_laurent(x, default_precision=40) == "u*t^2"


def test_render_residue_descending():
    assert render_residue(F3U.element((0, 0, 0, 2))) == "2*u^3"
    assert render_residue(F3U.element((1, 0, 2))) == "2*u^2+1"
    assert render_residue(F3U.element((1,), (0, 1))) == "(1)/(u)"
    assert render_residue(F2U.zero()) == "0"
    assert render_residue(F2U.one()) == "1"


def test_render_witt_and_symbol():
    e = parse_laurent("(u+1)*t^-1 + u^3*t^2", F3U)
    w = WittVector(3, 2, (e, parse_laurent("u", F3U)))
    assert render_witt(w) == "[(u+1)*t^-1 + u^3*t^2; u]"
    assert (
        render_symbol(BrauerSymbol(w, parse_laurent("t", F3U)))
        == "[[(u+1)*t^-1 + u^3*t^2; u]; t)"
    )


# -- round-trips, 500 per category ----------------------------------------------

def _spec_for(rng):
    return ALL_SPECS[rng.randrange(len(ALL_SPECS))]


def test_laurent_roundtrip_500():
    rng = sampling.make_rng(101)
    for n in range(500):
        spec = _spec_for(rng)
        e = sampling.random_laurent(
            rng, spec, vmin=-9, vmax=9,
            precision=rng.choice((24, 64, 64, 100)),
        )
        back = parse_laurent(render_laurent(e), spec)
        assert back == e
        assert back.precision == e.precision
        assert render_laurent(back) == render_laurent(e)


def test_witt_roundtrip_500():
    rng = sampling.make_rng(102)
    for n in range(500):
        spec = _spec_for(rng)
        m = rng.randrange(1, 4)
        comps = tuple(
            sampling.random_laurent(rng, spec, vmin=-6, vmax=6)
            for _ in range(m)
        )
        w = WittVector(spec.p, m, comps)
        back = parse_witt(render_witt(w), spec)
        assert back == w
        assert render_witt(back) == render_witt(w)


def test_symbol_roundtrip_500():
    rng = sampling.make_rng(103)
    for n in range(500):
        spec = _spec_for(rng)
        m = rng.randrange(1, 3)
        comps = tuple(
            sampling.random_laurent(rng, spec, vmin=-6, vmax=6)
            for _ in range(m)
        )
        sym = BrauerSymbol(
            WittVector(spec.p, m, comps), sampling.random_symbol_b(rng, spec)
        )
        back = parse_symbol(render_symbol(sym), spec)
        assert back.omega == sym.omega
        assert back.b == sym.b
        assert render_symbol(back) == render_symbol(sym)


def test_residue_roundtrip_500():
    rng = sampling.make_rng(104)
    for n in range(500):
        spec = _spec_for(rng)
        r = sampling.random_residue(rng, spec, max_deg=4)
        if spec.kind.value == "fp-u" and rng.randrange(2):
            den = sampling.random_residue(rng, spec, max_deg=3, nonzero=True)
            r = r / den
        # every rendered residue reads back as a t^0 series
        e = parse_laurent(render_residue(r), spec)
        assert e.residue_at(0) == r


def test_fraction_coefficient_roundtrip():
    # render_laurent prints a fraction as ((num)/(den)), alone at t^0 and
    # before *t^e elsewhere; the random round-trips above draw polynomials
    rng = sampling.make_rng(106)
    for p in (2, 3, 5):
        spec = FieldSpec(p, FieldKind.RATIONAL)
        for n in range(40):
            terms = {}
            for e in (rng.randrange(-6, 0), 0, rng.randrange(1, 7)):
                c = spec.one()
                while c.is_polynomial:
                    num = sampling.random_residue(rng, spec, nonzero=True)
                    den = sampling.random_residue(rng, spec, nonzero=True)
                    c = num / den
                terms[e] = c
            x = LaurentElem(spec, terms, rng.choice((24, 63, 64)))
            text = render_laurent(x)
            assert "((" in text
            back = parse_laurent(text, spec)
            assert back == x and back.precision == x.precision
            assert render_laurent(back) == text
            w = WittVector(p, 2, (x, x.scale_int(0)))
            assert parse_witt(render_witt(w), spec) == w
    assert parse_laurent("((u+1)) + ((1)/(u))", F2U) == parse_laurent(
        "u + 1 + (1)/(u)", F2U
    )
    with pytest.raises(ParseError) as exc:
        parse_laurent("((1)/(u)*t", F2U)
    assert exc.value.position == 8 and exc.value.expected == (")",)


def test_parse_element_roundtrip_mixed():
    rng = sampling.make_rng(105)
    for n in range(120):
        spec = _spec_for(rng)
        kind = n % 3
        if kind == 0:
            x = sampling.random_laurent(rng, spec, vmin=-5, vmax=5)
            text = render_laurent(x)
            assert parse_element(text, spec) == x
        elif kind == 1:
            comps = (sampling.random_laurent(rng, spec, vmin=-5, vmax=5),)
            x = WittVector(spec.p, 1, comps)
            assert parse_element(render_witt(x), spec) == x
        else:
            x = BrauerSymbol(
                WittVector(
                    spec.p, 1,
                    (sampling.random_laurent(rng, spec, vmin=-5, vmax=5),),
                ),
                sampling.random_symbol_b(rng, spec),
            )
            got = parse_element(render_symbol(x), spec)
            assert got.omega == x.omega and got.b == x.b
