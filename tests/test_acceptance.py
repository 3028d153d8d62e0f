"""Acceptance suite: one test per advertised guarantee, each with its
stated time budget and exact (no-tolerance) checks."""

import json
import math
import time
from fractions import Fraction

from conftest import ALL_SPECS, F2, F2U, F3, F3U
from oracles import determinant_norm
from reg_rep import mat_equal, mat_pow, mat_sub, rep_x, rep_y, scalar_matrix

from wittram import sampling
from wittram.brauer import BrauerSymbol, lemma53_split
from wittram.cli import run_command
from wittram.coeff import FieldKind, in_AS_image
from wittram.extension import (
    Classification,
    CyclicExtDesc,
    classify_deg_p,
    classify_len2,
    newton_valuations,
)
from wittram.grammar import (
    parse_laurent,
    parse_symbol,
    parse_witt,
    render_laurent,
    render_symbol,
    render_witt,
)
from wittram.newton import newton_classify_deg_p
from wittram.theorems import (
    build_disjoint_division_pair,
    conjecture_roundtrip,
    cyclic_to_insep,
)
from wittram.valued import DEFAULT_PRECISION, LaurentElem, frobenius_power
from wittram.witt import (
    WittVector,
    ghost_polys,
    lemma54_closed_form,
    sum_polys,
    witt_add,
)

def _done(n, detail, dt, budget):
    assert dt < budget, f"criterion {n} took {dt:.2f}s, budget {budget}s"
    print(f"PASS criterion {n}: {detail} [{dt:.2f}s < {budget}s]")


def test_criterion_1_ghost_identities():
    t0 = time.monotonic()
    checked = 0
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            ghosts = ghost_polys(p, m)
            sums = sum_polys(p, m)
            for n in range(m):
                w = ghosts[n]
                lhs = w.evaluate(sums)
                rhs = w.map_vars({i: i for i in range(m)}, 2 * m) + w.map_vars(
                    {i: m + i for i in range(m)}, 2 * m
                )
                assert lhs == rhs, (p, m, n)
                checked += 1
    _done(1, f"{checked} ghost identities, p in 2,3,5, lengths to 3",
          time.monotonic() - t0, 2)


def test_criterion_2_closed_form_matches_universal_sum():
    t0 = time.monotonic()
    rng = sampling.make_rng(202)
    specs = (F2, F2U, F3, F3U)
    for n in range(100):
        spec = specs[n % 4]
        p = spec.p
        c = sampling.random_laurent(rng, spec, vmin=-3, vmax=3)
        omega2 = sampling.random_laurent(rng, spec, vmin=-3, vmax=3)
        b = sampling.random_laurent(rng, spec, vmin=-3, vmax=3)
        closed = lemma54_closed_form(p, c, omega2, b)
        zero = b.scale_int(0)
        direct = witt_add(
            WittVector(p, 2, (frobenius_power(c, 1), omega2)),
            WittVector(p, 2, (b, zero)),
        )
        assert closed == direct, n
    _done(2, "closed-form length-2 sum agrees on 100 random instances",
          time.monotonic() - t0, 2)


def test_criterion_3_deg_p_analyzer_matches_newton_oracle():
    t0 = time.monotonic()
    total = 0
    for spec in (F2, F2U, F3, F3U):
        rng = sampling.make_rng(30 + spec.p)
        for _ in range(100):
            omega1 = sampling.random_classify_input(rng, spec)
            report = classify_deg_p(omega1)
            got = report.classification.value
            want = newton_classify_deg_p(omega1)
            if got == "unclassified":
                # only the stalled reduction may be left open, and only
                # over the rational residue field
                assert spec.kind is FieldKind.RATIONAL, str(omega1)
                assert any(
                    step.get("op") == "stall" for step in report.trace
                ), str(omega1)
            elif want != "unclassified":
                assert got == want, (str(omega1), got, want)
            total += 1
    _done(3, f"{total} random classifications against the Newton oracle",
          time.monotonic() - t0, 5)


def test_criterion_4_len2_root_valuations():
    t0 = time.monotonic()
    n = 0
    rng = sampling.make_rng(404)
    while n < 50:
        spec = ALL_SPECS[n % 4]
        p = spec.p
        first = sampling.random_tr_element(rng, spec)
        if rng.random() < 0.3:
            second = LaurentElem(spec, {}, DEFAULT_PRECISION)
        else:
            second = sampling.random_laurent(
                rng, spec, vmin=first.val() + 1, vmax=4
            )
        eta = WittVector(p, 2, (first, second))
        v_x1, v_x2 = newton_valuations(eta)
        assert v_x1 == Fraction(first.val(), p)
        assert v_x2.denominator == p * p, (str(eta), v_x2)
        report = classify_len2(eta)
        assert report.classification is Classification.TOTALLY_RAMIFIED
        assert report.evidence["v_x2"] == v_x2
        n += 1
    _done(4, "50 length-2 inputs: v(x2) has denominator exactly p^2",
          time.monotonic() - t0, 2)


def test_criterion_5_regular_representation_identity():
    t0 = time.monotonic()
    rng = sampling.make_rng(505)
    for n in range(25):
        spec = ALL_SPECS[n % 4]
        p = spec.p
        w = sampling.random_laurent(rng, spec, vmin=-3, vmax=3)
        b = sampling.random_laurent(rng, spec, vmin=-3, vmax=3, nonzero=True)
        x_mat = rep_x(p, w, b)
        y_mat = rep_y(p, w, b)
        z = [
            [x_mat[i][j] + y_mat[i][j] for j in range(p * p)]
            for i in range(p * p)
        ]
        lhs = mat_sub(mat_pow(z, p), z)
        assert mat_equal(lhs, scalar_matrix(p, w + b)), n
    _done(5, "z^p - z acts as the scalar w + b in 25 regular representations",
          time.monotonic() - t0, 10)


def test_criterion_6_norm_witness_construction():
    t0 = time.monotonic()
    rng = sampling.make_rng(606)
    prec = 32
    n = 0
    while n < 50:
        spec = ALL_SPECS[(n // 2) % 4]
        p = spec.p
        m = 1 + (n % 2)
        if m == 1:
            omega = WittVector(
                p, 1, (sampling.random_tr_element(rng, spec, precision=prec),)
            )
        else:
            omega = sampling.random_tr_vector_len2(rng, spec, precision=prec)
        # v(b) divisible by p forces the norm-adjustment branch
        k = rng.randrange(-2, 3)
        b = sampling.random_unit(rng, spec, precision=prec) * (
            LaurentElem.t_power(spec, p * k, prec)
        )
        witness = cyclic_to_insep(omega, b)
        assert witness.norm_factor is not None
        assert witness.c == witness.norm_factor * b
        assert math.gcd(witness.c.val(), p) == 1
        assert witness.verify()
        # the determinant oracle is slow over F_p(u) at m = 2
        if m == 1 or spec.kind is FieldKind.PRIME:
            if m == 1:
                desc = CyclicExtDesc(WittVector(p, 1, (witness.report.reduced,)))
                u = desc.x1()
            else:
                desc = CyclicExtDesc(witness.report.reduced)
                u = desc.x2()
            expected = determinant_norm(desc, u)
            assert witness.norm_factor == expected
            assert witness.norm_factor.precision >= expected.precision
        n += 1
    _done(6, "50 norm witnesses; factors match the determinant "
          "(all m=1, and m=2 over F_p)", time.monotonic() - t0, 10)


def test_criterion_7_roundtrip_on_random_symbols():
    t0 = time.monotonic()
    rng = sampling.make_rng(707)
    n = 0
    while n < 50:
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
        assert rt.construction.trace.validate()
        assert math.gcd(rt.witness.c.val(), spec.p) == 1
        n += 1
    _done(7, "50 roundtrips succeed and re-validate in both directions",
          time.monotonic() - t0, 15)


def test_criterion_8_disjoint_pairs_sweep():
    t0 = time.monotonic()
    for spec in (F2U, F3U):
        p = spec.p
        for m in (1, 2):
            b = LaurentElem.t_power(spec, 1, DEFAULT_PRECISION)
            pair = build_disjoint_division_pair(spec, b=b, m=m)
            a1, a2 = pair.classes
            for cert in pair:
                assert cert.is_division
                assert cert.m == m and cert.v_b == 1
            for l1 in range(p):
                for l2 in range(p):
                    if l1 == l2 == 0:
                        continue
                    combo = a1.scale_int(l1) + a2.scale_int(l2)
                    assert in_AS_image(combo) is None, (l1, l2, str(spec))
    _done(8, "residue classes stay independent under the exhaustive sweep",
          time.monotonic() - t0, 2)


def test_criterion_9_split_traces_self_certify():
    t0 = time.monotonic()
    rng = sampling.make_rng(909)
    n = 0
    while n < 25:
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
    _done(9, "25 split traces validate and conclude split",
          time.monotonic() - t0, 2)


def test_criterion_10_cli_grammar_and_exit_codes():
    t0 = time.monotonic()
    rng = sampling.make_rng(1010)
    for n in range(500):
        spec = ALL_SPECS[rng.randrange(4)]
        kind = n % 3
        if kind == 0:
            x = sampling.random_laurent(
                rng, spec, vmin=-9, vmax=9,
                precision=rng.choice((24, 64, 100)),
            )
            back = parse_laurent(render_laurent(x), spec)
            assert back == x and back.precision == x.precision
        elif kind == 1:
            m = rng.randrange(1, 4)
            x = WittVector(spec.p, m, tuple(
                sampling.random_laurent(rng, spec, vmin=-6, vmax=6)
                for _ in range(m)
            ))
            assert parse_witt(render_witt(x), spec) == x
        else:
            m = rng.randrange(1, 3)
            x = BrauerSymbol(
                WittVector(spec.p, m, tuple(
                    sampling.random_laurent(rng, spec, vmin=-6, vmax=6)
                    for _ in range(m)
                )),
                sampling.random_symbol_b(rng, spec),
            )
            got = parse_symbol(render_symbol(x), spec)
            assert got.omega == x.omega and got.b == x.b

    transcripts = [
        (["witt", "add", "--p", "2", "[t; 0]", "[t; 0]"], 0, "[0; t^2]"),
        (["ram", "analyze", "--p", "2", "t^-1"], 0,
         "verdict: TotallyRamified\n"
         "evidence: v_omega = -1; v_x1 = -1/2; ramification_index = 2"),
        (["ram", "analyze", "--p", "2", "0 + O(t^0)"], 4,
         "error: PrecisionExhausted: series is zero to the available "
         "precision but the precision window is empty"),
        (["ram", "analyze", "--p", "2", "t^"], 3,
         "error: ParseError: at offset 2: found '' (expected an integer)"),
        (["ram", "analyze", "--p", "2", "--residue", "fp", "u"], 2,
         "error: UnsupportedInput: prime-field values must be constants"),
        (["ram", "analyze", "--p", "2", "--m", "2", "t^-1"], 2,
         "error: ShapeMismatch: --m 2 does not match an input of length 1"),
    ]
    for argv, want_code, want_text in transcripts:
        code, text = run_command(argv)
        assert code == want_code, argv
        assert text == want_text, argv

    for argv, want_code in (
        (["ram", "analyze", "--p", "2", "t^-1"], 0),
        (["ram", "analyze", "--p", "2", "t^"], 3),
    ):
        code, text = run_command(argv + ["--format", "structured"])
        assert code == want_code
        record = json.loads(text)
        assert sorted(record.keys()) == [
            "config", "evidence", "inputs", "trace", "verdict",
        ]
    _done(10, "500 grammar round-trips and the documented exit codes",
          time.monotonic() - t0, 5)
