"""Command-line conformance: golden transcripts, exit codes, and the
structured output schema."""

import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from wittram import cli
from wittram.cli import main, run_command
from wittram.errors import InternalInexactDivision


# -- golden transcripts, text mode ---------------------------------------------

def test_witt_add_transcript():
    code, text = run_command(["witt", "add", "--p", "2", "[t; 0]", "[t; 0]"])
    assert code == 0
    assert text == "[0; t^2]"


def test_witt_neg_transcript():
    code, text = run_command(["witt", "neg", "--p", "3", "[t; t^2]"])
    assert code == 0
    assert text == "[2*t; 2*t^2]"


def test_ram_analyze_transcript():
    code, text = run_command(["ram", "analyze", "--p", "2", "t^-1"])
    assert code == 0
    assert text.splitlines() == [
        "verdict: TotallyRamified",
        "evidence: v_omega = -1; v_x1 = -1/2; ramification_index = 2",
    ]


def test_ram_analyze_stalled_transcript():
    code, text = run_command(
        ["ram", "analyze", "--p", "2", "--residue", "fp-u", "[u * t^-2]"]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "verdict: Unclassified"
    assert "no p-th root" in lines[1]
    assert lines[2].startswith("trace (1 steps):")


def test_empty_window_exits_4():
    code, text = run_command(["ram", "analyze", "--p", "2", "0 + O(t^0)"])
    assert code == 4
    assert text == (
        "error: PrecisionExhausted: series is zero to the available "
        "precision but the precision window is empty"
    )
    # a vector whose first component reduces to zero is decided by its
    # second, which is refused the same way
    refused = (
        4, "error: PrecisionExhausted: second component is zero to an empty "
        "precision window"
    )
    assert run_command(["ram", "analyze", "--p", "2", "[0; 0 + O(t^-1)]"]) == refused
    assert run_command([
        "thm", "cyclic-to-insep", "--p", "2", "--omega", "[0; 0 + O(t^-1)]",
        "--b", "t",
    ]) == refused
    # so is a second component behind a constant first level
    for argv in (
        ["--residue", "fp-u", "[u; 0 + O(t^-1)]"],
        ["[1; 0 + O(t^-1)]"],
        ["[1; 0 + O(t^0)]"],
    ):
        assert run_command(["ram", "analyze", "--p", "2"] + argv) == refused, argv
    assert run_command([
        "thm", "cyclic-to-insep", "--p", "2", "--omega", "[1; 0 + O(t^-1)]",
        "--b", "t",
    ]) == refused


def test_printed_fraction_coefficients_read_back():
    argv = ["witt", "add", "--p", "2", "--residue", "fp-u"]
    code, text = run_command(argv + ["[(1)/(u)*t^-1; 0]", "[0; 0]"])
    assert (code, text) == (0, "[((1)/(u))*t^-1 + O(t^63); 0 + O(t^63)]")
    assert run_command(argv + [text, "[0; 0]"]) == (0, text)


def test_parse_error_exits_3():
    code, text = run_command(["ram", "analyze", "--p", "2", "t^"])
    assert code == 3
    assert text == "error: ParseError: at offset 2: found '' (expected an integer)"
    # the offset counts from the start of the literal, not of the component
    assert run_command(["witt", "add", "--p", "2", "[t; t^]", "[t]"]) == (
        3, "error: ParseError: at offset 6: found ']' (expected an integer)"
    )
    # ram analyze counts leading blanks, like every other leaf
    for argv in (["ram", "analyze", "--p", "2"], ["witt", "neg", "--p", "2"]):
        assert run_command(argv + [" [t^]"]) == (
            3, "error: ParseError: at offset 4: found ']' (expected an integer)"
        )
    assert run_command(["ram", "analyze", "--p", "2", " t^"]) == (
        3, "error: ParseError: at offset 3: found '' (expected an integer)"
    )


@pytest.mark.parametrize("literal, message", [
    # str.isdigit() holds for superscripts, which int() refuses
    ("t^²", "at offset 2: unexpected character '²'"),
    ("²*t", "at offset 0: unexpected character '²'"),
    # past Python's int-string limit
    ("t^" + "9" * 5000, "at offset 2: integer of 5000 digits is too long"),
    ("9" * 5000 + "*t", "at offset 0: integer of 5000 digits is too long"),
], ids=["superscript-exponent", "superscript-coefficient", "long-exponent",
        "long-coefficient"])
def test_digits_int_refuses_exit_3(literal, message):
    assert run_command(["ram", "analyze", "--p", "2", literal]) == (
        3, f"error: ParseError: {message}"
    )


def test_u_degree_bound_exits_3():
    argv = ["ram", "analyze", "--p", "2", "--residue", "fp-u"]
    assert run_command(argv + ["(u^1024)*t^-1"])[0] == 0
    assert run_command(argv + ["(1 + u^5000)*t^-1"]) == (
        3, "error: ParseError: at offset 7: the exponent of u is at most 1024"
    )


def test_deeply_nested_brackets_end_in_an_answer():
    # redundant bracket pairs are read in a loop, so their depth is not
    # bounded by Python's recursion limit
    depth = 2000
    nested = "[" * depth + "t" + "]" * depth
    assert run_command(["witt", "neg", "--p", "2", nested]) == (0, "[t]")
    code, text = run_command(
        ["symbol", "normalize", "--p", "2", "[" + nested + "; t)"]
    )
    assert code == 0 and text.startswith("result: [[t"), text
    assert run_command(["witt", "neg", "--p", "2", nested[:-1]]) == (
        3, f"error: ParseError: at offset {2 * depth}: found '' (expected ])"
    )


def test_u_over_prime_field_exits_2():
    code, text = run_command(["ram", "analyze", "--p", "2", "--residue", "fp", "u"])
    assert code == 2
    assert text == "error: UnsupportedInput: prime-field values must be constants"


def test_symbol_normalize_transcript():
    code, text = run_command(["symbol", "normalize", "--p", "2", "[[t^-2]; t^5)"])
    assert code == 0
    assert text.splitlines() == [
        "result: [[t^-2]; t^-3 + O(t^56))",
        "trace (1 steps): power_adjust_b",
    ]


def test_symbol_normalize_rejects_divisible_valuation():
    code, text = run_command(["symbol", "normalize", "--p", "2", "[[t^-1]; t^2)"])
    assert code == 2
    assert text == "error: HypothesisViolation: v(b) must be coprime to p"


def test_symbol_rewrite_transcript():
    code, text = run_command(["symbol", "rewrite", "--p", "2", "[[t^2; t^4]; t^-1)"])
    assert code == 0
    assert text.splitlines() == [
        "result: [[t^-1 + t^2 + O(t^63); t^4 + O(t^63)]; t^-1)",
        "trace (7 steps): absorb, same_b, strip_zero, same_omega, absorb, "
        "pth_power_b, same_b",
    ]


def test_thm_cyclic_to_insep_transcript():
    code, text = run_command(
        ["thm", "cyclic-to-insep", "--p", "2", "--omega", "[t^-1]", "--b", "t^2"]
    )
    assert code == 0
    assert text.splitlines() == [
        "c: t + O(t^63)",
        "v(c): 1",
        "note: c = N(x1) * b with v(N(x1)) coprime to p",
    ]


def test_thm_insep_to_cyclic_transcript():
    code, text = run_command(["thm", "insep-to-cyclic", "--p", "2", "[[0]; t^-1)"])
    assert code == 0
    assert text.splitlines() == [
        "result: [[t^-1 + O(t^63)]; t^-1)",
        "verdict: TotallyRamified",
        "evidence: v_omega = -1; v_x1 = -1/2; ramification_index = 2",
        "note: cyclic part x^p - x = omega1' + b' is totally ramified",
        "trace (2 steps): absorb, same_b",
    ]


def test_thm_insep_to_cyclic_length_errors():
    sym = "[[0; 0; 0]; t^-1)"
    assert run_command(["thm", "insep-to-cyclic", "--p", "2", sym]) == (
        2, "error: UnsupportedCase: the construction is implemented for m <= 2"
    )
    assert run_command(["thm", "insep-to-cyclic", "--p", "2", "--m", "2", sym]) == (
        2, "error: ShapeMismatch: --m 2 does not match an input of length 3"
    )


def test_thm_perfect_transcript():
    code, text = run_command(["thm", "perfect", "--p", "3", "[[t; 0]; t^2)"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("result: [[t^-7 + t + O(t^55);")
    assert lines[1] == "verdict: TotallyRamified"
    assert "v_x2 = -49/9" in lines[2]
    assert lines[-1] == "trace (3 steps): power_adjust_b, absorb, same_b"


def test_thm_disjoint_pair_transcript():
    code, text = run_command(["thm", "disjoint-pair", "--p", "2", "--residue", "fp-u"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "classes: u, u^3"
    assert lines[1] == (
        "sweep: 3 combinations, no nontrivial combination is a coboundary"
    )
    assert lines[2] == "verdict: division_pair"


def test_thm_roundtrip_transcript():
    code, text = run_command(
        ["thm", "roundtrip", "--p", "2", "--omega", "[0; 0]", "--b", "t"]
    )
    assert code == 0
    assert text.splitlines() == [
        "stage insep_to_cyclic: TotallyRamified",
        "stage classify_cyclic: TotallyRamified",
        "stage cyclic_to_insep: c = t^-3 + O(t^60), v(c) = -3",
        "stage final_check: witness and trace re-validated",
        "verdict: ok",
    ]


def test_oracle_ghost_check_transcript():
    code, text = run_command(["oracle", "ghost-check", "--p", "3", "--m", "3"])
    assert code == 0
    assert text == "verdict: ok (3 ghost identities)"


def test_oracle_newton_check_transcript():
    code, text = run_command(
        ["oracle", "newton-check", "--p", "2", "--count", "25", "--seed", "7"]
    )
    assert code == 0
    assert text == "verdict: agreement 25/25"


# Recorded before the length-1 and length-2 reduction loops were merged
# into one.  Together they cover every reduction step kind (strip,
# absorb_tail, stall, kill_constant, constant_split, constant_undecided,
# degenerate) and the trace dict reprs that text mode prints.
RAM_ANALYZE_GOLDEN = [
    (
        ['--p', '2', 't^-2 + t^3'],
        [
            'verdict: TotallyRamified',
            'evidence: v_omega = -1; v_x1 = -1/2; ramification_index = 2',
            "trace (1 steps): {'op': 'strip', 'witness': 't^-1', "
            "'new_val_above': -2}",
        ],
        {'config': {'p': 2,
                    'm': 1,
                    'residue': 'fp',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'element': 't^-2 + t^3'},
         'trace': [{'op': 'strip', 'witness': 't^-1', 'new_val_above': -2}],
         'verdict': 'totally_ramified',
         'evidence': {'v_omega': -1,
                      'v_x1': '-1/2',
                      'ramification_index': 2,
                      'source': 'classify_deg_p'}},
    ),
    (
        ['--p', '2', '[t^-2 + t; t^3]'],
        [
            'verdict: TotallyRamified',
            'evidence: v_omega1 = -1; v_x1 = -1/2; v_x2 = -3/4; '
            'ramification_index = 4; value_group_note = v(x2) lies in '
            '(1/p^2)Z but not in (1/p)Z',
            "trace (1 steps): {'op': 'strip', 'component': 0, 'witness': "
            "'t^-1'}",
        ],
        {'config': {'p': 2,
                    'm': 2,
                    'residue': 'fp',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'element': '[t^-2 + t; t^3]'},
         'trace': [{'op': 'strip', 'component': 0, 'witness': 't^-1'}],
         'verdict': 'totally_ramified',
         'evidence': {'v_omega1': -1,
                      'v_x1': '-1/2',
                      'v_x2': '-3/4',
                      'ramification_index': 4,
                      'value_group_note': 'v(x2) lies in (1/p^2)Z but not in '
                                          '(1/p)Z',
                      'source': 'classify_len2'}},
    ),
    (
        ['--p', '2', '--residue', 'fp-u', 'u*t^-2'],
        [
            'verdict: Unclassified',
            'evidence: reason = leading coefficient has no p-th root in the '
            'residue field',
            "trace (1 steps): {'op': 'stall', 'valuation': -2, 'leading': 'u'}",
        ],
        {'config': {'p': 2,
                    'm': 1,
                    'residue': 'fp-u',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'element': 'u*t^-2'},
         'trace': [{'op': 'stall', 'valuation': -2, 'leading': 'u'}],
         'verdict': 'unclassified',
         'evidence': {'reason': 'leading coefficient has no p-th root in the '
                                'residue field',
                      'source': 'classify_deg_p'}},
    ),
    (
        ['--p', '2', '--residue', 'fp-u', 'u^2 + u + t'],
        [
            'verdict: Split',
            'evidence: witness = t + t^2 + t^4 + t^8 + t^16 + t^32; '
            'constant_witness = u',
            "trace (2 steps): {'op': 'absorb_tail', 'witness': 't + t^2 + "
            "t^4 + t^8 + t^16 + t^32'}, {'op': 'constant_split', 'witness': "
            "'u'}",
        ],
        {'config': {'p': 2,
                    'm': 1,
                    'residue': 'fp-u',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'element': '(u^2+u) + t'},
         'trace': [{'op': 'absorb_tail',
                    'witness': 't + t^2 + t^4 + t^8 + t^16 + t^32'},
                   {'op': 'constant_split', 'witness': 'u'}],
         'verdict': 'split',
         'evidence': {'witness': 't + t^2 + t^4 + t^8 + t^16 + t^32',
                      'constant_witness': 'u',
                      'source': 'classify_deg_p'}},
    ),
    (
        ['--p', '2', '--residue', 'fp-u', '(1)/(u)'],
        [
            'verdict: Unclassified',
            'evidence: reason = membership in the coboundary image is '
            'undecided here',
            "trace (1 steps): {'op': 'constant_undecided', 'constant': "
            "'(1)/(u)'}",
        ],
        {'config': {'p': 2,
                    'm': 1,
                    'residue': 'fp-u',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'element': '((1)/(u))'},
         'trace': [{'op': 'constant_undecided', 'constant': '(1)/(u)'}],
         'verdict': 'unclassified',
         'evidence': {'reason': 'membership in the coboundary image is '
                                'undecided here',
                      'source': 'classify_deg_p'}},
    ),
    (
        ['--p', '2', '--residue', 'fp-u', '[u^2 + u; t^-1]'],
        [
            'verdict: TotallyRamified',
            'evidence: v_omega = -1; v_x1 = -1/2; ramification_index = 2; '
            'degenerate = True',
            "trace (2 steps): {'op': 'kill_constant', 'component': 0, "
            "'witness': 'u'}, {'op': 'degenerate', 'note': 'first component "
            "reduces to zero; the pair generates only a degree-p extension'}",
        ],
        {'config': {'p': 2,
                    'm': 2,
                    'residue': 'fp-u',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'element': '[(u^2+u); t^-1]'},
         'trace': [{'op': 'kill_constant', 'component': 0, 'witness': 'u'},
                   {'op': 'degenerate',
                    'note': 'first component reduces to zero; the pair '
                            'generates only a degree-p extension'}],
         'verdict': 'totally_ramified',
         'evidence': {'v_omega': -1,
                      'v_x1': '-1/2',
                      'ramification_index': 2,
                      'degenerate': True,
                      'source': 'classify_len2'}},
    ),
    (
        ['--p', '2', '--residue', 'fp-u', '[u*t^-2; t]'],
        [
            'verdict: Unclassified',
            'evidence: reason = reduction of a component stalled or was '
            'undecided',
            "trace (2 steps): {'op': 'stall', 'component': 0, 'valuation': "
            "-2, 'leading': 'u'}, {'op': 'absorb_tail', 'component': 1, "
            "'witness': 't + t^2 + t^4 + t^8 + t^16 + t^32'}",
        ],
        {'config': {'p': 2,
                    'm': 2,
                    'residue': 'fp-u',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'element': '[u*t^-2; t]'},
         'trace': [{'op': 'stall',
                    'component': 0,
                    'valuation': -2,
                    'leading': 'u'},
                   {'op': 'absorb_tail',
                    'component': 1,
                    'witness': 't + t^2 + t^4 + t^8 + t^16 + t^32'}],
         'verdict': 'unclassified',
         'evidence': {'reason': 'reduction of a component stalled or was '
                                'undecided',
                      'source': 'classify_len2'}},
    ),
    (
        ['--p', '2', '--residue', 'fp-u', '[t^2; (1)/(u)]'],
        [
            'verdict: Unclassified',
            'evidence: reason = component reduction: constant_undecided; '
            'degenerate = True',
            "trace (4 steps): {'op': 'absorb_tail', 'component': 0, "
            "'witness': 't^2 + t^4 + t^8 + t^16 + t^32'}, {'op': "
            "'absorb_tail', 'component': 1, 'witness': 't^4 + t^6 + t^8 + "
            't^10 + t^12 + t^16 + t^18 + t^20 + t^24 + t^32 + t^34 + t^36 + '
            "t^40 + t^48'}, {'op': 'constant_undecided', 'component': 1}, "
            "{'op': 'degenerate', 'note': 'first component reduces to zero; "
            "the pair generates only a degree-p extension'}",
        ],
        {'config': {'p': 2,
                    'm': 2,
                    'residue': 'fp-u',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'element': '[t^2; ((1)/(u))]'},
         'trace': [{'op': 'absorb_tail',
                    'component': 0,
                    'witness': 't^2 + t^4 + t^8 + t^16 + t^32'},
                   {'op': 'absorb_tail',
                    'component': 1,
                    'witness': 't^4 + t^6 + t^8 + t^10 + t^12 + t^16 + t^18 + '
                               't^20 + t^24 + t^32 + t^34 + t^36 + t^40 + '
                               't^48'},
                   {'op': 'constant_undecided', 'component': 1},
                   {'op': 'degenerate',
                    'note': 'first component reduces to zero; the pair '
                            'generates only a degree-p extension'}],
         'verdict': 'unclassified',
         'evidence': {'reason': 'component reduction: constant_undecided',
                      'degenerate': True,
                      'source': 'classify_len2'}},
    ),
    (
        ['--p', '2', '--residue', 'fp-u', '[u; (1)/(u)]'],
        [
            'verdict: Unclassified',
            'evidence: reason = first level is unramified but the second '
            'component is not integral or not decided',
            "trace (1 steps): {'op': 'constant_undecided', 'component': 1}",
        ],
        {'config': {'p': 2,
                    'm': 2,
                    'residue': 'fp-u',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'element': '[u; ((1)/(u))]'},
         'trace': [{'op': 'constant_undecided', 'component': 1}],
         'verdict': 'unclassified',
         'evidence': {'reason': 'first level is unramified but the second '
                                'component is not integral or not decided',
                      'source': 'classify_len2'}},
    ),
    (
        ['--p', '3', '--residue', 'fp-u', 'u + t^-3'],
        [
            'verdict: TotallyRamified',
            'evidence: v_omega = -1; v_x1 = -1/3; ramification_index = 3',
            "trace (1 steps): {'op': 'strip', 'witness': 't^-1', "
            "'new_val_above': -3}",
        ],
        {'config': {'p': 3,
                    'm': 1,
                    'residue': 'fp-u',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'element': 't^-3 + u'},
         'trace': [{'op': 'strip', 'witness': 't^-1', 'new_val_above': -3}],
         'verdict': 'totally_ramified',
         'evidence': {'v_omega': -1,
                      'v_x1': '-1/3',
                      'ramification_index': 3,
                      'source': 'classify_deg_p'}},
    ),
    (
        ['--p', '3', '[t^-1; t^-5 + t^2]'],
        [
            'verdict: Unclassified',
            'evidence: reason = second component dominates; finishing the '
            'reduction needs arithmetic over the degree-p subextension; '
            'v_omega1 = -1; v_omega2 = -5',
        ],
        {'config': {'p': 3,
                    'm': 2,
                    'residue': 'fp',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'element': '[t^-1; t^-5 + t^2]'},
         'trace': [],
         'verdict': 'unclassified',
         'evidence': {'reason': 'second component dominates; finishing the '
                                'reduction needs arithmetic over the degree-p '
                                'subextension',
                      'v_omega1': -1,
                      'v_omega2': -5,
                      'source': 'classify_len2'}},
    ),
]


@pytest.mark.parametrize(
    "argv, text_lines, record", RAM_ANALYZE_GOLDEN,
    ids=[case[0][-1] for case in RAM_ANALYZE_GOLDEN],
)
def test_ram_analyze_golden_transcripts(argv, text_lines, record):
    code, text = run_command(["ram", "analyze"] + argv)
    assert code == 0
    assert text.splitlines() == text_lines
    code, text = run_command(["ram", "analyze"] + argv + ["--format", "structured"])
    assert code == 0
    assert text == json.dumps(record)


# Recorded when norms were still determinants of the multiplication
# matrix: every `thm cyclic-to-insep` case here takes the norm branch
# (v(b) divisible by p), for m = 1 over F_2, F_3, F_2(u), F_3(u) and
# m = 2 over F_2, F_3, F_3(u).
CYCLIC_TO_INSEP_GOLDEN = [
    (
        ['--p', '2', '--omega', '[t^-3 + t]', '--b', 't^-2 + t^5'],
        [
            'c: t^-5 + t^-1 + t^2 + t^6 + O(t^59)',
            'v(c): -5',
            'note: c = N(x1) * b with v(N(x1)) coprime to p',
        ],
        {'config': {'p': 2,
                    'm': 1,
                    'residue': 'fp',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'omega': '[t^-3 + t]', 'b': 't^-2 + t^5'},
         'trace': [],
         'verdict': 't^-5 + t^-1 + t^2 + t^6 + O(t^59)',
         'evidence': {'c': 't^-5 + t^-1 + t^2 + t^6 + O(t^59)',
                      'v_c': -5,
                      'norm_factor': 't^-3 + t + O(t^61)',
                      'note': 'c = N(x1) * b with v(N(x1)) coprime to p'}},
    ),
    (
        ['--p', '3', '--omega', '[t^-1 + t]', '--b', 't^3'],
        [
            'c: t^2 + t^4 + O(t^63)',
            'v(c): 2',
            'note: c = N(x1) * b with v(N(x1)) coprime to p',
        ],
        {'config': {'p': 3,
                    'm': 1,
                    'residue': 'fp',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'omega': '[t^-1 + t]', 'b': 't^3'},
         'trace': [],
         'verdict': 't^2 + t^4 + O(t^63)',
         'evidence': {'c': 't^2 + t^4 + O(t^63)',
                      'v_c': 2,
                      'norm_factor': 't^-1 + t + O(t^63)',
                      'note': 'c = N(x1) * b with v(N(x1)) coprime to p'}},
    ),
    (
        ['--p', '2', '--residue', 'fp-u', '--omega', '[u*t^-1]',
         '--b', 't^2 + u*t^3'],
        [
            'c: u*t + u^2*t^2 + O(t^63)',
            'v(c): 1',
            'note: c = N(x1) * b with v(N(x1)) coprime to p',
        ],
        {'config': {'p': 2,
                    'm': 1,
                    'residue': 'fp-u',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'omega': '[u*t^-1]', 'b': 't^2 + u*t^3'},
         'trace': [],
         'verdict': 'u*t + u^2*t^2 + O(t^63)',
         'evidence': {'c': 'u*t + u^2*t^2 + O(t^63)',
                      'v_c': 1,
                      'norm_factor': 'u*t^-1 + O(t^63)',
                      'note': 'c = N(x1) * b with v(N(x1)) coprime to p'}},
    ),
    (
        ['--p', '3', '--residue', 'fp-u', '--omega', '[u*t^-2 + t]', '--b', 't^-3'],
        [
            'c: u*t^-5 + t^-2 + O(t^59)',
            'v(c): -5',
            'note: c = N(x1) * b with v(N(x1)) coprime to p',
        ],
        {'config': {'p': 3,
                    'm': 1,
                    'residue': 'fp-u',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'omega': '[u*t^-2 + t]', 'b': 't^-3'},
         'trace': [],
         'verdict': 'u*t^-5 + t^-2 + O(t^59)',
         'evidence': {'c': 'u*t^-5 + t^-2 + O(t^59)',
                      'v_c': -5,
                      'norm_factor': 'u*t^-2 + t + O(t^62)',
                      'note': 'c = N(x1) * b with v(N(x1)) coprime to p'}},
    ),
    (
        ['--p', '2', '--omega', '[t^-1; 0]', '--b', 't^2'],
        [
            'c: t^-1 + O(t^61)',
            'v(c): -1',
            'note: c = N(x2) * b with v(N(x2)) coprime to p',
        ],
        {'config': {'p': 2,
                    'm': 2,
                    'residue': 'fp',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'omega': '[t^-1; 0]', 'b': 't^2'},
         'trace': [],
         'verdict': 't^-1 + O(t^61)',
         'evidence': {'c': 't^-1 + O(t^61)',
                      'v_c': -1,
                      'norm_factor': 't^-3 + O(t^61)',
                      'note': 'c = N(x2) * b with v(N(x2)) coprime to p'}},
    ),
    (
        ['--p', '3', '--omega', '[t^-1; t^-2]', '--b', 't^3 + t^4'],
        [
            'c: 2*t^-4 + 2*t^-3 + t^-2 + 2*t^-1 + 1 + O(t^57)',
            'v(c): -4',
            'note: c = N(x2) * b with v(N(x2)) coprime to p',
        ],
        {'config': {'p': 3,
                    'm': 2,
                    'residue': 'fp',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'omega': '[t^-1; t^-2]', 'b': 't^3 + t^4'},
         'trace': [],
         'verdict': '2*t^-4 + 2*t^-3 + t^-2 + 2*t^-1 + 1 + O(t^57)',
         'evidence': {'c': '2*t^-4 + 2*t^-3 + t^-2 + 2*t^-1 + 1 + O(t^57)',
                      'v_c': -4,
                      'norm_factor': '2*t^-7 + t^-5 + t^-4 + O(t^57)',
                      'note': 'c = N(x2) * b with v(N(x2)) coprime to p'}},
    ),
    (
        ['--p', '3', '--residue', 'fp-u', '--omega', '[u*t^-1; t^-2]',
         '--b', 't^3 + t^4'],
        [
            'c: 2*u^7*t^-4 + (2*u^7+2*u^4+1)*t^-3 + (2*u^4+u+1)*t^-2 + '
            '(u^2+u)*t^-1 + u^2 + O(t^57)',
            'v(c): -4',
            'note: c = N(x2) * b with v(N(x2)) coprime to p',
        ],
        {'config': {'p': 3,
                    'm': 2,
                    'residue': 'fp-u',
                    'precision': 64,
                    'format': 'structured'},
         'inputs': {'omega': '[u*t^-1; t^-2]', 'b': 't^3 + t^4'},
         'trace': [],
         'verdict': '2*u^7*t^-4 + (2*u^7+2*u^4+1)*t^-3 + (2*u^4+u+1)*t^-2 + '
                    '(u^2+u)*t^-1 + u^2 + O(t^57)',
         'evidence': {'c': '2*u^7*t^-4 + (2*u^7+2*u^4+1)*t^-3 + '
                           '(2*u^4+u+1)*t^-2 + (u^2+u)*t^-1 + u^2 + O(t^57)',
                      'v_c': -4,
                      'norm_factor': '2*u^7*t^-7 + (2*u^4+1)*t^-6 + u*t^-5 + '
                                     'u^2*t^-4 + O(t^57)',
                      'note': 'c = N(x2) * b with v(N(x2)) coprime to p'}},
    ),
]


@pytest.mark.parametrize(
    "argv, text_lines, record", CYCLIC_TO_INSEP_GOLDEN,
    ids=[" ".join(case[0]) for case in CYCLIC_TO_INSEP_GOLDEN],
)
def test_cyclic_to_insep_golden_transcripts(argv, text_lines, record):
    code, text = run_command(["thm", "cyclic-to-insep"] + argv)
    assert code == 0
    assert text.splitlines() == text_lines
    code, text = run_command(
        ["thm", "cyclic-to-insep"] + argv + ["--format", "structured"]
    )
    assert code == 0
    assert text == json.dumps(record)


# -- exit code edges -------------------------------------------------------------

def test_m_flag_conflict_exits_2():
    code, text = run_command(["ram", "analyze", "--p", "2", "--m", "2", "t^-1"])
    assert code == 2
    assert text == "error: ShapeMismatch: --m 2 does not match an input of length 1"


def test_m_flag_matching_is_accepted():
    code, _ = run_command(["ram", "analyze", "--p", "2", "--m", "1", "t^-1"])
    assert code == 0


def test_prime_cap_exits_2():
    code, text = run_command(["ram", "analyze", "--p", "7", "t"])
    assert code == 2
    assert text == "error: LimitExceeded: universal polynomials capped at p <= 5"


def test_argparse_rejections_use_its_own_exit():
    # unknown choices never reach the handlers; argparse exits with code 2
    code, text = run_command(["ram", "analyze", "--p", "2", "--residue", "fq", "t"])
    assert code == 2
    assert text == ""
    code, text = run_command(["ram", "analyze", "--p", "2", "--format", "xml", "t"])
    assert code == 2
    assert text == ""


def test_newton_check_mismatch_exits_1(monkeypatch):
    monkeypatch.setattr(cli, "newton_classify_deg_p", lambda el: "split")
    code, text = run_command(
        ["oracle", "newton-check", "--p", "2", "--count", "5", "--seed", "7"]
    )
    assert code == 1
    lines = text.splitlines()
    assert lines[0].startswith("verdict: agreement ")
    assert any(line.startswith("mismatch: ") for line in lines[1:])


def test_newton_check_rejects_count_below_one():
    for count in ("0", "-1"):
        code, text = run_command(
            ["oracle", "newton-check", "--p", "2", "--count", count]
        )
        assert code == 2
        assert text == (
            f"error: UnsupportedInput: --count must be at least 1, got {count}"
        )


def test_precision_cap_exits_2():
    code, text = run_command(
        ["ram", "analyze", "--p", "2", "--precision", str(cli.MAX_PRECISION), "t^-1"]
    )
    assert code == 0
    over = str(cli.MAX_PRECISION + 1)
    for argv in STRUCTURED_COMMANDS:
        code, text = run_command(argv + ["--precision", over])
        assert code == 2, argv
        assert text == (
            f"error: LimitExceeded: --precision is at most {cli.MAX_PRECISION}, "
            f"got {over}"
        ), argv


def test_literal_precision_cap_exits_2():
    cap = cli.MAX_PRECISION
    code, _ = run_command(["ram", "analyze", "--p", "2", f"t^-1 + O(t^{cap})"])
    assert code == 0
    over = f"O(t^{cap + 1})"
    for argv in (
        ["ram", "analyze", "--p", "2", f"t^-1 + {over}"],
        ["witt", "add", "--p", "2", "[t; 0]", f"[t; t^2 + {over}]"],
        ["symbol", "normalize", "--p", "2", f"[[t^-2]; t^5 + {over})"],
        ["thm", "cyclic-to-insep", "--p", "3",
         "--omega", f"[t^-1 + t + {over}; t^-2]", "--b", "t^3 + t^4"],
        ["witt", "neg", "--p", "3", f"[t; t^2 + {over}]"],
        ["symbol", "rewrite", "--p", "2", f"[[t^2; t^4]; t^-1 + {over})"],
        ["thm", "insep-to-cyclic", "--p", "2", f"[[t^-1 + {over}]; t^-1)"],
        ["thm", "perfect", "--p", "3", f"[[t; 0]; t^2 + {over})"],
        ["thm", "disjoint-pair", "--p", "3", "--residue", "fp-u", "--m", "2",
         "--b", f"t + {over}"],
        ["thm", "roundtrip", "--p", "2", "--omega", f"[0; {over}]", "--b", "t"],
    ):
        assert run_command(argv) == (
            2,
            f"error: LimitExceeded: a literal's precision is at most {cap}, "
            f"got {over}",
        ), argv
    # parse errors and empty windows keep their own exit codes
    assert run_command(["witt", "add", "--p", "2", f"[t + {over}]", "[t^]"])[0] == 3
    assert run_command(["ram", "analyze", "--p", "2", "0 + O(t^-5)"])[0] == 4


def test_literal_exponent_bound_exits_2():
    # a term t^e with |e| > p^2 * max(|N|, 64) for the literal's O(t^N)
    bounded = "error: LimitExceeded: exponent {} outside the desk-scale range"
    assert run_command(["ram", "analyze", "--p", "2", "t^-100000"]) == (
        2, bounded.format(-100000)
    )
    # the first such term as written, before any literal's precision cap
    for argv, e in (
        (["ram", "analyze", "--p", "2", "t^-300 + t^-400 + O(t^20)"], -300),
        (["witt", "add", "--p", "2", "[t + O(t^5000)]", "[t^-300]"], -300),
        (["ram", "analyze", "--p", "2", "--precision", "-100", "t^-400 + t^-401"],
         -401),
    ):
        assert run_command(argv) == (2, bounded.format(e)), argv
    # every literal is parsed before any is bounded, so a parse error
    # anywhere exits 3, as it does next to a precision above the cap
    for deep in ("t^-100000", "t^-1 + O(t^5000)"):
        assert run_command(["witt", "neg", "--p", "2", f"[{deep}; (]"]) == (
            3, "error: ParseError: at offset "
            f"{len(deep) + 4}: found ']' (expected an integer, u)"
        )


def test_witt_add_of_deep_literals_transcript():
    # within the literal bound, nothing the group law computes is bounded
    a = "[t^-40 + O(t^280); t; t; 1]"
    assert run_command(["witt", "add", "--p", "2", a, a]) == (
        0, "[0 + O(t^240); t^-80; 0 + O(t^-16); 0 + O(t^-176)]"
    )


def test_count_cap_exits_2(monkeypatch):
    over = str(cli.MAX_COUNT + 1)
    code, text = run_command(["oracle", "newton-check", "--p", "2", "--count", over])
    assert code == 2
    assert text == (
        f"error: LimitExceeded: --count is at most {cli.MAX_COUNT}, got {over}"
    )
    monkeypatch.setattr(cli, "MAX_COUNT", 5)
    argv = ["oracle", "newton-check", "--p", "2", "--seed", "7", "--count"]
    assert run_command(argv + ["5"]) == (0, "verdict: agreement 5/5")
    assert run_command(argv + ["6"])[0] == 2


def test_every_package_error_exits_2(monkeypatch):
    def fail(args, *values):
        raise InternalInexactDivision("coefficient 3 not divisible by 2")

    monkeypatch.setattr(cli, "_cmd_witt_add", fail)
    code, text = run_command(["witt", "add", "--p", "2", "[t]", "[t]"])
    assert code == 2
    assert text == (
        "error: InternalInexactDivision: coefficient 3 not divisible by 2"
    )


def test_seed_flag_is_deterministic():
    one = run_command(["oracle", "newton-check", "--p", "3", "--count", "10",
                       "--seed", "3", "--residue", "fp-u"])
    two = run_command(["oracle", "newton-check", "--p", "3", "--count", "10",
                       "--seed", "3", "--residue", "fp-u"])
    assert one == two
    other = run_command(["oracle", "newton-check", "--p", "3", "--count", "10",
                         "--seed", "4", "--residue", "fp-u"])
    assert other[0] == 0


# -- structured schema -------------------------------------------------------------

STRUCTURED_COMMANDS = [
    ["witt", "add", "--p", "2", "[t; 0]", "[t; 0]"],
    ["witt", "neg", "--p", "3", "[t]"],
    ["ram", "analyze", "--p", "2", "t^-1"],
    ["symbol", "normalize", "--p", "2", "[[t^-2]; t^5)"],
    ["symbol", "rewrite", "--p", "2", "[[t^2; t^4]; t^-1)"],
    ["thm", "cyclic-to-insep", "--p", "2", "--omega", "[t^-1]", "--b", "t^2"],
    ["thm", "insep-to-cyclic", "--p", "2", "[[0]; t^-1)"],
    ["thm", "perfect", "--p", "3", "[[t; 0]; t^2)"],
    ["thm", "disjoint-pair", "--p", "3", "--residue", "fp-u", "--m", "2"],
    ["thm", "roundtrip", "--p", "2", "--omega", "[0; 0]", "--b", "t"],
    ["oracle", "ghost-check", "--p", "2"],
    ["oracle", "newton-check", "--p", "2", "--count", "5", "--seed", "1"],
]


# Each leaf's structured inputs at --precision 32, from literals known
# only to O(t^20): the window shows wherever it is below 32.
INPUTS_AT_32 = [
    (["witt", "add", "--p", "2", "[t; 0 + O(t^20)]", "[t + O(t^20); 0]"],
     {"a": "[t; 0 + O(t^20)]", "b": "[t + O(t^20); 0]"}),
    (["witt", "neg", "--p", "3", "[t + O(t^20)]"], {"a": "[t + O(t^20)]"}),
    (["ram", "analyze", "--p", "2", "[t^-1; 0 + O(t^20)]"],
     {"element": "[t^-1; 0 + O(t^20)]"}),
    (["ram", "analyze", "--p", "2", "t^-1 + O(t^20)"],
     {"element": "t^-1 + O(t^20)"}),
    (["symbol", "normalize", "--p", "2", "[[t^-2 + O(t^20)]; t^5)"],
     {"symbol": "[[t^-2 + O(t^20)]; t^5)"}),
    (["symbol", "rewrite", "--p", "2", "[[t^2; t^4 + O(t^20)]; t^-1)"],
     {"symbol": "[[t^2; t^4 + O(t^20)]; t^-1)"}),
    (["thm", "cyclic-to-insep", "--p", "2", "--omega", "[t^-1 + O(t^20)]",
      "--b", "t^2"],
     {"omega": "[t^-1 + O(t^20)]", "b": "t^2"}),
    (["thm", "insep-to-cyclic", "--p", "2", "[[0 + O(t^20)]; t^-1)"],
     {"symbol": "[[0 + O(t^20)]; t^-1)"}),
    (["thm", "perfect", "--p", "3", "[[t; 0 + O(t^20)]; t^2)"],
     {"symbol": "[[t; 0 + O(t^20)]; t^2)"}),
    (["thm", "disjoint-pair", "--p", "3", "--residue", "fp-u", "--m", "2"],
     {"b": "t"}),
    (["thm", "disjoint-pair", "--p", "3", "--residue", "fp-u", "--m", "2",
      "--b", "t + O(t^20)"],
     {"b": "t + O(t^20)"}),
    (["thm", "roundtrip", "--p", "2", "--omega", "[0; 0 + O(t^20)]", "--b", "t"],
     {"omega": "[0; 0 + O(t^20)]", "b": "t"}),
    (["oracle", "ghost-check", "--p", "2"], {}),
    (["oracle", "newton-check", "--p", "2", "--count", "5", "--seed", "1"],
     {"count": 5, "seed": 1}),
]


def test_command_tables_name_every_leaf():
    leaves = sorted((group, command) for group, command, *_ in cli._leaves())
    assert sorted(tuple(argv[:2]) for argv in STRUCTURED_COMMANDS) == leaves
    assert sorted({tuple(argv[:2]) for argv, _ in INPUTS_AT_32}) == leaves


def test_structured_inputs_render_at_precision():
    for argv, inputs in INPUTS_AT_32:
        code, text = run_command(
            argv + ["--precision", "32", "--format", "structured"]
        )
        assert code == 0, argv
        assert json.loads(text)["inputs"] == inputs, argv


def test_structured_schema_is_stable():
    for argv in STRUCTURED_COMMANDS:
        code, text = run_command(argv + ["--format", "structured"])
        assert code == 0, argv
        record = json.loads(text)
        assert sorted(record.keys()) == [
            "config", "evidence", "inputs", "trace", "verdict",
        ], argv
        assert sorted(record["config"].keys()) == [
            "format", "m", "p", "precision", "residue",
        ]
        assert isinstance(record["trace"], list)
        assert isinstance(record["inputs"], dict)
        assert isinstance(record["evidence"], dict)


def test_structured_errors_keep_the_schema():
    code, text = run_command(
        ["ram", "analyze", "--p", "2", "--format", "structured", "t^"]
    )
    assert code == 3
    record = json.loads(text)
    assert sorted(record.keys()) == [
        "config", "evidence", "inputs", "trace", "verdict",
    ]
    assert record["verdict"] == "error"
    assert record["evidence"]["error"] == "ParseError"


def test_structured_roundtrip_trace():
    code, text = run_command(
        ["thm", "roundtrip", "--p", "2", "--format", "structured",
         "--omega", "[0; 0]", "--b", "t"]
    )
    assert code == 0
    record = json.loads(text)
    assert record["verdict"] == "ok"
    assert [s["rule"] for s in record["trace"]] == [
        "power_adjust_b", "absorb", "same_b", "as_coboundary", "same_b",
    ]
    step = record["trace"][0]
    assert sorted(step.keys()) == ["after", "before", "params", "rule"]
    assert step["before"] == ["[[0; 0]; t)"]
    assert step["after"] == "[[0; 0]; t^-3 + O(t^60))"
    assert step["params"] == {"gamma": "t^-1"}
    assert record["evidence"]["v_c"] == -3
    assert record["evidence"]["output_classification"] == "totally_ramified"
    assert record["evidence"]["stages"] == [
        "insep_to_cyclic", "classify_cyclic", "cyclic_to_insep", "final_check",
    ]


def test_structured_verdicts_use_enum_values():
    code, text = run_command(
        ["ram", "analyze", "--p", "2", "--format", "structured", "t^-1"]
    )
    record = json.loads(text)
    assert record["verdict"] == "totally_ramified"
    assert record["evidence"]["v_x1"] == "-1/2"


# -- main() ---------------------------------------------------------------------

def test_main_prints_and_returns_code(capsys):
    code = main(["witt", "add", "--p", "2", "[t; 0]", "[t; 0]"])
    assert code == 0
    assert capsys.readouterr().out == "[0; t^2]\n"


def test_main_error_path(capsys):
    code = main(["ram", "analyze", "--p", "2", "t^"])
    assert code == 3
    assert capsys.readouterr().out.startswith("error: ParseError")


def _run_module(module):
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", module, "witt", "add", "--p", "2",
         "[t; 0]", "[t; 0]"],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    proc = _run_module("wittram")
    assert proc.returncode == 0
    assert proc.stdout == "[0; t^2]\n"
    assert proc.stderr == ""


def test_python_dash_m_cli_module_warns_nothing():
    # the package must not import cli itself, or runpy warns on stderr
    proc = _run_module("wittram.cli")
    assert proc.returncode == 0
    assert proc.stdout == "[0; t^2]\n"
    assert proc.stderr == ""


def _readme_examples():
    """(argv, output) for every `$ wittram ...` example in README.md; the
    output runs to the next blank line or code fence."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = iter(readme.read_text().splitlines())
    examples = []
    for line in lines:
        if not line.startswith("$ wittram "):
            continue
        out = []
        for line_out in lines:
            if not line_out or line_out.startswith("```"):
                break
            out.append(line_out)
        examples.append((shlex.split(line)[2:], "\n".join(out)))
    return examples


def test_readme_examples_match_output():
    examples = _readme_examples()
    assert examples
    for argv, output in examples:
        assert run_command(argv) == (0, output), argv
