"""Every command line ends in a documented exit code, never a traceback.

A seeded generator writes commands for every leaf that reads a literal,
from the grammar's pieces: coefficients (with u and fractions over
F_p(u)), t powers, O(t^N) windows (empty and negative ones included),
vectors and symbols.  Some literals are swapped for hostile ones that
once crashed the parser or that name a zero denominator, and some
commands run at --precision 0 or below.
"""

import random

from wittram import cli
from wittram.grammar import (
    MAX_U_DEGREE,
    parse_element,
    parse_laurent,
    parse_symbol,
    parse_witt,
)

HOSTILE = (
    "t^²",  # a superscript digit: str.isdigit() holds, int() refuses
    "²*t",
    "t^" + "9" * 5000,  # past Python's int-string limit
    "9" * 5000 + "*t^-1",
    f"(u^{MAX_U_DEGREE + 1})*t^-1",
    "((1)/(0))*t^-1",
    "((u)/(u+u))*t^-3",
    "O(t^-3)",
    "0 + O(t^0)",
    "t^-2 + O(t^-5)",
    "[t^-1; O(t^-2)]",
    "[[O(t^0)]; t^2 + O(t^2))",
)

SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))


def _coeff(rng, p, fpu):
    c = str(rng.randrange(1, 2 * p))
    if not fpu or rng.random() < 0.5:
        return c
    num = f"{c}*u^{rng.randrange(4)} + {rng.randrange(p)}"
    if rng.random() < 0.5:
        return f"({num})"
    return f"(({num})/(u^{rng.randrange(3)} + {rng.randrange(p)}))"


def _series(rng, p, fpu):
    if rng.random() < 0.06:
        return rng.choice(HOSTILE)
    window = rng.choice((None, None, 8, 2, 0, -1, -6))
    top = 12 if window is None else window
    exps = sorted(rng.sample(range(-12, max(top, -11) + 1), rng.randrange(4)))
    terms = [f"{_coeff(rng, p, fpu)}*t^{e}" for e in exps]
    if window is not None:
        terms.append(f"O(t^{window})")
    return " + ".join(terms) or "0"


def _vector(rng, p, m, fpu):
    return "[" + "; ".join(_series(rng, p, fpu) for _ in range(m)) + "]"


def _literal(rng, parse, p, m, fpu):
    """A literal for the grammar parser that reads it."""
    if parse is parse_laurent:
        return _series(rng, p, fpu)
    if parse is parse_witt:
        return _vector(rng, p, m, fpu)
    if parse is parse_symbol:
        return f"[{_vector(rng, p, m, fpu)}; {_series(rng, p, fpu)})"
    assert parse is parse_element
    return _vector(rng, p, m, fpu) if m > 1 else _series(rng, p, fpu)


def _commands(rng, count):
    """count command lines, cycling over every leaf that reads a literal
    (thm disjoint-pair reads its --b flag as one)."""
    leaves = [
        (group, command, literals)
        for group, command, _, literals, flags in cli._leaves()
        if literals or any(name == "--b" for name, _ in flags)
    ]
    out = []
    for k in range(count):
        group, command, literals = leaves[k % len(leaves)]
        literals = literals or (("--b", parse_laurent),)
        p, m = rng.choice(SHAPES)
        fpu = rng.random() < 0.5
        argv = [group, command, "--p", str(p),
                "--residue", "fp-u" if fpu else "fp"]
        precision = rng.choice((None, None, None, 0, -4, 16))
        if precision is not None:
            argv += ["--precision", str(precision)]
        for name, parse in literals:
            text = _literal(rng, parse, p, m, fpu)
            argv += [name, text] if name.startswith("--") else [text]
        out.append(argv)
    return out


def test_generated_commands_end_in_a_documented_exit_code():
    leaves_seen = set()
    for argv in _commands(random.Random(24), 150):
        code, _ = cli.run_command(argv)
        assert code in (0, 2, 3, 4), argv
        leaves_seen.add(tuple(argv[:2]))
    assert len(leaves_seen) == 10
