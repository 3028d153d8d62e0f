"""Mutation score for the trust boundary: does Tier-1 reject a broken check?

Each mutant changes one spot of a target in a copy of the repository:

  compare    a comparison operator flipped to its negation (< to >=, == to
             !=, is to is not, in to not in)
  constant   an integer constant changed by one, up and down
  boolean    one conjunct or disjunct of an and/or dropped
  raise      a raise statement replaced by pass

and Tier-1 runs against it with -x.  A mutant is killed when a test fails
or the run passes its time limit, ten times the unmutated copy's Tier-1
wall time, and survives when every test passes.
Each survivor needs a test that kills it, or an argument that it is
equivalent.  Nothing here is collected by pytest, and only the standard
library is used.

    python3 tests/mutate.py --list          # the mutants, without running
    python3 tests/mutate.py                 # run them all (tens of minutes)
    python3 tests/mutate.py --only 12 40    # run mutants 12 and 40
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module under src/wittram, dotted name inside it or None for the module)
TARGETS = (
    ("brauer", None),
    ("theorems", None),
    ("extension", "_len2_verdict"),
    ("extension", "classify_deg_p"),
    ("coeff", "in_AS_image"),
    ("valued", "power_precision"),
    ("valued", "mul_ints"),
    ("witt", "_eval_law"),
    ("grammar", "MAX_U_DEGREE"),
    ("grammar", "_int"),
    ("grammar", "_parse_u_atom"),
)

_FLIP = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


class Mutant:
    __slots__ = ("module", "target", "kind", "span", "text", "note")

    def __init__(self, module, target, node, kind, text, note):
        self.module, self.target, self.kind = module, target, kind
        self.span = (node.lineno, node.col_offset,
                     node.end_lineno, node.end_col_offset)
        self.text, self.note = text, note

    def __str__(self):
        where = self.module + ("." + self.target if self.target else "")
        return f"{where}:{self.span[0]} {self.kind}: {self.note}"


def _find(tree, dotted):
    """The node a dotted name defines: a function, a class, a method or
    an assigned module constant."""
    body = tree.body
    for part in dotted.split("."):
        node = next(
            n for n in body
            if getattr(n, "name", None) == part
            or isinstance(n, ast.Assign)
            and any(getattr(t, "id", None) == part for t in n.targets)
        )
        body = getattr(node, "body", [])
    return node


def _mutants_in(module, target, root, source):
    def mutant(node, kind, replacement, note):
        return Mutant(module, target, node, kind, replacement, note)

    # f-string parts: messages only, and their positions are unreliable
    skip = {id(n) for f in ast.walk(root) if isinstance(f, ast.JoinedStr)
            for n in ast.walk(f)}
    for node in ast.walk(root):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                new = ast.Compare(
                    node.left,
                    node.ops[:k] + [_FLIP[type(op)]()] + node.ops[k + 1:],
                    node.comparators,
                )
                text = f"({ast.unparse(new)})"
                yield mutant(node, "compare", text,
                             f"{ast.get_source_segment(source, node)}  ->  {text}")
        elif isinstance(node, ast.BoolOp):
            for k in range(len(node.values)):
                rest = node.values[:k] + node.values[k + 1:]
                new = rest[0] if len(rest) == 1 else ast.BoolOp(node.op, rest)
                text = f"({ast.unparse(new)})"
                yield mutant(node, "boolean", text,
                             f"drop {ast.unparse(node.values[k])!r}")
        elif isinstance(node, ast.Raise):
            yield mutant(node, "raise", "pass",
                         f"drop {ast.unparse(node)[:60]!r}")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for delta in (1, -1):
                text = repr(node.value + delta)
                yield mutant(node, "constant", text,
                             f"{node.value}  ->  {text}")


def mutants():
    out = []
    for module, target in TARGETS:
        source = (ROOT / "src" / "wittram" / f"{module}.py").read_text()
        tree = ast.parse(source)
        root = tree if target is None else _find(tree, target)
        out.extend(_mutants_in(module, target, root, source))
    out.sort(key=lambda m: (m.module, m.span))
    return out


def apply(mutant, source):
    """The module source with the mutant's span replaced by its text
    (ast column offsets count UTF-8 bytes)."""
    lines = source.encode().splitlines(keepends=True)
    l0, c0, l1, c1 = mutant.span
    head = b"".join(lines[:l0 - 1]) + lines[l0 - 1][:c0]
    tail = lines[l1 - 1][c1:] + b"".join(lines[l1:])
    return (head + mutant.text.encode() + tail).decode()


def run_tier1(workdir, timeout):
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="print the numbered mutants and exit")
    parser.add_argument("--only", type=int, nargs="+",
                        help="run only these mutant numbers")
    args = parser.parse_args()

    found = mutants()
    if args.list:
        for n, m in enumerate(found):
            print(f"{n:4d}  {m}")
        print(f"{len(found)} mutants")
        return 0
    chosen = args.only if args.only else range(len(found))

    workdir = Path(tempfile.mkdtemp(prefix="wittram-mutate-"))
    try:
        skip = shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, workdir, dirs_exist_ok=True, ignore=skip)
        start = time.monotonic()
        if run_tier1(workdir, None) != "survived":
            print("Tier-1 does not pass on the unmutated copy", file=sys.stderr)
            return 2
        # a mutant that loops or slows Tier-1 tenfold counts as killed
        limit = 10 * (time.monotonic() - start)
        counts, survivors = {}, []
        for n in chosen:
            m = found[n]
            path = workdir / "src" / "wittram" / f"{m.module}.py"
            original = path.read_text()
            path.write_text(apply(m, original))
            start = time.monotonic()
            try:
                verdict = run_tier1(workdir, limit)
            finally:
                path.write_text(original)
            counts[verdict] = counts.get(verdict, 0) + 1
            if verdict == "survived":
                survivors.append((n, m))
            print(f"{n:4d}  {verdict:8s} {time.monotonic() - start:5.1f}s  {m}",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    total = sum(counts.values())
    dead = total - counts.get("survived", 0)
    print(f"score {dead}/{total} killed "
          f"({counts.get('timeout', 0)} by the {limit:.0f} s time limit)")
    for n, m in survivors:
        print(f"survivor {n}: {m}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
