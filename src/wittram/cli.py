"""Command-line surface.

Every command takes --p, --m, --residue {fp,fp-u}, --precision N and
--format {text,structured}.  Structured mode prints one JSON record per
command with the keys {config, inputs, trace, verdict, evidence}.
run_command renders every literal input at --precision; a handler
reports only the inputs that are not literals.  Text verdict names come
from the Classification enum (totally_ramified -> TotallyRamified).

Exit codes: 0 success, 2 violated or unverifiable hypotheses and other
domain errors, 3 parse errors, 4 precision exhausted.

Work is bounded: --precision above MAX_PRECISION, a literal whose
O(t^N) is above it, a literal term t^e with |e| > p^2 * max(|N|, 64),
and newton-check's --count above MAX_COUNT exit 2 with LimitExceeded.
The parser rejects u^k with k above grammar.MAX_U_DEGREE before it
builds the polynomial, and integers past Python's int-string limit;
both exit 3.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .brauer import (
    BrauerSymbol,
    RewriteTrace,
    lemma54_rewrite,
    normalize_symbol,
)
from .coeff import FieldKind, FieldSpec, ResidueElem
from .errors import (
    LimitExceeded,
    ParseError,
    PrecisionExhausted,
    ShapeMismatch,
    UnsupportedCase,
    UnsupportedInput,
    WittramError,
)
from .extension import Classification, RamReport, classify
from .grammar import (
    parse_element,
    parse_laurent,
    parse_symbol,
    parse_witt,
    render_laurent,
    render_residue,
    render_symbol,
    render_witt,
)
from .newton import newton_classify_deg_p
from .theorems import (
    SubfieldWitness,
    _insep_to_cyclic,
    build_disjoint_division_pair,
    conjecture_roundtrip,
    cyclic_to_insep,
    insep_to_cyclic_perfect,
)
from .valued import DEFAULT_PRECISION, LaurentElem
from .witt import WittVector, _check_caps, ghost_polys, sum_polys, witt_neg
from . import sampling

# Series products and inverses are quadratic in the precision window, a
# norm is m(p-1) products in the extension with no inverse, and each
# newton-check draw is classified twice; see README for the measured cost
# at each cap.
MAX_PRECISION = 1024
MAX_COUNT = 1000


def _base_spec(args):
    _check_caps(args.p, 1)
    if args.precision > MAX_PRECISION:
        raise LimitExceeded(
            f"--precision is at most {MAX_PRECISION}, got {args.precision}"
        )
    kind = FieldKind.PRIME if args.residue == "fp" else FieldKind.RATIONAL
    return FieldSpec(args.p, kind)


def _parse_literals(args, spec, literals):
    """Parse each (argparse name, grammar parser) literal of args at
    --precision, then bound every series, vector component or symbol slot
    written in them: the first term t^e with |e| > p^2 * max(|N|, 64)
    for its O(t^N) raises LimitExceeded, and after that any O(t^N) with
    N > MAX_PRECISION.  Every literal is parsed before any is bounded,
    so a parse error anywhere exits 3."""
    values = [
        parse(getattr(args, name.lstrip("-")), spec, args.precision)
        for name, parse in literals
    ]
    series = []
    for value in values:
        if isinstance(value, BrauerSymbol):
            series.extend(value.omega.components + (value.b,))
        elif isinstance(value, WittVector):
            series.extend(value.components)
        else:
            series.append(value)
    for x in series:
        limit = spec.p * spec.p * max(abs(x.precision), DEFAULT_PRECISION)
        for e in x.terms:
            if abs(e) > limit:
                raise LimitExceeded(f"exponent {e} outside the desk-scale range")
    for x in series:
        if x.precision > MAX_PRECISION:
            raise LimitExceeded(
                f"a literal's precision is at most {MAX_PRECISION}, "
                f"got O(t^{x.precision})"
            )
    return values


def _resolve_m(args, inferred):
    if args.m is not None and args.m != inferred:
        raise ShapeMismatch(
            f"--m {args.m} does not match an input of length {inferred}"
        )
    _check_caps(args.p, inferred)
    return inferred


def _plain(value, precision=None):
    """A JSON value for value.  Series, vectors and symbols are rendered
    with precision as the default window, whose O(t^N) is left out."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Classification):
        return value.value
    if isinstance(value, LaurentElem):
        return render_laurent(value, precision)
    if isinstance(value, WittVector):
        return render_witt(value, precision)
    if isinstance(value, BrauerSymbol):
        return render_symbol(value, precision)
    if isinstance(value, ResidueElem):
        return render_residue(value)
    if isinstance(value, dict):
        return {str(k): _plain(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, precision) for v in value]
    return str(value)


def _trace_records(trace):
    if trace is None:
        return []
    if isinstance(trace, RewriteTrace):
        return [
            {
                "rule": step.rule,
                "before": [_plain(x) for x in step.before],
                "after": _plain(step.after),
                "params": _plain(step.params),
            }
            for step in trace.steps
        ]
    return [_plain(step) for step in trace]


def _trace_lines(trace):
    """The text line naming each step of the trace; none for no steps."""
    if isinstance(trace, RewriteTrace):
        names = [step.rule for step in trace.steps]
    else:
        names = [str(step) for step in trace or ()]
    if not names:
        return []
    return [f"trace ({len(names)} steps): " + ", ".join(names)]


def _verdict_name(classification):
    """The text name of a verdict: totally_ramified -> TotallyRamified."""
    return classification.value.title().replace("_", "")


class _Report:
    """What a command alone knows of its output: the structured verdict,
    evidence, trace and any inputs that are not literals, plus text lines.
    run_command renders the literal inputs."""

    def __init__(self, m, verdict, evidence=None, trace=None,
                 text_lines=None, failed=False, inputs=None):
        self.m = m
        self.verdict = verdict
        self.evidence = evidence or {}
        self.trace = trace
        self.text_lines = text_lines or [str(verdict)]
        self.failed = failed
        self.inputs = inputs or {}


def _classification_lines(report):
    lines = [f"verdict: {_verdict_name(report.classification)}"]
    if report.evidence:
        bits = []
        for k, v in report.evidence.items():
            pv = _plain(v)
            if isinstance(pv, (dict, list)):
                pv = json.dumps(pv)
            bits.append(f"{k} = {pv}")
        lines.append("evidence: " + "; ".join(bits))
    return lines + _trace_lines(report.trace)


def _cmd_witt_add(args, spec, a, b):
    if a.m != b.m:
        raise ShapeMismatch(f"lengths differ: {a.m} vs {b.m}")
    m = _resolve_m(args, a.m)
    return _Report(m, render_witt(a + b, args.precision))


def _cmd_witt_neg(args, spec, a):
    m = _resolve_m(args, a.m)
    return _Report(m, render_witt(witt_neg(a), args.precision))


def _cmd_ram_analyze(args, spec, el):
    if isinstance(el, BrauerSymbol):
        raise ShapeMismatch("analyze takes a series or a vector, not a symbol")
    m = _resolve_m(args, el.m if isinstance(el, WittVector) else 1)
    report = classify(el)
    return _Report(
        m,
        report.classification,
        evidence=dict(report.evidence, source=report.source),
        trace=report.trace,
        text_lines=_classification_lines(report),
    )


def _rewrite_report(args, m, out, evidence):
    rendered = render_symbol(out.symbol, args.precision)
    return _Report(
        m,
        rendered,
        evidence=evidence,
        trace=out.trace,
        text_lines=[f"result: {rendered}"] + _trace_lines(out.trace),
    )


def _cmd_symbol_normalize(args, spec, sym):
    m = _resolve_m(args, sym.m)
    out = normalize_symbol(sym)
    return _rewrite_report(args, m, out, {"v_b": out.symbol.b.val()})


def _cmd_symbol_rewrite(args, spec, sym):
    m = _resolve_m(args, sym.m)
    if m != 2:
        raise UnsupportedCase("the rewrite is stated for length-2 vectors")
    out = lemma54_rewrite(sym)
    out.trace.validate()
    return _rewrite_report(args, m, out, {"steps": len(out.trace)})


def _cmd_thm_cyclic_to_insep(args, spec, omega, b):
    m = _resolve_m(args, omega.m)
    witness = cyclic_to_insep(omega, b)
    witness.verify()
    c_text = render_laurent(witness.c, args.precision)
    evidence = {
        "c": witness.c,
        "v_c": witness.c.val(),
        "norm_factor": witness.norm_factor,
        "note": witness.note,
    }
    lines = [
        f"c: {c_text}",
        f"v(c): {witness.c.val()}",
        f"note: {witness.note}",
    ]
    return _Report(
        m,
        c_text,
        evidence=evidence,
        trace=witness.report.trace,
        text_lines=lines,
    )


def _cmd_thm_construction(build, args, spec, sym):
    """thm insep-to-cyclic and thm perfect: build(sym) is the construction."""
    _resolve_m(args, sym.m)
    construction = build(sym)
    construction.trace.validate()
    rendered = render_symbol(construction.result_symbol, args.precision)
    evidence = dict(construction.report.evidence)
    evidence["result"] = rendered
    evidence["evidence_level"] = construction.evidence_level
    lines = [f"result: {rendered}"]
    lines.extend(_classification_lines(construction.report))
    lines.append(f"note: {construction.note}")
    return _Report(
        construction.m,
        construction.report.classification,
        evidence=evidence,
        trace=construction.trace,
        text_lines=lines + _trace_lines(construction.trace),
    )


def _cmd_thm_disjoint_pair(args, spec):
    m = args.m if args.m is not None else 1
    _check_caps(args.p, m)
    b = None
    if args.b is not None:
        (b,) = _parse_literals(args, spec, (("--b", parse_laurent),))
    pair = build_disjoint_division_pair(spec, b, m)
    classes = [render_residue(a) for a in pair.classes]
    evidence = {
        "classes": classes,
        "sweep": pair.sweep,
        "degree_each": pair.first.p ** pair.first.m,
        "v_b": pair.first.v_b,
        "note": pair.note,
    }
    lines = [
        f"classes: {classes[0]}, {classes[1]}",
        f"sweep: {pair.sweep['combinations_checked']} combinations, "
        "no nontrivial combination is a coboundary",
        "verdict: division_pair",
        f"note: {pair.note}",
    ]
    return _Report(
        m,
        "division_pair",
        evidence=evidence,
        text_lines=lines,
        inputs={"b": "t" if b is None else b},
    )


def _stage_summary(payload):
    if isinstance(payload, str):
        return payload
    if isinstance(payload, RamReport):
        return _verdict_name(payload.classification)
    if isinstance(payload, SubfieldWitness):
        return f"c = {render_laurent(payload.c)}, v(c) = {payload.c.val()}"
    return _verdict_name(payload.report.classification)


def _cmd_thm_roundtrip(args, spec, omega, b):
    m = _resolve_m(args, omega.m)
    report = conjecture_roundtrip(omega, b)
    lines = []
    for label, payload in report.stages:
        lines.append(f"stage {label}: {_stage_summary(payload)}")
    verdict = "ok" if report.ok else "failed"
    lines.append(f"verdict: {verdict}")
    evidence = {
        "v_c": report.witness.c.val(),
        "output_classification": report.construction.report.classification,
        "evidence_level": report.construction.evidence_level,
        "stages": [label for label, _ in report.stages],
    }
    return _Report(
        m,
        verdict,
        evidence=evidence,
        trace=report.construction.trace,
        text_lines=lines,
    )


def _cmd_oracle_ghost_check(args, spec):
    m = args.m if args.m is not None else 2
    _check_caps(args.p, m)
    ghosts = ghost_polys(args.p, m)
    sums = sum_polys(args.p, m)
    checked = 0
    for n in range(m):
        w = ghosts[n]
        lhs = w.evaluate(sums)
        rhs = w.map_vars({i: i for i in range(m)}, 2 * m) + w.map_vars(
            {i: m + i for i in range(m)}, 2 * m
        )
        if lhs != rhs:
            return _Report(
                m,
                "mismatch",
                evidence={"level": n},
                text_lines=[f"verdict: mismatch at level {n}"],
            )
        checked += 1
    return _Report(
        m,
        "ok",
        evidence={"levels_checked": checked},
        text_lines=[f"verdict: ok ({checked} ghost identities)"],
    )


def _cmd_oracle_newton_check(args, spec):
    m = _resolve_m(args, 1)
    if args.count < 1:
        raise UnsupportedInput(f"--count must be at least 1, got {args.count}")
    if args.count > MAX_COUNT:
        raise LimitExceeded(f"--count is at most {MAX_COUNT}, got {args.count}")
    rng = sampling.make_rng(args.seed)
    agree = 0
    mismatches = []
    for _ in range(args.count):
        omega1 = sampling.random_classify_input(rng, spec, args.precision)
        got = classify(omega1).classification.value
        want = newton_classify_deg_p(omega1)
        if got == want or "unclassified" in (got, want):
            agree += 1
        else:
            mismatches.append(
                {"input": render_laurent(omega1), "got": got, "want": want}
            )
    verdict = f"agreement {agree}/{args.count}"
    lines = [f"verdict: {verdict}"]
    for item in mismatches[:5]:
        lines.append(
            f"mismatch: {item['input']} gave {item['got']}, "
            f"oracle says {item['want']}"
        )
    return _Report(
        m,
        verdict,
        evidence={"agreements": agree, "mismatches": mismatches[:5]},
        text_lines=lines,
        failed=bool(mismatches),
        inputs={"count": args.count, "seed": args.seed},
    )


# Help text of each command group, in the order --help lists them.
_GROUPS = {
    "witt": "vector arithmetic",
    "ram": "ramification analysis",
    "symbol": "symbol rewrites",
    "thm": "construction pipelines",
    "oracle": "independent checks",
}


def _leaves():
    """Every leaf command as (group, command, handler, literals, flags).

    A literal is an argparse name and the grammar parser that reads it;
    run_command parses and caps them all before calling
    handler(args, spec, *values).  A flag is an argparse name and its
    add_argument options.  The table is built on each call, so it holds
    the handlers and parsers the module binds when a command runs.
    """
    symbol = (("symbol", parse_symbol),)
    omega_b = (("--omega", parse_witt), ("--b", parse_laurent))
    return (
        ("witt", "add", _cmd_witt_add,
         (("a", parse_witt), ("b", parse_witt)), ()),
        ("witt", "neg", _cmd_witt_neg, (("a", parse_witt),), ()),
        ("ram", "analyze", _cmd_ram_analyze,
         (("element", parse_element),), ()),
        ("symbol", "normalize", _cmd_symbol_normalize, symbol, ()),
        ("symbol", "rewrite", _cmd_symbol_rewrite, symbol, ()),
        ("thm", "cyclic-to-insep", _cmd_thm_cyclic_to_insep, omega_b, ()),
        ("thm", "insep-to-cyclic",
         functools.partial(_cmd_thm_construction, _insep_to_cyclic), symbol, ()),
        ("thm", "perfect",
         functools.partial(_cmd_thm_construction, insep_to_cyclic_perfect),
         symbol, ()),
        # --b is parsed after the --m check, by the handler
        ("thm", "disjoint-pair", _cmd_thm_disjoint_pair, (),
         (("--b", {"default": None}),)),
        ("thm", "roundtrip", _cmd_thm_roundtrip, omega_b, ()),
        ("oracle", "ghost-check", _cmd_oracle_ghost_check, (), ()),
        ("oracle", "newton-check", _cmd_oracle_newton_check, (), (
            ("--count", {"type": int, "default": 100,
                         "help": f"number of random inputs (1 to {MAX_COUNT})"}),
            ("--seed", {"type": int, "default": 0}),
        )),
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wittram",
        description="Witt vectors, ramification analysis, and symbol "
        "rewrites over Laurent series fields.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True,
                        help="residue characteristic (a prime, at most 5)")
    common.add_argument("--m", type=int, default=None,
                        help="vector length (inferred from input if omitted)")
    common.add_argument("--residue", choices=("fp", "fp-u"), default="fp",
                        help="residue field: the prime field or F_p(u)")
    common.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                        help=f"default series precision (at most {MAX_PRECISION})")
    common.add_argument("--format", choices=("text", "structured"),
                        default="text", help="output mode")

    top = parser.add_subparsers(dest="group", required=True)
    groups = {
        name: top.add_parser(name, help=text).add_subparsers(
            dest="command", required=True)
        for name, text in _GROUPS.items()
    }
    for group, command, handler, literals, flags in _leaves():
        leaf = groups[group].add_parser(command, parents=[common])
        for name, _ in literals:
            if name.startswith("--"):
                leaf.add_argument(name, required=True)
            else:
                leaf.add_argument(name)
        for name, options in flags:
            leaf.add_argument(name, **options)
        leaf.set_defaults(handler=handler, literals=literals)
    return parser


def _record(args, m, inputs, trace, verdict, evidence):
    """One structured record with the schema's five keys."""
    return json.dumps({
        "config": {"p": args.p, "m": m, "residue": args.residue,
                   "precision": args.precision, "format": args.format},
        "inputs": inputs,
        "trace": trace,
        "verdict": verdict,
        "evidence": evidence,
    })


def _error_text(args, code_name, message):
    if args.format == "structured":
        return _record(args, args.m, {}, [], "error",
                       {"error": code_name, "message": message})
    return f"error: {code_name}: {message}"


def run_command(argv):
    """Run one command; returns (exit_code, output_text).

    Structured output renders every literal input at --precision, then
    the inputs the handler reports."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return code, ""
    try:
        spec = _base_spec(args)
        values = _parse_literals(args, spec, args.literals)
        report = args.handler(args, spec, *values)
    except ParseError as exc:
        return 3, _error_text(args, "ParseError", str(exc))
    except PrecisionExhausted as exc:
        return 4, _error_text(args, "PrecisionExhausted", str(exc))
    except WittramError as exc:
        return 2, _error_text(args, type(exc).__name__, str(exc))
    code = 1 if report.failed else 0
    if args.format == "text":
        return code, "\n".join(report.text_lines)
    inputs = {
        name.lstrip("-"): value
        for (name, _), value in zip(args.literals, values)
    }
    inputs.update(report.inputs)
    return code, _record(
        args, report.m, _plain(inputs, args.precision),
        _trace_records(report.trace), _plain(report.verdict),
        _plain(report.evidence),
    )


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    code, text = run_command(argv)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
