"""The three benchmark workloads: seeded item generators, warm-ups and checks.

Item code calls only names in ``wittram.__all__`` and
``wittram.cli.run_command``, so the same file runs against any commit that
keeps the public API.

Each item has
  * ``shape``: the label its share is reported under,
  * ``key``: its inputs rendered as text; no key repeats within a run,
  * ``run()``: the timed call; a replayed certificate is part of it,
  * ``check(out)``: the untimed output check,
  * ``outcome(out)``: the text whose hash is compared with the recorded
    digest (verdicts, v(c), rule names, rendered results, CLI text).

Items come in cycles.  A cycle holds a fixed number of items of each shape
in a seeded order, and a run measures whole cycles only, so every run has
the same mix of shapes whatever its seed.
"""

import math

from wittram import (
    BrauerSymbol,
    FieldKind,
    FieldSpec,
    LaurentElem,
    WittVector,
    artin_schreier_map,
    conjecture_roundtrip,
    cyclic_to_insep,
    frobenius_twist,
    lemma53_split,
    render_laurent,
    render_symbol,
    render_witt,
    sampling,
    witt_add,
    witt_neg,
)
from wittram.cli import run_command


class Item:
    __slots__ = ("shape", "key", "run", "check", "outcome")

    def __init__(self, shape, key, run, check, outcome):
        self.shape = shape
        self.key = key
        self.run = run
        self.check = check
        self.outcome = outcome


def _spec(p, rational):
    return FieldSpec(p, FieldKind.RATIONAL if rational else FieldKind.PRIME)


def _rule_names(trace):
    return ",".join(step.rule for step in trace.steps)


# ---------------------------------------------------------------------------
# Input builders shared by fpu_certify and the theorem commands of
# cli_session.  Series have one or two terms with u-polynomial coefficients
# of degree at most COEFF_DEG.  Residue fractions still grow long through
# inverses and norms, but the cost of one item stays within about one order
# of magnitude.  With the acceptance criteria's denser series and cubic
# coefficients, a few items in a hundred took seconds, and runs with
# different seeds disagreed by more than any useful bound.

COEFF_DEG = 1


def _series(rng, spec, exps, precision):
    return LaurentElem(spec, {
        e: sampling.random_residue(rng, spec, max_deg=COEFF_DEG, nonzero=True)
        for e in exps
    }, precision)


def _symbol_b(rng, spec, precision):
    """b = two terms, the lowest at a valuation coprime to p."""
    v = sampling.random_coprime_val(rng, spec.p, lo=-5, hi=5)
    return _series(rng, spec, (v, v + rng.randrange(1, 6)), precision)


def tr_inputs(rng, spec, m, precision):
    """Totally ramified omega (m = 1, 2) and b with p | v(b): the norm
    branch of cyclic_to_insep."""
    p = spec.p
    v1 = sampling.random_coprime_val(rng, p)
    comps = [_series(rng, spec, (v1,), precision)]
    if m == 2:
        # the second component stays above the level-2 cross term
        low = max((v1 * (p * p - p + 1)) // p + 1, -9)
        comps.append(_series(rng, spec, (rng.randrange(low, 5),), precision))
    unit = _series(rng, spec, (0, rng.randrange(1, 5)), precision)
    b = unit * LaurentElem.t_power(spec, p * rng.randrange(-2, 3), precision)
    return WittVector(p, m, comps), b


def symbol_inputs(rng, spec, m, precision):
    """One-term components and b with v(b) coprime to p."""
    omega = WittVector(spec.p, m, [
        _series(rng, spec, (rng.randrange(-4, 5),), precision)
        for _ in range(m)
    ])
    return omega, _symbol_b(rng, spec, precision)


def lemma53_inputs(rng, spec, precision):
    """(r, i, c, b) for lemma53_split with i coprime to p, as in the
    acceptance criterion."""
    p = spec.p
    i = rng.choice([j for j in range(-4, 7) if j % p])
    r = rng.randrange(1, p)
    c = _series(rng, spec, (rng.randrange(-2, 3),), precision)
    return r, i, c, _symbol_b(rng, spec, precision)


# ---------------------------------------------------------------------------
# fpu_certify: certified results over F_p(u), p in {2, 3}.  Residue fractions
# grow long here, so F_p[u] gcd, divmod and mul dominate.

FPU_SPECS = (_spec(2, True), _spec(3, True))

# (item maker, items per cycle and residue field).  The norm branch runs at
# m = 1 only: at m = 2 over F_3(u) single items took over a second, and one
# of them could set a whole run's throughput.
FPU_CYCLE = (
    (lambda rng, spec: _fpu_cyclic_to_insep(rng, spec), 1),
    (lambda rng, spec: _fpu_roundtrip(rng, spec, 1), 1),
    (lambda rng, spec: _fpu_roundtrip(rng, spec, 2), 2),
    (lambda rng, spec: _fpu_lemma53(rng, spec), 2),
)


def _fpu_cyclic_to_insep(rng, spec):
    """Norm branch of cyclic_to_insep at m = 1 and precision 32, then
    verify()."""
    omega, b = tr_inputs(rng, spec, 1, 32)
    p = spec.p

    def run():
        witness = cyclic_to_insep(omega, b)
        witness.verify()
        return witness

    def check(w):
        return (
            w.norm_factor is not None
            and w.c == w.norm_factor * b
            and math.gcd(w.c.val(), p) == 1
        )

    def outcome(w):
        return "|".join((
            w.report.classification.value,
            str(w.c.val()),
            render_laurent(w.c),
            render_laurent(w.norm_factor),
            w.note,
        ))

    key = f"{spec!r} {render_witt(omega)} {render_laurent(b)}"
    return Item("cyclic_to_insep m=1", key, run, check, outcome)


def _fpu_roundtrip(rng, spec, m):
    """conjecture_roundtrip at precision 64 with both certificates replayed."""
    omega, b = symbol_inputs(rng, spec, m, 64)

    def run():
        rt = conjecture_roundtrip(omega, b)
        rt.witness.verify()
        rt.construction.trace.validate()
        return rt

    def check(rt):
        return rt.ok and math.gcd(rt.witness.c.val(), spec.p) == 1

    def outcome(rt):
        return "|".join((
            ",".join(label for label, _ in rt.stages),
            rt.construction.report.classification.value,
            str(rt.witness.c.val()),
            _rule_names(rt.construction.trace),
            render_symbol(rt.construction.result_symbol),
        ))

    key = f"{spec!r} {render_witt(omega)} {render_laurent(b)}"
    return Item(f"conjecture_roundtrip m={m}", key, run, check, outcome)


def _fpu_lemma53(rng, spec):
    """lemma53_split at precision 32, then the trace is replayed."""
    r, i, c, b = lemma53_inputs(rng, spec, 32)

    def run():
        out = lemma53_split(r, i, c, b)
        out.trace.validate()
        return out

    def check(out):
        return out.trace.concludes_split

    def outcome(out):
        return _rule_names(out.trace)

    key = f"{spec!r} {r} {i} {render_laurent(c)} {render_laurent(b)}"
    return Item("lemma53_split", key, run, check, outcome)


def fpu_warm_up():
    _law_warm_up([(spec, m) for spec in FPU_SPECS for m in (1, 2)])


def fpu_cycle(rng):
    items = []
    for spec in FPU_SPECS:
        for make, count in FPU_CYCLE:
            for _ in range(count):
                items.append(make(rng, spec))
    return items


# ---------------------------------------------------------------------------
# fp_witt_law: the Witt group law over F_p at precision 64.  Coefficients
# are bare constants, so the cost is the number of universal-polynomial
# terms times the per-object cost of a series product.

WITT_PM = ((2, 4), (3, 3), (5, 3))

# (op, p, m, items per cycle).  Sorted by cost the blocks are: negations;
# (3,3) and add (2,4); as_map (2,4); (5,3).  The weights put the median near
# the middle of the second block and the 90th percentile near the middle of
# the third, so neither percentile sits on the edge between two cost levels.
# The two (5,3) items carry about half of the item time.
#
# (3,4) is left out: one add or as_map there took 0.6 to 0.9 s and its check
# 2.5 to 3.4 s, so a run of the allowed length held only a handful of them
# and they set the whole run's figures.
WITT_CYCLE = (
    ("neg", 2, 4, 2), ("neg", 3, 3, 2), ("neg", 5, 3, 2),
    ("add", 3, 3, 10), ("as_map", 3, 3, 10),
    ("add", 2, 4, 4), ("as_map", 2, 4, 4),
    ("add", 5, 3, 1), ("as_map", 5, 3, 1),
)


def _witt_vector(rng, p, m):
    """Components of two terms with distinct exponents in [-2, 5]."""
    spec = _spec(p, False)
    return WittVector(p, m, [
        _series(rng, spec, rng.sample(range(-2, 6), 2), 64) for _ in range(m)
    ])


def _is_negation(a, n):
    """For odd p the negative is componentwise, (-x)^(p^k) = -x^(p^k);
    for p = 2 the sum a + n must vanish."""
    if a.p == 2:
        return all(c.is_apparent_zero for c in witt_add(a, n).components)
    return all(x == -y for x, y in zip(a.components, n.components))


def _witt_item(rng, op, p, m):
    a = _witt_vector(rng, p, m)
    shape = f"{op} ({p},{m})"
    if op == "add":
        b = _witt_vector(rng, p, m)
        key = f"add {render_witt(a)} {render_witt(b)}"
        return Item(
            shape, key,
            lambda: witt_add(a, b),
            lambda c: witt_add(c, witt_neg(b)) == a,
            render_witt,
        )
    key = f"{op} {render_witt(a)}"
    if op == "neg":
        return Item(
            shape, key,
            lambda: witt_neg(a),
            lambda n: _is_negation(a, n),
            render_witt,
        )
    return Item(
        shape, key,
        lambda: artin_schreier_map(a),
        lambda s: witt_add(s, a) == frobenius_twist(a, 1),
        render_witt,
    )


def witt_cycle(rng):
    items = []
    for op, p, m, count in WITT_CYCLE:
        for _ in range(count):
            items.append(_witt_item(rng, op, p, m))
    return items


def _law_warm_up(specs_and_lengths):
    """Add and negate zero vectors at each (p, m): builds the group laws
    and nothing else."""
    for spec, m in specs_and_lengths:
        zero = WittVector(spec.p, m, [LaurentElem.zero(spec)] * m)
        witt_neg(witt_add(zero, zero))


def witt_warm_up():
    _law_warm_up([(_spec(p, False), m) for p, m in WITT_PM])


# ---------------------------------------------------------------------------
# cli_session: in-process run_command over every leaf command.  Inputs are
# rendered through grammar; about one command in eight must end in a
# documented error exit code.

DOCUMENTED_CODES = (0, 2, 3, 4)


def _opts(rng, p, residue, precision=None):
    argv = ["--p", str(p), "--residue", residue,
            "--format", rng.choice(("text", "structured"))]
    if precision is not None:
        argv += ["--precision", str(precision)]
    return argv


def _any_spec(rng, primes=(2, 3, 5)):
    p = rng.choice(primes)
    rational = rng.random() < 0.5
    return _spec(p, rational), ("fp-u" if rational else "fp")


def _cli_witt_add(rng):
    spec, residue = _any_spec(rng)
    m = rng.randrange(1, 3) if spec.p == 5 else rng.randrange(1, 4)
    a, b = (
        WittVector(spec.p, m, [
            sampling.random_laurent(rng, spec, vmin=-3, vmax=4, max_terms=3)
            for _ in range(m)
        ])
        for _ in range(2)
    )
    return ["witt", "add"] + _opts(rng, spec.p, residue) + [
        render_witt(a), render_witt(b)]


def _cli_witt_neg(rng):
    spec, residue = _any_spec(rng)
    m = rng.randrange(1, 4)
    a = WittVector(spec.p, m, [
        sampling.random_laurent(rng, spec, vmin=-3, vmax=4, max_terms=3)
        for _ in range(m)
    ])
    return ["witt", "neg"] + _opts(rng, spec.p, residue) + [render_witt(a)]


def _cli_ram_analyze(rng):
    spec, residue = _any_spec(rng)
    if rng.random() < 0.5:
        x = sampling.random_classify_input(rng, spec)
        text = render_laurent(x)
    else:
        text = render_witt(sampling.random_tr_vector_len2(rng, spec))
    return ["ram", "analyze"] + _opts(rng, spec.p, residue) + [text]


def _cli_ram_analyze_sparse(rng):
    """Sparse series at precision 512."""
    spec, residue = _any_spec(rng)
    p = spec.p
    terms = {}
    for e in rng.sample(range(-40, 400), rng.randrange(2, 5)):
        terms[e] = sampling.random_residue(rng, spec, nonzero=True)
    x = LaurentElem(spec, terms, 512)
    lead = min(terms)
    if lead < 0 and lead % p == 0:
        # keep a coprime leading exponent so the reduction does not stall
        x = x + LaurentElem.t_power(spec, lead - 1, 512)
    return ["ram", "analyze"] + _opts(rng, p, residue, 512) + [
        render_laurent(x, 512)]


def _symbol(rng, spec, m, precision=64):
    return BrauerSymbol(*symbol_inputs(rng, spec, m, precision))


def _cli_symbol_normalize(rng):
    spec, residue = _any_spec(rng, (2, 3))
    sym = _symbol(rng, spec, rng.randrange(1, 3))
    return ["symbol", "normalize"] + _opts(rng, spec.p, residue) + [
        render_symbol(sym)]


def _cli_symbol_rewrite(rng, with_root=True):
    """A length-2 symbol whose first component is a p-th power (or, for the
    error case, has a leading exponent coprime to p and so no p-th root)."""
    spec, residue = _any_spec(rng, (2, 3))
    p = spec.p
    c = _series(rng, spec, (rng.randrange(-2, 3),), 32)
    first = frobenius_twist(WittVector(p, 1, (c,)), 1).components[0]
    if not with_root:
        first = first + LaurentElem.t_power(
            spec, sampling.random_coprime_val(rng, p, -5, -1), first.precision
        )
    second = _series(rng, spec, (rng.randrange(-3, 4),), 32)
    omega = WittVector(p, 2, (first, second))
    b = _symbol_b(rng, spec, 32)
    return ["symbol", "rewrite"] + _opts(rng, p, residue) + [
        render_symbol(BrauerSymbol(omega, b))]


def _cli_cyclic_to_insep(rng):
    spec, residue = _any_spec(rng, (2, 3))
    # the length-2 norm over F_p(u) is left out, as in fpu_certify
    m = 1 if residue == "fp-u" else rng.randrange(1, 3)
    omega, b = tr_inputs(rng, spec, m, 32)
    return ["thm", "cyclic-to-insep"] + _opts(rng, spec.p, residue, 32) + [
        "--omega", render_witt(omega, 32), "--b", render_laurent(b, 32)]


def _cli_insep_to_cyclic(rng):
    spec, residue = _any_spec(rng, (2, 3))
    sym = _symbol(rng, spec, rng.randrange(1, 3))
    return ["thm", "insep-to-cyclic"] + _opts(rng, spec.p, residue) + [
        render_symbol(sym)]


def _cli_perfect(rng):
    p = rng.choice((2, 3, 5))
    spec = _spec(p, False)
    m = rng.randrange(1, 3) if p == 5 else rng.randrange(1, 4)
    omega = WittVector(p, m, [
        sampling.random_laurent(rng, spec, vmin=-4, vmax=4) for _ in range(m)
    ])
    sym = BrauerSymbol(omega, sampling.random_symbol_b(rng, spec))
    return ["thm", "perfect"] + _opts(rng, p, "fp") + [render_symbol(sym)]


def _cli_disjoint_pair(rng):
    p = rng.choice((2, 3, 5))
    spec = _spec(p, True)
    argv = ["thm", "disjoint-pair"] + _opts(rng, p, "fp-u") + [
        "--m", str(rng.randrange(1, 3))]
    b = sampling.random_symbol_b(rng, spec)
    return argv + ["--b", render_laurent(b)]


def _cli_roundtrip(rng):
    spec, residue = _any_spec(rng, (2, 3))
    sym = _symbol(rng, spec, rng.randrange(1, 3))
    return ["thm", "roundtrip"] + _opts(rng, spec.p, residue) + [
        "--omega", render_witt(sym.omega), "--b", render_laurent(sym.b)]


def _cli_ghost_check(rng):
    p = rng.choice((2, 3, 5))
    m = rng.randrange(1, 4)
    precision = rng.randrange(8, 257)
    return ["oracle", "ghost-check"] + _opts(
        rng, p, rng.choice(("fp", "fp-u")), precision) + ["--m", str(m)]


def _cli_newton_check(rng):
    spec, residue = _any_spec(rng, (2, 3))
    return ["oracle", "newton-check"] + _opts(rng, spec.p, residue) + [
        "--count", "4", "--seed", str(rng.randrange(10 ** 9))]


def _cli_parse_error(rng):
    """A rendered series with a dangling exponent: exit code 3."""
    spec, residue = _any_spec(rng)
    x = sampling.random_laurent(rng, spec, vmin=-4, vmax=4, nonzero=True)
    return ["ram", "analyze"] + _opts(rng, spec.p, residue) + [
        render_laurent(x) + " + t^"]


def _cli_empty_window(rng):
    """Zero known to an empty precision window: exit code 4."""
    spec, residue = _any_spec(rng)
    return ["ram", "analyze"] + _opts(rng, spec.p, residue) + [
        f"0 + O(t^{-rng.randrange(0, 10 ** 6)})"]


CLI_CYCLE = (
    ("witt add", _cli_witt_add, 3),
    ("witt neg", _cli_witt_neg, 2),
    ("ram analyze", _cli_ram_analyze, 4),
    ("ram analyze precision 512", _cli_ram_analyze_sparse, 1),
    ("symbol normalize", _cli_symbol_normalize, 2),
    ("symbol rewrite", _cli_symbol_rewrite, 1),
    ("thm cyclic-to-insep", _cli_cyclic_to_insep, 1),
    ("thm insep-to-cyclic", _cli_insep_to_cyclic, 1),
    ("thm perfect", _cli_perfect, 1),
    ("thm disjoint-pair", _cli_disjoint_pair, 1),
    ("thm roundtrip", _cli_roundtrip, 1),
    ("oracle ghost-check", _cli_ghost_check, 2),
    ("oracle newton-check", _cli_newton_check, 1),
    ("error: parse", _cli_parse_error, 1),
    ("error: empty window", _cli_empty_window, 1),
    ("error: no p-th root",
     lambda rng: _cli_symbol_rewrite(rng, with_root=False), 1),
)


def _cli_check(argv, result):
    code, text = result
    if code not in DOCUMENTED_CODES or "Traceback" in text:
        return False
    if argv[:2] == ["oracle", "newton-check"]:
        return code == 0 and ("agreement 4/4" in text)
    return True


def _cli_item(shape, argv):
    return Item(
        shape, " ".join(argv),
        lambda: run_command(argv),
        lambda result: _cli_check(argv, result),
        lambda result: f"{result[0]}|{result[1]}",
    )


def cli_cycle(rng):
    items = []
    for shape, make, count in CLI_CYCLE:
        for _ in range(count):
            items.append(_cli_item(shape, make(rng)))
    return items


def cli_warm_up():
    run_command(["ram", "analyze", "--p", "2", "t^-1"])


# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, make_cycle, warm_up):
        self.make_cycle = make_cycle
        self.warm_up = warm_up

    def cycles(self, seed):
        """Endless seeded cycles of items; no key repeats within one stream."""
        rng = sampling.make_rng(seed)
        seen = set()
        while True:
            cycle = []
            for item in self.make_cycle(rng):
                if item.key in seen:
                    continue
                seen.add(item.key)
                cycle.append(item)
            rng.shuffle(cycle)
            yield cycle


WORKLOADS = {
    "fpu_certify": Workload(fpu_cycle, fpu_warm_up),
    "fp_witt_law": Workload(witt_cycle, witt_warm_up),
    "cli_session": Workload(cli_cycle, cli_warm_up),
}
