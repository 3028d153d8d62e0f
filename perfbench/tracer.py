"""Per-layer spans for wittram, recorded from outside the package.

The tracer wraps the public functions of each module and the operator
methods of the value classes.  A module function is also bound, by
``from .x import f``, in every module that imports it, so it is replaced at
every binding found in ``sys.modules``; an operator method is replaced on
its class.  ``uninstall()`` restores every original binding.

Spans are aggregated as they close: per span name, the number of calls and
the self time, which is the span's duration minus the time covered by the
spans it caused.  A child's bookkeeping, before and after its call, counts
as time covered by the child, so a parent's self time does not include its
children's tracing cost.

A target that does not exist at the traced commit (a later change may
remove an internal such as ``sum_polys`` or ``witt_reduce``) is listed in
``missing``; a metric none of whose targets exist is reported as missing
rather than raising.
"""

import bisect
import collections
import sys
from time import perf_counter

# span name -> (module, attribute) targets; "Class.method" names a method.
SPANS = {
    "coeff.mul": [("coeff", "ResidueElem.__mul__")],
    "coeff.add": [("coeff", "ResidueElem.__add__")],
    "coeff.inverse": [("coeff", "ResidueElem.inverse")],
    "coeff.pow": [("coeff", "ResidueElem.__pow__")],
    "coeff.root": [("coeff", "pth_root"), ("coeff", "nth_root")],
    "valued.add": [("valued", "LaurentElem.__add__")],
    "valued.mul": [("valued", "LaurentElem.__mul__")],
    "valued.inverse": [("valued", "LaurentElem.inverse")],
    "valued.pow": [("valued", "LaurentElem.__pow__")],
    "valued.frobenius": [("valued", "frobenius_power")],
    "witt.add": [("witt", "witt_add")],
    "witt.neg": [("witt", "witt_neg")],
    "witt.as_map": [("witt", "artin_schreier_map")],
    "witt.law_build": [("witt", "sum_polys"), ("witt", "neg_polys")],
    "extension.reduce": [("extension", "as_reduce"), ("extension", "witt_reduce")],
    "extension.classify": [
        ("extension", "classify_deg_p"), ("extension", "classify_len2"),
    ],
    "extension.norm": [("extension", "norm_element")],
    "brauer.rewrite": [
        ("brauer", "lemma53_split"), ("brauer", "lemma54_rewrite"),
        ("brauer", "normalize_symbol"), ("brauer", "is_split_quick"),
    ],
    "brauer.validate": [("brauer", "RewriteTrace.validate")],
    "theorems.construct": [
        ("theorems", name) for name in (
            "cyclic_to_insep", "insep_to_cyclic_p", "insep_to_cyclic_p2",
            "insep_to_cyclic_perfect", "conjecture_roundtrip",
            "division_certificate", "build_disjoint_division_pair",
            "insep_normal_form",
        )
    ],
    "grammar.parse": [
        ("grammar", name) for name in (
            "parse_laurent", "parse_witt", "parse_symbol", "parse_element",
        )
    ],
    "grammar.render": [
        ("grammar", name) for name in (
            "render_residue", "render_laurent", "render_witt", "render_symbol",
        )
    ],
    "cli.command": [("cli", "run_command")],
    "newton.classify": [("newton", "newton_classify_deg_p")],
}

# The cache wrapper around a universal-polynomial builder is itself called
# on every group-law evaluation, so only its build time is reported.
TIME_ONLY = {"witt.law_build": "witt.law_build_s"}


def _operand_len(x):
    return max(len(x.num), len(x.den))


class Tracer:
    def __init__(self):
        self.enabled = True
        self.stack = []
        self.stats = {name: [0, 0.0] for name in SPANS}
        self.counts = collections.Counter()
        self.operand_lens = collections.Counter()
        self.missing = []
        self.present = set()
        self.originals = collections.defaultdict(list)
        self._bindings = []
        self._observers = {
            "coeff.mul": self._observe_residue,
            "coeff.add": self._observe_residue,
            "valued.mul": self._observe_series_mul,
            "extension.reduce": self._observe_reduce,
            "extension.classify": self._observe_classify,
            "brauer.validate": self._observe_validate,
            "grammar.parse": self._observe_parse,
            "cli.command": self._observe_command,
        }

    # -- installing ---------------------------------------------------------

    def install(self):
        found = collections.Counter()
        for span, targets in SPANS.items():
            for module_name, attr in targets:
                module = sys.modules.get(f"wittram.{module_name}")
                if self._wrap(span, module, attr):
                    found[span] += 1
                else:
                    self.missing.append(f"wittram.{module_name}.{attr}")
        self.present = {span for span in SPANS if found[span]}

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def _wrap(self, span, module, attr):
        if module is None:
            return False
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = None if cls is None else cls.__dict__.get(meth)
            if original is None:
                return False
            self.originals[span].append(original)
            self._bind(cls, meth, original, self._wrapper(span, original))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        self.originals[span].append(original)
        wrapper = self._wrapper(span, original)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._bind(mod, name, original, wrapper)
        return True

    def _bind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._bindings.append((owner, attr, original))

    def _wrapper(self, span, fn):
        tracer = self
        stack = self.stack
        stat = self.stats[span]
        observe = self._observers.get(span)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t_enter = perf_counter()
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t_enter
            if observe is not None:
                observe(args, result)
            if stack:
                stack[-1][1] += perf_counter() - t1
            return result

        return traced

    # -- counters at the same boundaries -------------------------------------

    def _observe_residue(self, args, result):
        counts = self.counts
        try:
            a, b = args
            counts["coeff.frac"] += a.den != (1,) or b.den != (1,)
            self.operand_lens[_operand_len(a)] += 1
            self.operand_lens[_operand_len(b)] += 1
        except (AttributeError, TypeError, ValueError):
            counts["coeff.operand_unreadable"] += 1
        counts["coeff.observed"] += 1

    def _observe_series_mul(self, args, result):
        a, b = args
        ea = list(a.terms)
        eb = sorted(b.terms)
        cut = result.precision
        self.counts["valued.mul.term_products"] += len(ea) * len(eb)
        self.counts["valued.mul.kept"] += sum(
            bisect.bisect_left(eb, cut - e) for e in ea
        )

    def _observe_reduce(self, args, result):
        self.counts["extension.reduce.steps"] += len(result.steps)

    def _observe_classify(self, args, result):
        self.counts["extension.unclassified"] += (
            result.classification.value == "unclassified"
        )

    def _observe_validate(self, args, result):
        self.counts["brauer.validate.steps"] += len(args[0].steps)

    def _observe_parse(self, args, result):
        # only the outermost parse call reads the text; inner ones re-read parts
        if not (self.stack and self.stack[-1][0] == "grammar.parse"):
            self.counts["grammar.parse.chars"] += len(args[0])

    def _observe_command(self, args, result):
        self.counts["cli.documented_error"] += result[0] in (2, 3, 4)

    # -- report ---------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}; absent spans omitted."""
        out = {}
        present = self.present
        for span, (calls, self_s) in self.stats.items():
            if span not in present:
                continue
            if span in TIME_ONLY:
                out[TIME_ONLY[span]] = (self_s, "s")
                continue
            out[f"{span}.calls"] = (calls, "count")
            out[f"{span}.self_s"] = (self_s, "s")
        c = self.counts

        def share(part, whole):
            return c[part] / whole if whole else 0.0

        if {"coeff.mul", "coeff.add"} <= present and not c["coeff.operand_unreadable"]:
            out["coeff.frac_share"] = (share("coeff.frac", c["coeff.observed"]), "ratio")
            out["coeff.operand_len_p50"] = (self._len_quantile(0.5), "coeffs")
            out["coeff.operand_len_p90"] = (self._len_quantile(0.9), "coeffs")
        if "valued.mul" in present:
            products = c["valued.mul.term_products"]
            out["valued.mul.term_products"] = (products, "count")
            out["valued.mul.kept_share"] = (share("valued.mul.kept", products), "ratio")
        if "extension.reduce" in present:
            out["extension.reduce.steps"] = (c["extension.reduce.steps"], "count")
        if "extension.classify" in present:
            out["extension.unclassified_share"] = (
                share("extension.unclassified", self.stats["extension.classify"][0]),
                "ratio",
            )
        if "brauer.validate" in present:
            out["brauer.validate.steps"] = (c["brauer.validate.steps"], "count")
        if "grammar.parse" in present:
            out["grammar.parse.chars"] = (c["grammar.parse.chars"], "count")
        if "cli.command" in present:
            out["cli.documented_error_share"] = (
                share("cli.documented_error", self.stats["cli.command"][0]),
                "ratio",
            )
        return out

    def _len_quantile(self, q):
        total = sum(self.operand_lens.values())
        if not total:
            return 0
        rank = q * total
        seen = 0
        for length in sorted(self.operand_lens):
            seen += self.operand_lens[length]
            if seen >= rank:
                return length
        return 0
