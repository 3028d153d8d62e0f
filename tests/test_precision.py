"""Every output O(t^N) is honest: series products, inverses and powers,
coboundary reduction, the lemma 5.3 split trace and the lemma 5.4
rewrite.

The method of test_witt.py::test_group_law_precision_is_honest: the full
inputs, and the same inputs with another tail above a lower cut, both
extend the inputs cut there, so the outputs of each must agree with those
from the cut inputs below the smaller O(t^N) the two claim.
"""

import random

import pytest

from wittram.brauer import BrauerSymbol, lemma53_split, lemma54_rewrite
from wittram.coeff import FieldKind, FieldSpec
from wittram.extension import as_reduce
from wittram.valued import LaurentElem, pth_power
from wittram.witt import WittVector

PRIMES = (2, 3, 5)


def _coeff(rng, spec):
    """A nonzero constant over F_p; over F_p(u) a polynomial of degree at
    most 2, over a linear denominator one time in three."""
    p = spec.p
    if spec.kind is FieldKind.PRIME:
        return spec.from_int(rng.randrange(1, p))
    num = [rng.randrange(p) for _ in range(2)] + [rng.randrange(1, p)]
    den = [rng.randrange(1, p), 1] if rng.random() < 1 / 3 else [1]
    return spec.element(num, den)


def _series(rng, spec, lo=-4, hi=5):
    """1 to 3 terms with exponents in [lo, hi], known to a precision
    between hi + 1 and hi + 25, or one time in five between 60 and 69,
    around the precision max(N, 64) of `**`'s ring_one()."""
    exps = {rng.randrange(lo, hi + 1) for _ in range(rng.randrange(1, 4))}
    terms = {e: _coeff(rng, spec) for e in exps}
    if rng.random() < 0.2:
        return LaurentElem(spec, terms, rng.randrange(60, 70))
    return LaurentElem(spec, terms, rng.randrange(hi + 1, hi + 26))


def _lowered(rng, x, lowest):
    """x cut to a precision n in [lowest, x.precision], and x below n with
    another tail above it, known to n + 3."""
    n = rng.randrange(lowest, x.precision + 1)
    cut = x.truncated(n)
    terms = dict(cut.terms)
    for e in range(n, n + 3):
        if rng.random() < 0.5:
            terms[e] = _coeff(rng, x.spec)
    return cut, LaurentElem(x.spec, terms, n + 3)


def _assert_honest(rng, f, inputs, keep_lead=False, lowest=None):
    """f maps input series to a list of output series.  Each input is cut
    on its own, at a precision from two below its lowest term (just above
    it with keep_lead, and never below lowest) up to its own."""
    lowered = []
    for x in inputs:
        low = min(x.terms, default=x.precision)
        low = low + 1 if keep_lead else low - 2
        if lowest is not None:
            low = max(low, lowest)
        lowered.append(_lowered(rng, x, low))
    full = f(*inputs)
    cut = f(*(pair[0] for pair in lowered))
    retailed = f(*(pair[1] for pair in lowered))
    assert len(full) == len(cut) == len(retailed)
    for x, y, z in zip(full, cut, retailed):
        assert isinstance(y, LaurentElem), (inputs, y)
        assert y == x and y == z, (inputs, x, y, z)


@pytest.mark.parametrize("p", PRIMES)
def test_series_arithmetic_precision_is_honest(p):
    rng = random.Random(3000 + p)
    for kind in FieldKind:
        spec = FieldSpec(p, kind)
        for _ in range(8):
            x, y = _series(rng, spec), _series(rng, spec)
            _assert_honest(rng, lambda a, b: [a * b], (x, y))
            _assert_honest(rng, lambda a: [a.inverse()], (x,), keep_lead=True)
            for e in (1, 2, 3, p, p + 1, 2 * p):
                _assert_honest(rng, lambda a: [a ** e], (x,))
            for e in (-1, -2, -p):
                _assert_honest(rng, lambda a: [a ** e], (x,), keep_lead=True)


@pytest.mark.parametrize("p", PRIMES)
def test_as_reduce_precision_is_honest(p):
    # a pole of order divisible by p under a p-th power coefficient, so
    # the reduction strips, and half the time no other negative exponent,
    # so that it goes on to absorb the positive tail.  Cuts keep the
    # precision at 1 or more: below that a stripped series can be an
    # apparent zero known to O(t^N), N <= 0, where as_reduce raises.
    rng = random.Random(3200 + p)
    for kind in FieldKind:
        spec = FieldSpec(p, kind)
        for _ in range(8):
            x = _series(rng, spec, lo=rng.choice((-2 * p + 1, 0)), hi=4)
            pole = LaurentElem(spec, {-p * rng.randrange(1, 3):
                                      _coeff(rng, spec) ** p}, x.precision)
            omega = x + pole

            def reduce(a):
                out = as_reduce(a)
                return [out.element, out.witness]

            _assert_honest(rng, reduce, (omega,), keep_lead=True, lowest=1)


def _trace_series(outcome):
    """Every series in the trace: before and after symbols, and the
    series and vectors among the step parameters."""
    out = []

    def add(x):
        if isinstance(x, LaurentElem):
            out.append(x)
        elif isinstance(x, WittVector):
            out.extend(x.components)
        elif isinstance(x, BrauerSymbol):
            out.extend(x.omega.components)
            out.append(x.b)

    for step in outcome.trace.steps:
        for sym in step.before:
            add(sym)
        add(step.after)
        for value in step.params.values():
            add(value)
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_lemma53_trace_precision_is_honest(p):
    rng = random.Random(3300 + p)
    for kind in FieldKind:
        spec = FieldSpec(p, kind)
        for _ in range(3):
            r = rng.randrange(1, p)
            i = rng.choice([j for j in range(-3, 5) if j % p])
            c = _series(rng, spec, lo=-2, hi=2)
            b = _series(rng, spec, lo=-3, hi=3)

            rules = [step.rule for step in lemma53_split(r, i, c, b).trace.steps]

            def split(c1, b1):
                out = lemma53_split(r, i, c1, b1)
                assert [step.rule for step in out.trace.steps] == rules
                return _trace_series(out)

            _assert_honest(rng, split, (c, b), keep_lead=True)


@pytest.mark.parametrize("p", PRIMES)
def test_lemma54_trace_precision_is_honest(p):
    # [(c^p, w2), b) rewritten to [(c^p + b, w2), b): the rewritten
    # symbol and every series in its trace
    rng = random.Random(3400 + p)
    for kind in FieldKind:
        spec = FieldSpec(p, kind)
        for _ in range(3):
            c = _series(rng, spec, lo=-2, hi=2)
            w2 = _series(rng, spec, lo=-3, hi=3)
            b = _series(rng, spec, lo=-3, hi=3)

            def rewrite(c1, w, b1):
                sym = BrauerSymbol(WittVector(p, 2, (pth_power(c1), w)), b1)
                out = lemma54_rewrite(sym)
                return [*out.symbol.omega.components, out.symbol.b,
                        *_trace_series(out)]

            _assert_honest(rng, rewrite, (c, w2, b), keep_lead=True)
