"""Seeded random inputs for exercising the classifiers and pipelines.

Everything takes an explicit random.Random so runs are reproducible
from a seed.  Degrees and valuations stay small on purpose: the point
is coverage of shapes, not stress.
"""

import random

from .coeff import FieldKind, ResidueElem, _ptrim
from .valued import DEFAULT_PRECISION, LaurentElem, frobenius_power
from .witt import WittVector


def make_rng(seed):
    return random.Random(seed)


def random_residue(rng, spec, max_deg=3, nonzero=False):
    p = spec.p
    if spec.kind is FieldKind.PRIME:
        lo = 1 if nonzero else 0
        return spec.from_int(rng.randrange(lo, p))
    while True:
        deg = rng.randrange(max_deg + 1)
        num = _ptrim([rng.randrange(p) for _ in range(deg + 1)])
        if num or not nonzero:
            return ResidueElem(spec, num, (1,))


def random_laurent(rng, spec, vmin=-6, vmax=6, max_terms=4,
                   precision=DEFAULT_PRECISION, nonzero=False):
    terms = {}
    for _ in range(rng.randrange(1 if nonzero else 0, max_terms + 1)):
        e = rng.randrange(vmin, vmax + 1)
        c = random_residue(rng, spec, nonzero=True)
        terms[e] = c
    if nonzero and not terms:
        terms[rng.randrange(vmin, vmax + 1)] = random_residue(
            rng, spec, nonzero=True
        )
    return LaurentElem(spec, terms, precision)


def random_unit(rng, spec, precision=DEFAULT_PRECISION):
    """A Laurent series with valuation 0."""
    terms = {0: random_residue(rng, spec, nonzero=True)}
    for _ in range(rng.randrange(3)):
        terms[rng.randrange(1, 5)] = random_residue(rng, spec, nonzero=True)
    return LaurentElem(spec, terms, precision)


def random_coprime_val(rng, p, lo=-9, hi=-1):
    while True:
        v = rng.randrange(lo, hi + 1)
        if v % p != 0:
            return v


def random_tr_element(rng, spec, precision=DEFAULT_PRECISION):
    """Negative valuation coprime to p: always totally ramified."""
    v = random_coprime_val(rng, spec.p)
    out = LaurentElem(
        spec, {v: random_residue(rng, spec, nonzero=True)}, precision
    )
    tail = random_laurent(rng, spec, vmin=v + 1, vmax=4, precision=precision)
    return out + tail


def random_tr_vector_len2(rng, spec, precision=DEFAULT_PRECISION):
    """A length-2 vector meeting the totally ramified hypotheses: the
    first component has negative valuation coprime to p and its level-2
    cross term dominates the second component."""
    p = spec.p
    first = random_tr_element(rng, spec, precision)
    v1 = first.val()
    floor_bound = (v1 * (p * p - p + 1)) // p + 1
    vmin = max(floor_bound, -9)
    if rng.random() < 0.3:
        second = LaurentElem(spec, {}, precision)
    else:
        second = random_laurent(
            rng, spec, vmin=vmin, vmax=4, precision=precision
        )
    return WittVector(p, 2, (first, second))


def random_nonsplit_constant(rng, spec):
    """A residue constant outside the coboundary image."""
    p = spec.p
    if spec.kind is FieldKind.PRIME:
        return spec.from_int(rng.randrange(1, p))
    # u^j with j coprime to p is never g^p - g for polynomial g
    while True:
        j = rng.randrange(1, 5)
        if j % p != 0:
            return ResidueElem(spec, (0,) * j + (1,), (1,))


def random_coboundary(rng, spec, precision=DEFAULT_PRECISION):
    """g^p - g for a random g: always splits."""
    g = random_laurent(rng, spec, vmin=-4, vmax=4, precision=precision)
    return frobenius_power(g, 1) - g


def random_classify_input(rng, spec, precision=DEFAULT_PRECISION):
    """A mix of shapes for classifier agreement sweeps."""
    roll = rng.random()
    if roll < 0.35:
        return random_laurent(rng, spec, precision=precision)
    if roll < 0.55:
        return random_coboundary(rng, spec, precision=precision)
    if roll < 0.7:
        const = LaurentElem.from_residue(
            random_nonsplit_constant(rng, spec), precision
        )
        return const + random_coboundary(rng, spec, precision=precision)
    if roll < 0.85:
        return random_tr_element(rng, spec, precision=precision)
    if spec.kind is FieldKind.RATIONAL:
        # stall shape: leading coefficient u has no p-th root
        v = -spec.p * rng.randrange(1, 3)
        u_coeff = ResidueElem(spec, (0, 1), (1,))
        lead = LaurentElem(spec, {v: u_coeff}, precision)
        return lead + random_laurent(
            rng, spec, vmin=v + 1, vmax=2, precision=precision
        )
    return random_tr_element(rng, spec, precision=precision)


def random_symbol_b(rng, spec, precision=DEFAULT_PRECISION):
    """b with valuation coprime to p."""
    v = random_coprime_val(rng, spec.p, lo=-5, hi=5)
    lead = LaurentElem(
        spec, {v: random_residue(rng, spec, nonzero=True)}, precision
    )
    tail = random_laurent(rng, spec, vmin=v + 1, vmax=v + 5,
                          precision=precision)
    return lead + tail
