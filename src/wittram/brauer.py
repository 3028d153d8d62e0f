"""Symbols [omega, b) and certified rewriting between them.

A symbol pairs a length-m vector omega with a nonzero b in K and stands
for the cyclic algebra built from the degree-p^m extension of omega and
the uniformizing action of b.  Rewrites are recorded as traces whose
steps each carry enough data to be re-checked arithmetically; a trace
is evidence, not just a log.

Each rule is one function that checks its hypotheses and returns the
output symbol, or SPLIT.  A rewrite applies it and records the step;
TraceStep.validate() applies it again and requires the recorded output.
is_split_quick takes b = gamma^(p^m) as split only when b is known past
the conductor of omega's extension, the last step of a lemma 5.3 trace
included.

Rules:
  same_b          [w, b) + [w', b)  =  [w + w', b)
  same_omega      [w, b) + [w, b')  =  [w, b*b')
  strip_zero      [(0, w2..), b)    =  [(w2..), b)
  frob_twist      [w, b)            =  [F^r w, b)
  power_adjust_b  [w, b)            =  [w, gamma^(p^m) * b)
  absorb          [(b, 0,..,0), b)  =  split
  pth_power_b     [w, gamma^(p^m))  =  split
  as_coboundary   [F(g) - g, b)     =  split
"""

import dataclasses
import math

from .errors import (
    HypothesisViolation,
    NoRootError,
    RuleViolation,
    ShapeMismatch,
    SpecMismatch,
    WittramError,
)
from .extension import as_reduce, decide_constant, witt_reduce
from .valued import (
    LaurentElem,
    binary_power,
    frobenius_power,
    power_precision,
    pth_root,
)
from .witt import (
    WittVector,
    _cross_coeff,
    artin_schreier_map,
    frobenius_twist,
    witt_add,
    witt_neg,
)

SPLIT = "split"


class BrauerSymbol:
    """[omega, b): omega a Witt vector of Laurent components, b nonzero."""

    __slots__ = ("p", "m", "omega", "b")

    def __init__(self, omega, b):
        if not isinstance(omega, WittVector):
            raise ShapeMismatch("expected a Witt vector for the first slot")
        if not isinstance(omega.components[0], LaurentElem):
            raise ShapeMismatch("symbol components must be Laurent series")
        if not isinstance(b, LaurentElem):
            raise ShapeMismatch("expected a Laurent series for the second slot")
        if b.spec is not omega.components[0].spec:
            raise SpecMismatch("omega and b live over different residue fields")
        if b.is_apparent_zero:
            raise ShapeMismatch("second slot must have a visible leading term")
        _set_p(self, omega.p)
        _set_m(self, omega.m)
        _set_omega(self, omega)
        _set_b(self, b)

    def __setattr__(self, name, value):
        raise AttributeError("BrauerSymbol is immutable")

    def __eq__(self, other):
        if not isinstance(other, BrauerSymbol):
            return NotImplemented
        return self.omega == other.omega and self.b == other.b

    __hash__ = None

    def __str__(self):
        from .grammar import render_symbol

        return render_symbol(self)

    def __repr__(self):
        return f"BrauerSymbol({self!s})"


# Set past the immutability guard through the slots' member descriptors,
# as in coeff.
_set_p = BrauerSymbol.p.__set__
_set_m = BrauerSymbol.m.__set__
_set_omega = BrauerSymbol.omega.__set__
_set_b = BrauerSymbol.b.__set__


@dataclasses.dataclass(frozen=True)
class TraceStep:
    rule: str
    before: tuple
    after: object
    params: dict = dataclasses.field(default_factory=dict)

    def validate(self):
        """Apply the rule again: RuleViolation unless it takes these
        inputs and parameters, its hypotheses hold and it gives `after`."""
        if self.rule not in _RULES:
            raise RuleViolation(f"unknown rule {self.rule!r}")
        arity, rule = _RULES[self.rule]
        kinds = rule.__annotations__
        if (
            len(self.before) != arity
            or self.params.keys() != kinds.keys()
            or not all(isinstance(self.params[k], t) for k, t in kinds.items())
        ):
            raise RuleViolation(
                f"{self.rule} takes {arity} symbol(s) and params {list(kinds)}"
            )
        try:
            after = rule(*self.before, **self.params)
        except WittramError as exc:
            raise RuleViolation(f"{self.rule}: {exc}") from exc
        if (self.after is SPLIT) != (after is SPLIT) or self.after != after:
            raise RuleViolation(f"{self.rule} does not give the recorded output")


@dataclasses.dataclass(frozen=True)
class RewriteTrace:
    steps: tuple

    def validate(self):
        for step in self.steps:
            step.validate()
        return True

    def __len__(self):
        return len(self.steps)

    @property
    def concludes_split(self):
        return bool(self.steps) and self.steps[-1].after is SPLIT


@dataclasses.dataclass(frozen=True)
class RewriteOutcome:
    symbol: object
    trace: RewriteTrace


def _zero_like(a):
    return a.scale_int(0)


def _vector(p, comps):
    return WittVector(p, len(comps), comps)


# The rules.  Arguments are the input symbols, then the step's params, whose
# annotations give the names and types that validate() checks.

def _same_b(s1, s2):
    if s1.b != s2.b:
        raise HypothesisViolation("same_b needs a common b")
    return BrauerSymbol(witt_add(s1.omega, s2.omega), s1.b)


def _same_omega(s1, s2):
    if s1.omega != s2.omega:
        raise HypothesisViolation("same_omega needs a common vector")
    return BrauerSymbol(s1.omega, s1.b * s2.b)


def _strip_zero(sym):
    if sym.m < 2:
        raise HypothesisViolation("strip_zero needs at least two components")
    if not sym.omega.components[0].is_apparent_zero:
        raise HypothesisViolation("strip_zero needs a zero leading component")
    return BrauerSymbol(_vector(sym.p, sym.omega.components[1:]), sym.b)


def _frob_twist(sym, r: int):
    if r < 0:
        raise HypothesisViolation("frob_twist needs a power r >= 0")
    return BrauerSymbol(frobenius_twist(sym.omega, r), sym.b)


def _power_adjust_b(sym, gamma: LaurentElem):
    return BrauerSymbol(sym.omega, frobenius_power(gamma, sym.m) * sym.b)


def _absorb(sym):
    comps = sym.omega.components
    if comps[0] != sym.b or not all(c.is_apparent_zero for c in comps[1:]):
        raise HypothesisViolation("absorb needs the shape [(b, 0, ..., 0), b)")
    return SPLIT


def _pth_power_b(sym, gamma: LaurentElem):
    if frobenius_power(gamma, sym.m) != sym.b:
        raise HypothesisViolation("pth_power_b needs b = gamma^(p^m)")
    return SPLIT


def _as_coboundary(sym, g: WittVector):
    if artin_schreier_map(g) != sym.omega:
        raise HypothesisViolation("as_coboundary needs omega to equal F(g) - g")
    return SPLIT


# rule name -> (number of input symbols, rule)
_RULES = {
    "same_b": (2, _same_b),
    "same_omega": (2, _same_omega),
    "strip_zero": (1, _strip_zero),
    "frob_twist": (1, _frob_twist),
    "power_adjust_b": (1, _power_adjust_b),
    "absorb": (1, _absorb),
    "pth_power_b": (1, _pth_power_b),
    "as_coboundary": (1, _as_coboundary),
}


def _apply(rule, before, **params):
    """Apply a rule and record it: (the output, its TraceStep)."""
    after = _RULES[rule][1](*before, **params)
    return after, TraceStep(rule, before, after, params)


def same_b_add(s1, s2):
    return _apply("same_b", (s1, s2))


def same_omega_mul(s1, s2):
    return _apply("same_omega", (s1, s2))


def strip_zero(sym):
    return _apply("strip_zero", (sym,))


def frob_twist(sym, r=1):
    return _apply("frob_twist", (sym,), r=r)


def power_adjust_b(sym, gamma):
    return _apply("power_adjust_b", (sym,), gamma=gamma)


def absorb_split(sym):
    return _apply("absorb", (sym,))[1]


def add_absorbed(sym):
    """sym + [(b, 0, ..., 0), b), the same class as sym since the added
    symbol splits.  Returns the sum and its absorb and same_b steps."""
    b = sym.b
    zero = _zero_like(b)
    trivial = BrauerSymbol(_vector(sym.p, (b,) + (zero,) * (sym.m - 1)), b)
    absorb = absorb_split(trivial)
    out, step = same_b_add(sym, trivial)
    return out, (absorb, step)


# The two split rules whose witness a search has just found are recorded
# without being applied: validate() applies them.
def pth_power_b_split(sym, gamma):
    return TraceStep("pth_power_b", (sym,), SPLIT, {"gamma": gamma})


def as_coboundary_split(sym, g):
    return TraceStep("as_coboundary", (sym,), SPLIT, {"g": g})


def _lemma53_core(r, i, d, d_inverse, cuts, b):
    """Split trace for [a2, b) with a2 = r * F(d) * b^(p-i), as a
    length-1 symbol: lemma 5.3 stated on d = c^i, all of c its proof
    uses.  Needs i coprime to p; r is an integer scalar.  d_inverse()
    gives d^-1 and is called only when a2 is not zero.  cuts are the
    precisions the trace keeps for F(d), F(d^-1) and d^-1."""
    p = b.spec.p
    fd_cut, fd_inv_cut, d_inv_cut = cuts
    a2 = (frobenius_power(d, 1).truncated(fd_cut) * b ** (p - i)).scale_int(r)
    sym = BrauerSymbol(_vector(p, (a2,)), b)
    if a2.is_apparent_zero:
        return sym, RewriteTrace((_zero_split(sym),))
    d_inv = d_inverse()
    i0 = i % p
    j0 = p - i0
    lam = pow(j0, -1, p)
    a_star = a2.scale_int(lam)
    s_star = BrauerSymbol(_vector(p, (a_star,)), b)
    steps = []
    # [a2, b) as the j0-fold sum of [a_star, b)
    acc = s_star
    for _ in range(j0 - 1):
        acc, step = same_b_add(acc, s_star)
        steps.append(step)
    # the j0-fold sum collapses to [a_star, b^j0)
    acc2 = s_star
    for _ in range(j0 - 1):
        acc2, step = same_omega_mul(acc2, s_star)
        steps.append(step)
    # link b^j0 = a_star * X and split both factors
    eta_scalar = (pow(lam, -1, p) * pow(r % p, -1, p)) % p
    k_prime = (i - i0) // p
    fd_inv = frobenius_power(d_inv, 1).truncated(fd_inv_cut)
    x_factor = (fd_inv * b ** (p * k_prime)).scale_int(eta_scalar)
    s_self = BrauerSymbol(_vector(p, (a_star,)), a_star)
    s_x = BrauerSymbol(_vector(p, (a_star,)), x_factor)
    _, link = same_omega_mul(s_self, s_x)
    steps.append(link)
    steps.append(absorb_split(s_self))
    gamma = d_inv.truncated(d_inv_cut).scale_int(eta_scalar) * b ** k_prime
    steps.append(pth_power_b_split(s_x, gamma))
    return sym, RewriteTrace(tuple(steps))


def lemma53_split(r, i, c, b):
    """Certified split of [(0, r * c^(p*i) * b^(p-i)), b), length 2.

    Lemma 5.3 on d = c^i: the trace is that of [r * F(d) * b^(p-i), b)
    behind a strip_zero step.  Returns a RewriteOutcome whose symbol is
    SPLIT and whose trace splits the length-2 input: it begins by
    stripping the zero component, or is one as_coboundary step when the
    input is zero.
    """
    p = b.spec.p
    if i % p == 0:
        raise HypothesisViolation("the exponent i must be coprime to p")
    # Products give c^|i|, known to n + (|i|-1)*v, one series inverse gives
    # d = c^i and d^-1, and the Frobenius F(d) and F(d^-1).  The trace keeps
    # the precisions `**` reports for these: F(c) ** i, known to cut, has
    # valuation i*p*v, so its inverse is known to cut - 2*i*p*v.
    v, n = c.val_lower_bound(), c.precision
    cut = power_precision(p * v, p * n, i)
    cuts = (cut, cut - 2 * i * p * v, power_precision(v, n, i) - 2 * i * v)
    c_abs = binary_power(c, abs(i) - 1, c)
    if i > 0:
        d, d_inverse = c_abs, c_abs.inverse
    else:
        d, d_inverse = c_abs.inverse(), lambda: c_abs
    inner, core = _lemma53_core(r, i, d, d_inverse, cuts, b)
    a2 = inner.omega.components[0]
    sym = BrauerSymbol(_vector(p, (_zero_like(b), a2)), b)
    if len(core.steps) == 1 and core.steps[0].rule == "as_coboundary":
        return RewriteOutcome(SPLIT, RewriteTrace((_zero_split(sym),)))
    _, strip = strip_zero(sym)
    return RewriteOutcome(SPLIT, RewriteTrace((strip,) + core.steps))


def lemma54_rewrite(sym):
    """Rewrite [(c^p, w2), b) as [(c^p + b, w2), b) with a certificate.

    The leading component must have a p-th root (NoRootError otherwise).
    The exact Witt sum with (b, 0) perturbs the second component by
    cross terms r_i c^(p i) b^(p-i); each of those is split away by the
    length-2 split certificates, which is why w2 survives unchanged.
    """
    if sym.m != 2:
        raise HypothesisViolation("this rewrite needs length-2 symbols")
    omega1, omega2 = sym.omega.components
    c = pth_root(omega1)
    if c is None:
        raise NoRootError("leading component has no p-th root")
    p = sym.p
    b = sym.b
    # acc = [(omega1 + b, omega2 - sum_i r_i c^(p i) b^(p-i)), b);
    # add back each cross term as the symbol its certificate splits
    acc, absorbed = add_absorbed(sym)
    steps = list(absorbed)
    for i in range(1, p):
        piece = lemma53_split(_cross_coeff(p, i) % p, i, c, b)
        steps.extend(piece.trace.steps)
        acc, step = same_b_add(acc, piece.trace.steps[0].before[0])
        steps.append(step)
    return RewriteOutcome(acc, RewriteTrace(tuple(steps)))


def dominate_b(sym):
    """Arrange v(b) < min(0, v(omega_i)) by b -> t^(-r p^m) * b, the
    smallest such r.  Returns the symbol and its power_adjust_b step,
    or the symbol unchanged and no step when b already dominates."""
    m0 = 0
    for comp in sym.omega.components:
        if not comp.is_apparent_zero:
            m0 = min(m0, comp.val())
    vb = sym.b.val()
    if vb < m0:
        return sym, ()
    r = (vb - m0) // sym.p ** sym.m + 1
    gamma = LaurentElem.t_power(sym.b.spec, -r, sym.b.precision)
    out, step = power_adjust_b(sym, gamma)
    return out, (step,)


def normalize_symbol(sym):
    """Make b dominant: arrange v(b) < min(0, v(omega_i)) with v(b)
    kept coprime to p, twisting the vector first when some component
    has no p-th root.

    Raises HypothesisViolation unless gcd(v(b), p) = 1.
    """
    if math.gcd(sym.b.val(), sym.p) != 1:
        raise HypothesisViolation("v(b) must be coprime to p")
    steps = []
    current = sym
    needs_twist = any(
        not comp.is_apparent_zero and pth_root(comp) is None
        for comp in current.omega.components
    )
    if needs_twist:
        current, step = frob_twist(current, 1)
        steps.append(step)
    current, adjust = dominate_b(current)
    steps.extend(adjust)
    return RewriteOutcome(current, RewriteTrace(tuple(steps)))


def _iterated_pth_root(b, times):
    out = b
    for _ in range(times):
        out = pth_root(out)
        if out is None:
            return None
    return out


def _known_zero(components):
    """Every component is an apparent zero known up to t^1 at least, so
    every completion is a coboundary: F(g) - g for g = 0 up to O(t^1)."""
    return all(c.is_apparent_zero and c.precision >= 1 for c in components)


def _zero_split(sym):
    return as_coboundary_split(sym, _vector(sym.p, (_zero_like(sym.b),) * sym.m))


def _b_window_decides(sym):
    """is_split_quick's window rule: u bounds the upper breaks of every
    completion of omega, so each unit 1 + O(t^(u+1)) is a norm."""
    u = max(0, *(sym.p ** (sym.m - i) * -c.val_lower_bound()
                 for i, c in enumerate(sym.omega.components, 1)))
    return sym.b.precision - sym.b.val() >= 1 + u


def _split_steps(sym):
    """Split certificate steps for a symbol, or None; see is_split_quick."""
    p, b = sym.p, sym.b
    if _known_zero(sym.omega.components):
        return [_zero_split(sym)]
    gamma = _iterated_pth_root(b, sym.m)
    if gamma is not None and _b_window_decides(sym):
        return [pth_power_b_split(sym, gamma)]
    if sym.m == 2:
        res = witt_reduce(sym.omega)
        if res.kinds[0] != "zero":
            return None
        steps = []
        if not all(c.is_apparent_zero for c in res.witness.components):
            neg_g = witt_neg(res.witness)
            cob = BrauerSymbol(artin_schreier_map(neg_g), b)
            steps.append(as_coboundary_split(cob, neg_g))
            sym, step = same_b_add(sym, cob)
            steps.append(step)
        if _known_zero(sym.omega.components):
            return steps + [_zero_split(sym)]
        inner, strip = strip_zero(sym)
        rest = _split_steps(inner)
        return None if rest is None else steps + [strip] + rest
    if sym.m != 1:
        return None
    omega = sym.omega.components[0]
    red = as_reduce(omega)
    if red.kind == "zero":
        return [as_coboundary_split(sym, _vector(p, (red.witness,)))]
    if red.kind == "constant":
        _, w = decide_constant(red.constant)
        if w is None:
            return None
        g = red.witness + LaurentElem.from_residue(
            w, max(red.element.precision, 1)
        )
        return [as_coboundary_split(sym, _vector(p, (g,)))]
    # look for lemma 5.3's shape F(d) * b^(p-i); r * F(d) = F(r * d) for
    # r in F_p, so the shape with r = 1 covers every scalar, and the trace
    # keeps d's own precisions.  Its last step is pth_power_b, taken only
    # where the window rule holds for it.
    for i in range(1, p):
        d = pth_root(omega * (b ** (p - i)).inverse())
        if d is None:
            continue
        v, n = d.val_lower_bound(), d.precision
        cuts = (p * n, p * (n - 2 * v), n - 2 * v)
        inner, core = _lemma53_core(1, i, d, d.inverse, cuts, b)
        if inner == sym and _b_window_decides(core.steps[-1].before[0]):
            return list(core.steps)
    return None


def is_split_quick(sym):
    """Look for a certified split of the symbol.

    Finds a zero vector, b a p^m-th power and, at length 1 or after
    reducing a length-2 vector to (0, omega2), an omega that reduces to
    g^p - g or is lemma 5.3's F(d) * b^(p-i) for any d and i in 1..p-1.
    Returns a RewriteTrace concluding split, or None when no split was
    detected; None is not evidence that the symbol does not split.

    A zero vector counts only when every component is known to O(t^1)
    or beyond, since a zero known to a lower window completes to
    constants and poles that need not split.  A length-1 zero known only
    below t^1 raises PrecisionExhausted from as_reduce, as does such a
    second component behind a first that reduces to zero; such a first
    component gives None.

    b a p^m-th power counts only when b's window, precision - v(b), is at
    least 1 + max(0, max_i p^(m-i) * (-v_i)), v_i the valuation lower
    bound of component i counted from 1: then b's unknown terms lie past
    the conductor of omega's extension (Brylinski 1983; Thomas 2005).
    Over F_p(u) this is only a conservative guard (Kato 1989 not cited).
    A lemma 5.3 trace ends in such a step, and counts only when that
    step's symbol passes the same rule.
    """
    steps = _split_steps(sym)
    return None if steps is None else RewriteTrace(tuple(steps))
