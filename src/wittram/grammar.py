"""Text forms for series, vectors, and symbols.

Laurent series: ascending exponents, '+'-separated, e.g.
    u*t^-1 + 1 + t^2 + O(t^64)
The O(t^N) suffix names the precision and is printed only when it
differs from the session default.  '-' appears only inside exponents;
coefficients are written without minus signs.  Multi-term or fractional
coefficients are parenthesized: (u+1)*t^2, ((u^2+u+1)/(u))*t.  The parser
reads a fraction with or without its outer pair.  Integers are runs of
decimal digits, what int() reads; one past Python's int-string limit,
and u^k with k above MAX_U_DEGREE, are parse errors.

Witt vectors: [e1; e2].  Symbols: [[e1; e2]; b).
"""

from .brauer import BrauerSymbol
from .coeff import FieldKind, ResidueElem, _padd, _ptrim
from .errors import ParseError
from .valued import DEFAULT_PRECISION, LaurentElem
from .witt import WittVector

# The largest k read in u^k: a literal's polynomials are dense tuples.
MAX_U_DEGREE = 1024


def _poly_str(cs):
    if not cs:
        return "0"
    bits = []
    for e in range(len(cs) - 1, -1, -1):
        c = cs[e]
        if c == 0:
            continue
        if e == 0:
            bits.append(str(c))
        else:
            upart = "u" if e == 1 else f"u^{e}"
            bits.append(upart if c == 1 else f"{c}*{upart}")
    return "+".join(bits) if bits else "0"


def render_residue(elem):
    if elem.spec.kind is FieldKind.PRIME:
        return str(elem.num[0] if elem.num else 0)
    if elem.den == (1,):
        return _poly_str(elem.num)
    return f"({_poly_str(elem.num)})/({_poly_str(elem.den)})"


def _coeff_needs_parens(s):
    return "+" in s or "/" in s


def render_laurent(elem, default_precision=None):
    if default_precision is None:
        default_precision = DEFAULT_PRECISION
    bits = []
    for e in sorted(elem.terms):
        c = elem.terms[e]
        cs = render_residue(c)
        if e == 0:
            bits.append(f"({cs})" if _coeff_needs_parens(cs) else cs)
            continue
        tpart = "t" if e == 1 else f"t^{e}"
        if cs == "1":
            bits.append(tpart)
        elif _coeff_needs_parens(cs):
            bits.append(f"({cs})*{tpart}")
        else:
            bits.append(f"{cs}*{tpart}")
    body = " + ".join(bits) if bits else "0"
    if elem.precision != default_precision:
        body += f" + O(t^{elem.precision})"
    return body


def render_witt(vec, default_precision=None):
    parts = []
    for comp in vec.components:
        if isinstance(comp, LaurentElem):
            parts.append(render_laurent(comp, default_precision))
        else:
            parts.append(render_residue(comp))
    return "[" + "; ".join(parts) + "]"


def render_symbol(sym, default_precision=None):
    return (
        f"[{render_witt(sym.omega, default_precision)}; "
        f"{render_laurent(sym.b, default_precision)})"
    )


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.items = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdecimal():
                j = i
                while j < n and text[j].isdecimal():
                    j += 1
                self.items.append(("INT", text[i:j], i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and text[j].isalpha():
                    j += 1
                self.items.append(("NAME", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^()[];":
                self.items.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", position=i)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("END", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, expected=(), message=None):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                message or f"found {tok[1]!r}",
                position=tok[2],
                expected=expected or (kind,),
            )
        return tok


def _int(tok):
    """An INT token's value; Python's int-string limit is a parse error."""
    try:
        return int(tok[1])
    except ValueError:
        raise ParseError(
            f"integer of {len(tok[1])} digits is too long", position=tok[2]
        ) from None


def _parse_int(toks):
    return _int(toks.expect("INT", expected=("an integer",)))


def _parse_exponent(toks):
    neg = False
    if toks.peek()[0] == "-":
        toks.next()
        neg = True
    val = _parse_int(toks)
    return -val if neg else val


def _parse_u_atom(toks):
    """u or u^k as a coefficient tuple."""
    tok = toks.expect("NAME", expected=("u",))
    if tok[1] != "u":
        raise ParseError(
            f"found {tok[1]!r}", position=tok[2], expected=("u",)
        )
    e = 1
    if toks.peek()[0] == "^":
        toks.next()
        tok = toks.peek()
        e = _parse_int(toks)
        if e > MAX_U_DEGREE:
            raise ParseError(
                f"the exponent of u is at most {MAX_U_DEGREE}", position=tok[2]
            )
    return (0,) * e + (1,)


def _poly_scale(a, c, p):
    return _ptrim([(c * x) % p for x in a])


def _star_then_u(toks):
    if toks.peek()[0] != "*":
        return False
    nxt = toks.pos + 1
    return nxt < len(toks.items) and toks.items[nxt][1] == "u"


def _parse_poly(toks, p):
    """Sum of INT ['*' u-atom] | u-atom, inside parentheses."""
    total = ()
    while True:
        tok = toks.peek()
        if tok[0] == "INT":
            toks.next()
            c = _int(tok) % p
            if _star_then_u(toks):
                toks.next()
                atom = _parse_u_atom(toks)
                total = _padd(total, _poly_scale(atom, c, p), p)
            else:
                total = _padd(total, ((c,) if c else ()), p)
        elif tok[0] == "NAME" and tok[1] == "u":
            atom = _parse_u_atom(toks)
            total = _padd(total, atom, p)
        else:
            raise ParseError(
                f"found {tok[1]!r}",
                position=tok[2],
                expected=("an integer", "u"),
            )
        if toks.peek()[0] == "+":
            toks.next()
            continue
        return total


def _parse_coeff(toks, spec):
    """A residue coefficient; one extra pair of parentheses is read, as
    render_laurent prints a fraction ((num)/(den))."""
    p = spec.p
    tok = toks.peek()
    if tok[0] == "(":
        toks.next()
        wrapped = toks.peek()[0] == "("
        if wrapped:
            toks.next()
        num = _parse_poly(toks, p)
        toks.expect(")", expected=(")",))
        den = (1,)
        if toks.peek()[0] == "/":
            toks.next()
            toks.expect("(", expected=("(",))
            den = _parse_poly(toks, p)
            toks.expect(")", expected=(")",))
        if wrapped:
            toks.expect(")", expected=(")",))
        return ResidueElem(spec, num, den)
    if tok[0] == "INT":
        toks.next()
        c = _int(tok) % p
        if _star_then_u(toks):
            toks.next()
            atom = _parse_u_atom(toks)
            return ResidueElem(spec, _poly_scale(atom, c, p), (1,))
        return spec.from_int(c)
    if tok[0] == "NAME" and tok[1] == "u":
        atom = _parse_u_atom(toks)
        return ResidueElem(spec, atom, (1,))
    raise ParseError(
        f"found {tok[1]!r}",
        position=tok[2],
        expected=("a coefficient",),
    )


def _parse_t_power(toks):
    tok = toks.expect("NAME", expected=("t",))
    if tok[1] != "t":
        raise ParseError(f"found {tok[1]!r}", position=tok[2], expected=("t",))
    if toks.peek()[0] == "^":
        toks.next()
        return _parse_exponent(toks)
    return 1


def _series(toks, spec, precision):
    """term ('+' term)*; an O(t^N) term sets the precision."""
    terms = {}

    def add(e, c):
        if e in terms:
            terms[e] = terms[e] + c
        else:
            terms[e] = c

    while True:
        tok = toks.peek()
        if tok[0] == "NAME" and tok[1] == "O":
            toks.next()
            toks.expect("(", expected=("(",))
            precision = _parse_t_power(toks)
            toks.expect(")", expected=(")",))
        elif tok[0] == "NAME" and tok[1] == "t":
            e = _parse_t_power(toks)
            add(e, spec.one())
        else:
            c = _parse_coeff(toks, spec)
            if toks.peek()[0] == "*":
                toks.next()
                e = _parse_t_power(toks)
                add(e, c)
            else:
                add(0, c)
        if toks.peek()[0] != "+":
            return LaurentElem(spec, terms, precision)
        toks.next()


def _vector(toks, spec, precision):
    """'[' series (';' series)* ']', or a vector in a redundant '[' ']'."""
    toks.expect("[", message="a vector must be bracketed like [a; b]")
    depth = 0
    while toks.peek()[0] == "[":
        toks.next()
        depth += 1
    comps = [_series(toks, spec, precision)]
    while toks.peek()[0] == ";":
        toks.next()
        comps.append(_series(toks, spec, precision))
    toks.expect("]", expected=("+", ";", "]"))
    for _ in range(depth):
        toks.expect("]", expected=("]",))
    return WittVector(spec.p, len(comps), comps)


def _symbol(toks, spec, precision):
    """'[' vector ';' series ')'."""
    toks.expect("[", message="a symbol must look like [[a; b]; c)")
    omega = _vector(toks, spec, precision)
    toks.expect(";", expected=(";",))
    b = _series(toks, spec, precision)
    toks.expect(")", expected=("+", ")"))
    return BrauerSymbol(omega, b)


def _parse(rule, text, spec, precision):
    """Read the whole text by one rule; error offsets count from its start."""
    if precision is None:
        precision = DEFAULT_PRECISION
    toks = _Tokens(text)
    value = rule(toks, spec, precision)
    tok = toks.peek()
    if tok[0] != "END":
        raise ParseError(
            f"trailing input {tok[1]!r}",
            position=tok[2],
            expected=("+",) if rule is _series else ("end of input",),
        )
    return value


def parse_laurent(text, spec, precision=None):
    """Parse a Laurent series; an O(t^N) addend sets the precision."""
    return _parse(_series, text, spec, precision)


def parse_witt(text, spec, precision=None):
    """Parse [e1; e2; ...]; a redundant extra bracket pair is accepted."""
    return _parse(_vector, text, spec, precision)


def parse_symbol(text, spec, precision=None):
    """Parse [[e1; e2]; b)."""
    return _parse(_symbol, text, spec, precision)


def parse_element(text, spec, precision=None):
    """Dispatch on the trailing delimiter: ')' symbol, ']' vector,
    anything else a Laurent series.  Error offsets count from the start
    of text, leading blanks included."""
    body = text.strip()
    if not body:
        raise ParseError("empty input", position=0, expected=("an element",))
    if body.endswith(")") and body.startswith("["):
        return parse_symbol(text, spec, precision)
    if body.endswith("]"):
        return parse_witt(text, spec, precision)
    return parse_laurent(text, spec, precision)
