"""Parser for progression expressions like "x, x+y, x+2y, x+y^3".

Grammar (whitespace free between tokens):

    progression := 'x' (',' term)+
    term        := 'x' '+' poly
    poly        := signed atom (('+'|'-') atom)*
    atom        := [int '*'?] ('y' ['^' int] | 'C' '(' 'y' ',' int ')') | int

Coefficients are integers; the binomial atoms C(y, k) cover the integral
polynomials that monomials with integer coefficients cannot reach.  Parse
errors carry the offending position.  parse(render(p)) round-trips on
canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polycore import UniPoly, binomial_poly, is_integral, poly_text, to_binomial_basis
from .progression import Progression


class ProgressionSyntaxError(ValueError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


@dataclass
class ProgressionExpr:
    source: str
    progression: Progression
    canonical: str


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected=None):
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ProgressionSyntaxError(
                f"unexpected end of input (wanted {expected!r})", self.pos)
        ch = self.text[self.pos]
        if expected is not None and ch != expected:
            raise ProgressionSyntaxError(
                f"expected {expected!r}, found {ch!r}", self.pos)
        self.pos += 1
        return ch

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ProgressionSyntaxError("expected an integer", start)
        return int(self.text[start:self.pos])

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_atom(sc: _Scanner, sign: int):
    """One signed atom of a polynomial in y."""
    ch = sc.peek()
    coeff = 1
    if ch.isdigit():
        coeff = sc.integer()
        if sc.peek() == "*":
            sc.take("*")
        ch = sc.peek()
        if ch not in ("y", "C"):
            # bare integer constant
            return UniPoly([sign * coeff])
    if ch == "y":
        sc.take("y")
        power = 1
        if sc.peek() == "^":
            sc.take("^")
            power = sc.integer()
        return UniPoly.monomial(power, sign * coeff)
    if ch == "C":
        sc.take("C")
        sc.take("(")
        sc.take("y")
        sc.take(",")
        k = sc.integer()
        sc.take(")")
        return binomial_poly(k).scale(sign * coeff)
    raise ProgressionSyntaxError(f"expected a term, found {ch!r}", sc.pos)


def _parse_divided_atom(sc: _Scanner, sign: int):
    atom = _parse_atom(sc, sign)
    if sc.peek() == "/":
        # Not part of the integer grammar, but accepted so that y/2 fails
        # with an integrality witness instead of a syntax error.
        sc.take("/")
        start = sc.pos
        den = sc.integer()
        if den == 0:
            raise ProgressionSyntaxError("division by zero", start)
        atom = atom.scale(Fraction(1, den))
    return atom


def _parse_poly(sc: _Scanner):
    sign = 1
    ch = sc.peek()
    if ch == "-":
        sc.take("-")
        sign = -1
    elif ch == "+":
        sc.take("+")
    acc = _parse_divided_atom(sc, sign)
    while sc.peek() in ("+", "-"):
        op = sc.take()
        acc = acc + _parse_divided_atom(sc, 1 if op == "+" else -1)
    return acc


def parse_progression(text: str) -> ProgressionExpr:
    """Parse a progression display; rejects non-integral or duplicate terms
    with the failing witness."""
    sc = _Scanner(text)
    sc.take("x")
    polys = []
    while not sc.at_end():
        sc.take(",")
        sc.take("x")
        sc.take("+")
        pos = sc.pos
        p = _parse_poly(sc)
        if p.is_zero:
            raise ProgressionSyntaxError("term polynomial is zero", pos)
        if not is_integral(p):
            witness = _integrality_witness(p)
            raise ProgressionSyntaxError(
                f"term {poly_text(p)} is not integral ({witness})", pos)
        if p in polys:
            raise ProgressionSyntaxError(
                f"duplicate term x + {poly_text(p)}", pos)
        polys.append(p)
    if not polys:
        raise ProgressionSyntaxError("progression needs at least two terms",
                                     len(text))
    prog = Progression(tuple(polys))
    return ProgressionExpr(source=text, progression=prog,
                           canonical=render_progression(prog))


def _integrality_witness(p: UniPoly):
    bs = to_binomial_basis(p)
    if bs and bs[0] != 0:
        return f"value {bs[0]} at y = 0"
    for k, b in enumerate(bs):
        if b.denominator != 1:
            return f"binomial coordinate {b} at index {k}"
    return "not integral"


def render_integral_poly(p: UniPoly) -> str:
    """Grammar-conformant text for an integral polynomial: plain monomials
    when the coefficients are integers, binomial atoms otherwise (integral
    polynomials always have integer binomial coordinates)."""
    if all(c.denominator == 1 for c in p.coeffs):
        return poly_text(p)
    parts = []
    for k, b in enumerate(to_binomial_basis(p)):
        if not b:
            continue
        mag = abs(b)
        head = "" if mag == 1 else f"{mag}*"
        parts.append(("-" if b < 0 else "+", f"{head}C(y,{k})"))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def render_progression(prog: Progression) -> str:
    """Canonical display: terms in given order, each polynomial rendered
    with monomials (or binomial atoms) by ascending degree."""
    return ", ".join(["x"] + [f"x + {render_integral_poly(p)}"
                              for p in prog.polys])
