"""Parser for progression expressions like "x, x+y, x+2y, x+y^3".

Grammar (whitespace free between tokens):

    progression := 'x' (',' term)+
    term        := 'x' '+' poly
    poly        := signed atom (('+'|'-') atom)*
    atom        := [int '*'?] ('y' ['^' int] | 'C' '(' 'y' ',' int ')') | int

Coefficients are integers; the binomial atoms C(y, k) cover the integral
polynomials that monomials with integer coefficients cannot reach.  Terms
are built in binomial coordinates (see polycore), and an atom of degree
above MAX_ATOM_DEGREE is refused before any polynomial is built.  Parse
errors carry the offending position.  parse(render(p)) round-trips on
canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .polycore import cells_text, monomial_coeffs, poly_text, to_binomial_basis, trim
from .progression import Progression

# Largest k of a y^k or C(y, k) atom, refused at the atom before any
# polynomial is built.  On a 2-vCPU machine parsing x, x+y^400 took 0.08 s,
# x, x+y^600 0.29 s and x, x+y^1000 1.6 s (the conversion of y^k and the
# monomial view of the rendering grow about as k^3).
MAX_ATOM_DEGREE = 400


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


def _atom_degree(sc: _Scanner, start: int):
    k = sc.integer()
    if k > MAX_ATOM_DEGREE:
        raise ProgressionSyntaxError(
            f"atom degree {k} exceeds MAX_ATOM_DEGREE {MAX_ATOM_DEGREE}", start)
    return k


def _parse_atom(sc: _Scanner, sign: int):
    """Binomial coordinates of one signed atom of a polynomial in y."""
    ch = sc.peek()
    start = sc.pos
    coeff = 1
    if ch.isdigit():
        coeff = sc.integer()
        if sc.peek() == "*":
            sc.take("*")
        ch = sc.peek()
        if ch not in ("y", "C"):
            # bare integer constant
            return (sign * coeff,)
    if ch == "y":
        sc.take("y")
        power = 1
        if sc.peek() == "^":
            sc.take("^")
            power = _atom_degree(sc, start)
        return tuple(sign * coeff * b for b in to_binomial_basis((0,) * power + (1,)))
    if ch == "C":
        sc.take("C")
        sc.take("(")
        sc.take("y")
        sc.take(",")
        k = _atom_degree(sc, start)
        sc.take(")")
        return (0,) * k + (sign * coeff,)
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
        atom = tuple(Fraction(b, den) for b in atom)
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
        atom = _parse_divided_atom(sc, 1 if op == "+" else -1)
        acc = [a + b for a, b in zip_longest(acc, atom, fillvalue=0)]
    return trim(int(b) if b.denominator == 1 else b for b in acc)


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
        if not p:
            raise ProgressionSyntaxError("term polynomial is zero", pos)
        witness = _integrality_witness(p)
        if witness:
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


def _integrality_witness(bs):
    """Why the nonzero binomial coordinates bs are not integral, or None."""
    if bs[0] != 0:
        return f"value {bs[0]} at y = 0"
    for k, b in enumerate(bs):
        if b.denominator != 1:
            return f"binomial coordinate {b} at index {k}"
    return None


def render_integral_poly(bs) -> str:
    """Grammar-conformant text for an integral polynomial: plain monomials
    when the coefficients are integers, binomial atoms otherwise (integral
    polynomials always have integer binomial coordinates)."""
    mono = monomial_coeffs(bs)
    if all(c.denominator == 1 for c in mono):
        return cells_text({(0, k): c for k, c in enumerate(mono)})
    parts = []
    for k, b in enumerate(bs):
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
