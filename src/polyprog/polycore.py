"""Exact univariate and bivariate polynomials over the rationals.

Two coordinate systems are used throughout: the monomial basis u^k and the
binomial basis C(u, k) = u(u-1)...(u-k+1)/k!.  The binomial view is the
native one for integer-valued polynomials (integer coefficients, and the
forward difference acts as an index shift), so conversions between the two
must round-trip exactly.  Coefficients are `Fraction`s; the basis
conversions run on integers scaled by a common denominator.  No floating
point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

NEG_INF = float("-inf")  # degree of the zero polynomial


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class UniPoly:
    """Immutable univariate polynomial, monomial coefficients by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def monomial(cls, k, c=1):
        return cls((0,) * k + (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self):
        return not self.coeffs

    def __call__(self, u):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return UniPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero or other.is_zero:
                return UniPoly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[i + j] += a * b
            return UniPoly(out)
        return UniPoly([c * _frac(other) for c in self.coeffs])

    __rmul__ = __mul__

    def scale(self, s):
        return self * _frac(s)

    def compose_linear(self, a1, a0):
        """p(a1*u + a0), exact."""
        arg = UniPoly([_frac(a0), _frac(a1)])
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * arg + UniPoly([c])
        return acc

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({poly_text(self)!r})"


@lru_cache(maxsize=None)
def binomial_poly(k):
    """C(u, k) as a UniPoly: the integer falling factorial u(u-1)...(u-k+1),
    scaled once by 1/k!."""
    ff = [1]   # u(u-1)...(u-m+1), ascending integer coefficients
    for m in range(k):
        ff = [0] + ff               # times u ...
        for i in range(m + 1):
            ff[i] -= m * ff[i + 1]  # ... minus m times the old product
    kf = factorial(k)
    return UniPoly([Fraction(c, kf) for c in ff])


def to_binomial_basis(p: UniPoly):
    """Coefficients b_0..b_d with p(u) = sum b_k C(u, k).

    Iterated forward differences at 0, exact: the coefficients are scaled
    to integers by the lcm of their denominators, evaluated by integer
    Horner at u = 0..d and differenced in integers, with one division at
    the end."""
    if p.is_zero:
        return ()
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    layer = []
    for u in range(len(ints)):
        acc = 0
        for c in reversed(ints):
            acc = acc * u + c
        layer.append(acc)
    out = []
    while layer:
        out.append(layer[0])
        layer = [layer[i + 1] - layer[i] for i in range(len(layer) - 1)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(Fraction(b, den) for b in out)


def from_binomial_basis(bs):
    """Inverse of to_binomial_basis."""
    acc = UniPoly.zero()
    for k, b in enumerate(bs):
        if b:
            acc = acc + binomial_poly(k).scale(b)
    return acc


def is_integral(p: UniPoly):
    """Integer values on the integers and p(0) = 0: equivalently, integer
    binomial coefficients with zero constant term."""
    bs = to_binomial_basis(p)
    if not bs:
        return True
    if bs[0] != 0:
        return False
    return all(b.denominator == 1 for b in bs)


def substitute_affine(p: UniPoly, r: int, j: int):
    """(p(r*(y-1) + j) - p(j)) / r, exact.

    The output is generally *not* normalized: it can carry a constant term,
    and for binomial-coefficient inputs it may not even be integer valued.
    Callers that need an integral progression normalize afterwards (see
    progression.reparametrized_family)."""
    if r < 1:
        raise ValueError("substitution step r must be >= 1")
    if not 0 <= j < r:
        raise ValueError("substitution offset j must satisfy 0 <= j < r")
    shifted = p.compose_linear(r, j - r)
    return (shifted - UniPoly([p(j)])).scale(Fraction(1, r))


class BiPoly:
    """Sparse bivariate polynomial: {(a, b): coeff} for x^a y^b."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (a, b), c in (terms.items() if isinstance(terms, dict) else terms):
                c = _frac(c)
                if c:
                    key = (int(a), int(b))
                    t[key] = t.get(key, Fraction(0)) + c
                    if not t[key]:
                        del t[key]
        object.__setattr__(self, "terms", dict(t))

    def __setattr__(self, *a):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_unipoly_in_y(cls, p: UniPoly):
        return cls({(0, k): c for k, c in enumerate(p.coeffs)})

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, Fraction(0)) + c
            if not t[k]:
                del t[k]
        return BiPoly(t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            out = {}
            for (a1, b1), c1 in self.terms.items():
                for (a2, b2), c2 in other.terms.items():
                    k = (a1 + a2, b1 + b2)
                    out[k] = out.get(k, Fraction(0)) + c1 * c2
            return BiPoly(out)
        s = _frac(other)
        return BiPoly({k: c * s for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __call__(self, x, y):
        return sum((c * Fraction(x) ** a * Fraction(y) ** b
                    for (a, b), c in self.terms.items()), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"BiPoly({bipoly_text(self)!r})"


def compose_shift(q: UniPoly, p: UniPoly):
    """q(x + p(y)) as a BiPoly, exact (Horner in the argument x + p(y))."""
    arg = BiPoly({(1, 0): 1}) + BiPoly.from_unipoly_in_y(p)
    acc = BiPoly.zero()
    for c in reversed(q.coeffs):
        acc = acc * arg + BiPoly({(0, 0): c})
    return acc


def binom_of_shift(p: UniPoly, k: int):
    """C(x + p(y), k) as a BiPoly."""
    return compose_shift(binomial_poly(k), p)


def bipoly_to_binomial_grid(r: BiPoly):
    """Coordinates of r over the C(x,a)C(y,b) grid, as {(a,b): Fraction}.

    Exact; for integer-valued polynomials all coordinates are integers."""
    if r.is_zero:
        return {}
    dx = max(a for a, _ in r.terms)
    dy = max(b for _, b in r.terms)
    # Iterated forward differences in both variables, evaluated at 0.
    values = [[r(x, y) for y in range(dy + 1)] for x in range(dx + 1)]
    for x in range(dx + 1):
        row = values[x]
        diffs = []
        for _ in range(dy + 1):
            diffs.append(row[0])
            row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        values[x] = diffs
    out = {}
    for b in range(dy + 1):
        col = [values[x][b] for x in range(dx + 1)]
        for a in range(dx + 1):
            if col[0]:
                out[(a, b)] = col[0]
            col = [col[i + 1] - col[i] for i in range(len(col) - 1)]
    return out


# ---------------------------------------------------------------------------
# Text rendering (ascending degree; used by reports and the CLI round trip)

def _coeff_text(c: Fraction):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_text(p: UniPoly, var="y"):
    if p.is_zero:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        if k == 0:
            body = _coeff_text(abs(c))
        else:
            mag = abs(c)
            head = "" if mag == 1 else _coeff_text(mag) + "*"
            body = f"{head}{var}" + (f"^{k}" if k > 1 else "")
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def bipoly_text(r: BiPoly):
    if r.is_zero:
        return "0"
    items = sorted(r.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1], kv[0][0]))
    parts = []
    for (a, b), c in items:
        names = []
        if a:
            names.append("x" + (f"^{a}" if a > 1 else ""))
        if b:
            names.append("y" + (f"^{b}" if b > 1 else ""))
        mag = abs(c)
        if not names:
            body = _coeff_text(mag)
        else:
            head = "" if mag == 1 else _coeff_text(mag) + "*"
            body = head + "*".join(names)
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
