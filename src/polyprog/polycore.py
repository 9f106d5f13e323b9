"""Exact univariate polynomials over the rationals, and bivariate cell maps.

Two coordinate systems are used throughout: the monomial basis u^k and the
binomial basis C(u, k) = u(u-1)...(u-k+1)/k!.  The binomial view is the
native one for integer-valued polynomials (integer coefficients, and the
forward difference acts as an index shift), so conversions between the two
must round-trip exactly.  Coefficients are `Fraction`s; the basis
conversions run on integers scaled by a common denominator.  A bivariate
polynomial is a plain cell map {(a, b): coefficient of x^a y^b}, read by
`binomial_grid` and `cells_text`.  No floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

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


def binom_int(n: int, k: int) -> int:
    """C(n, k) = n(n-1)...(n-k+1)/k! for any integer n; C(n, k) for n < 0
    is (-1)^k C(k - n - 1, k)."""
    if k < 0:
        return 0
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


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
    values = []
    for u in range(len(ints)):
        acc = 0
        for c in reversed(ints):
            acc = acc * u + c
        values.append(acc)
    out = forward_differences(values)
    while out and out[-1] == 0:
        out.pop()
    return tuple(Fraction(b, den) for b in out)


def forward_differences(values):
    """Delta^k f(0) for k = 0..n-1, from the values f(0), ..., f(n-1)."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


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


def binomial_grid(cells):
    """Coordinates over the C(x,a)C(y,b) grid of the polynomial held as the
    cell map `cells` = {(a, b): coefficient of x^a y^b}, as {(a, b): value}.

    Iterated forward differences at 0 of its values on {0..dx} x {0..dy};
    integer coefficients keep every step in integers."""
    if not cells:
        return {}
    dx = max(a for a, _ in cells)
    dy = max(b for _, b in cells)
    cols = [forward_differences([sum(c * x ** a * y ** b for (a, b), c in cells.items())
                                 for y in range(dy + 1)])
            for x in range(dx + 1)]
    out = {}
    for b in range(dy + 1):
        for a, v in enumerate(forward_differences([col[b] for col in cols])):
            if v:
                out[(a, b)] = v
    return out


# ---------------------------------------------------------------------------
# Text rendering (ascending degree; used by reports and the CLI round trip)

def _coeff_text(c: Fraction):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def cells_text(cells, names=("x", "y")):
    """Text of the polynomial held as the cell map {(a, b): coefficient of
    x^a y^b}: by ascending total degree, then y-degree."""
    parts = []
    for (a, b), c in sorted(cells.items(), key=lambda kv: (sum(kv[0]), kv[0][1], kv[0][0])):
        if c:
            powers = [v + (f"^{e}" if e > 1 else "") for v, e in zip(names, (a, b)) if e]
            head = [] if abs(c) == 1 and powers else [_coeff_text(abs(c))]
            parts.append(f" {'-' if c < 0 else '+'} " + "*".join(head + powers))
    text = "".join(parts)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def poly_text(p: UniPoly, var="y"):
    return cells_text({(0, k): c for k, c in enumerate(p.coeffs)}, ("x", var))
