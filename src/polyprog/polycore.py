"""Exact univariate polynomials in binomial coordinates, and bivariate cell maps.

A univariate polynomial is the tuple (b_0, ..., b_d) of its coordinates in
the binomial basis C(u, k) = u(u-1)...(u-k+1)/k!, trailing zeros stripped,
so the zero polynomial is ().  This is the native form for integer-valued
polynomials: integral ones (integer values, P(0) = 0) are exactly the
tuples of ints with b_0 = 0, the forward difference acts as an index
shift, and values P(n) = sum_k b_k C(n, k) stay in integers.  Monomial
coefficients enter through `to_binomial_basis` and leave through
`monomial_coeffs`, both exact.  A bivariate polynomial is a plain cell map
{(a, b): coefficient of x^a y^b}, read by `binomial_grid` and
`cells_text`.  No floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

NEG_INF = float("-inf")  # degree of the zero polynomial


def trim(bs):
    """bs as a tuple without trailing zeros."""
    bs = list(bs)
    while bs and bs[-1] == 0:
        bs.pop()
    return tuple(bs)


def binom_int(n: int, k: int) -> int:
    """C(n, k) = n(n-1)...(n-k+1)/k! for any integer n; C(n, k) for n < 0
    is (-1)^k C(k - n - 1, k)."""
    if k < 0:
        return 0
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


def value(bs, n: int):
    """P(n) = sum_k b_k C(n, k), with C(n, k) stepped in integers; an
    integer when the b_k are."""
    total, binom = 0, 1
    for k, b in enumerate(bs):
        total += b * binom
        binom = binom * (n - k) // (k + 1)
    return total


def to_binomial_basis(coeffs):
    """Binomial coordinates of the polynomial with monomial coefficients
    `coeffs` (ints or Fractions), as ints where they are integers.

    Iterated forward differences at 0, exact: the coefficients are scaled
    to integers by the lcm of their denominators, evaluated by integer
    Horner at u = 0..d and differenced in integers, with one division at
    the end."""
    coeffs = [Fraction(c) for c in trim(coeffs)]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    values = []
    for u in range(len(ints)):
        acc = 0
        for c in reversed(ints):
            acc = acc * u + c
        values.append(acc)
    return trim(b // den if b % den == 0 else Fraction(b, den)
                for b in forward_differences(values))


def monomial_coeffs(bs):
    """Monomial coefficients, as Fractions, of the polynomial with binomial
    coordinates bs, by Horner's rule in the binomial basis,
        P = b_0 + u/1 (b_1 + (u-1)/2 (b_2 + ... + (u-d+1)/d b_d)),
    in integers: each step multiplies the integer tail by the falling
    factor (u - k) and the running scale by k + 1, with one division by
    L * d! at the end (L the lcm of the denominators of the b_k)."""
    if not bs:
        return ()
    den = lcm(*(b.denominator for b in bs))
    ints = [b.numerator * (den // b.denominator) for b in bs]
    acc, scale = [ints[-1]], 1
    for k in range(len(bs) - 2, -1, -1):
        scale *= k + 1
        acc = [0] + acc                 # times u ...
        for i in range(len(acc) - 1):
            acc[i] -= k * acc[i + 1]    # ... minus k times the old tail
        acc[0] += ints[k] * scale
    return tuple(Fraction(c, den * scale) for c in acc)


def forward_differences(values):
    """Delta^k f(0) for k = 0..n-1, from the values f(0), ..., f(n-1)."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


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


def poly_text(bs, var="y"):
    """Text of the polynomial with binomial coordinates bs, by ascending
    monomials."""
    return cells_text({(0, k): c for k, c in enumerate(monomial_coeffs(bs))}, ("x", var))
