"""Exact arithmetic used by the benchmark's checks, written apart from the
package: polynomials in one variable are dicts {degree: Fraction}, and the
linear algebra is plain Gaussian elimination over Q or over Z/pZ.

Polynomials the benchmark generates are tuples (c_1, ..., c_d) of integer
coefficients of y^1..y^d (no constant term, so every one is integral).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def poly_eval(coeffs, y):
    """Value at the integer y of the generated polynomial sum_k c_k y^k."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc + c) * y
    return acc


def poly_text(coeffs):
    """Grammar text for a generated polynomial, lowest degree first."""
    parts = []
    for k, c in enumerate(coeffs, start=1):
        if not c:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        power = "y" if k == 1 else f"y^{k}"
        parts.append(("-" if c < 0 else "+", mag + power))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def progression_text(polys):
    return ", ".join(["x"] + [f"x + {poly_text(p)}" for p in polys])


def parse_poly(text, var):
    """Read a reported polynomial such as '1/2*u - 1/2*u^2' or '-y^2 + y^3'
    into {degree: Fraction}; raises ValueError on anything else."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if var in term:
            head, _, power = term.partition(var)
            coeff = Fraction(head.rstrip("*")) if head else Fraction(1)
            if power and not power.startswith("^"):
                raise ValueError(f"bad term {term!r}")
            deg = int(power[1:]) if power else 1
        else:
            coeff, deg = Fraction(term), 0
        if deg in out:
            raise ValueError(f"repeated degree in {text!r}")
        out[deg] = sign * coeff
    return {k: v for k, v in out.items() if v}


def parse_relation(text):
    """'(Q_0, ..., Q_t)' in the variable u -> list of {degree: Fraction}."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a relation: {text!r}")
    return [parse_poly(part, "u") for part in text[1:-1].split(", ")]


def degree(q):
    return max(q, default=0)


def _lcm(a, b):
    return a * b // gcd(a, b)


class ShiftGrid:
    """Values x + P_i(y) on the integer grid {0..D}^2, with their powers.

    A polynomial in x and y of total degree <= D that vanishes on this grid
    is zero, so a relation sum_i Q_i(x + P_i(y)) with deg Q_i * deg P_i <= D
    holds identically iff it vanishes here."""

    def __init__(self, polys, size):
        self.size = size
        pts = [(x, y) for x in range(size + 1) for y in range(size + 1)]
        self.values = [[x + poly_eval(p, y) for x, y in pts]
                       for p in [()] + list(polys)]
        self._powers = {}

    def power(self, i, k):
        key = (i, k)
        if key not in self._powers:
            self._powers[key] = [v ** k for v in self.values[i]]
        return self._powers[key]


def grid_size(qs, polys):
    """Total degree bound of sum_i Q_i(x + P_i(y))."""
    degs = [1] + [max(1, len(p)) for p in polys]
    return max((degree(q) * d for q, d in zip(qs, degs)), default=0)


def slice_residues(qs, polys, grid=None):
    """For each monomial degree k of the relation, whether the slice
    sum_i c_ik (x + P_i(y))^k vanishes identically: {k: bool}.  The
    relation itself vanishes iff the slice sums cancel pointwise, which is
    returned under the key None."""
    size = grid_size(qs, polys)
    if grid is None or grid.size < size:
        grid = ShiftGrid(polys, size)
    den = 1
    for q in qs:
        for c in q.values():
            den = _lcm(den, c.denominator)
    npts = len(grid.values[0])
    total = [0] * npts
    out = {}
    for k in sorted({k for q in qs for k in q}):
        acc = [0] * npts
        for i, q in enumerate(qs):
            c = q.get(k)
            if c:
                ci = int(c * den)
                for j, v in enumerate(grid.power(i, k)):
                    acc[j] += ci * v
        out[k] = not any(acc)
        total = [a + b for a, b in zip(total, acc)]
    out[None] = not any(total)
    return out


def rank_q(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank, ncols = 0, len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][c]:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def kernel_mod_p(rows, ncols, p):
    """Basis of {v in (Z/p)^ncols : rows . v = 0} for a prime p."""
    mat = [[v % p for v in row] for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [v * inv % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(mat, pivots):
            v[pc] = -row[fc] % p
        basis.append(v)
    return basis
