"""Brute-force reference computations, kept independent of the main path.

The relation solver in `progression` works in binomial coordinates via
integer Vandermonde convolutions and a modular-prescan kernel.  The oracle
here does none of that: polynomials are read into monomial coefficients by
its own products of the factors (u - i)/(i + 1), unknowns are plain
monomial coefficients, expansions use its own dict-based polynomial
powers, and the kernel is read off a plain Gauss-Jordan elimination of the
rows scaled to integers (no prime, no Bareiss).  Agreement between the two
is an end-to-end check of both (acceptance criterion and tests call it).
The other routes here are the ones the package replaced: q(x + P(y)) and
C(x + P(y), k) expanded into monomial cell maps from the powers of
x + P(y), relation vectors from the Fraction system of those expanded
shifted binomials, the relation re-check by expanding sum_i Q_i(x + P_i(y))
(`progression` evaluates it on an integer grid), homogeneous relations
from expansions of (x + P_i)^k, the coefficient space from the coefficient
tuples of (x + P_i)^m and of C(x + P_i, m) for m <= k (`progression` reads
it off the degree-k layer basis), reparametrized families by Horner
substitution into the monomial coefficients (`progression` differences
integer values), shared layer parts by intersecting row
spaces, the Fraction RREF and the coordinates read off the RREF of
[rows | I], and the linear-model count as the direct sum over all
N^(d+1) points, where `cyclic` sums Fourier coefficients over a mod-N
kernel.  On the torus, `step` iterates the standard affine map that
`weyl` orbits follow in closed form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .polycore import to_binomial_basis, trim
from .progression import Progression, Relation, progression
from .weyl import WeylSystem, _SCALE


def _mul(a, b):
    """Product of two monomial coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def monomial(bs):
    """Monomial coefficients of sum_k b_k C(u, k), with C(u, k) expanded as
    the product of the factors (u - i)/(i + 1), i < k (`polycore` runs
    Horner's rule in the binomial basis, in integers)."""
    out = [Fraction(0)] * len(bs)
    binom = [Fraction(1)]
    for k, b in enumerate(bs):
        for i, c in enumerate(binom):
            out[i] += b * c
        binom = _mul(binom, [Fraction(-k, k + 1), Fraction(1, k + 1)])
    return trim(out)


def evaluate(coeffs, u):
    """Horner evaluation of monomial coefficients at u."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def substitute_affine(coeffs, r: int, j: int):
    """Monomial coefficients of (p(r*(y-1) + j) - p(j)) / r, by Horner
    substitution of r*y + (j - r) into the monomial coefficients of p.

    The output can carry a constant term, and for binomial-coefficient
    inputs it need not be integer valued."""
    if r < 1:
        raise ValueError("substitution step r must be >= 1")
    if not 0 <= j < r:
        raise ValueError("substitution offset j must satisfy 0 <= j < r")
    acc = [Fraction(0)]
    for c in reversed(coeffs):
        acc = _mul(acc, [Fraction(j - r), Fraction(r)])
        acc[0] += c
    acc[0] -= evaluate(coeffs, j)
    return trim(c / r for c in acc)


def reparametrized_family_by_substitution(prog: Progression, r: int, j: int):
    """`progression.reparametrized_family` through monomial substitution:
    constant terms dropped, the common denominator of the binomial
    coordinates scaled away."""
    subs = [(0,) + substitute_affine(monomial(p), r, j)[1:] for p in prog.polys]
    den = math.lcm(*(b.denominator for q in subs for b in to_binomial_basis(q)))
    return progression(*[[c * den for c in q] for q in subs])


def _poly_mul(a, b):
    out = {}
    for (ax, ay), ac in a.items():
        for (bx, by), bc in b.items():
            key = (ax + bx, ay + by)
            out[key] = out.get(key, Fraction(0)) + ac * bc
    return {k: v for k, v in out.items() if v}


def _shift_powers(p_coeffs, k):
    """(x + P(y))^j for j = 0..k as monomial cell maps, by repeated
    multiplication."""
    base = {(1, 0): Fraction(1)}
    for deg, c in enumerate(p_coeffs):
        if c:
            base[(0, deg)] = base.get((0, deg), Fraction(0)) + Fraction(c)
    powers = [{(0, 0): Fraction(1)}]
    for _ in range(k):
        powers.append(_poly_mul(powers[-1], base))
    return powers


def compose_shift(q, p):
    """q(x + p(y)) as a monomial cell map, for q and p given by binomial
    coordinates: the powers of x + p(y) weighted by the monomial
    coefficients of q."""
    q = monomial(q)
    out = {}
    for c, power in zip(q, _shift_powers(monomial(p), len(q) - 1)):
        for cell, v in power.items():
            out[cell] = out.get(cell, Fraction(0)) + c * v
    return {cell: v for cell, v in out.items() if v}


def binom_of_shift(p, k: int):
    """C(x + p(y), k) as a monomial cell map."""
    return compose_shift((0,) * k + (1,), p)


def relation_holds_by_expansion(rel: Relation, prog: Progression):
    """sum_i Q_i(x + P_i(y)) expanded over monomials cancels to nothing
    (`Relation.holds_for` evaluates it on an integer grid instead)."""
    total = {}
    for q, p in zip(rel.qs, prog.all_polys()):
        for cell, v in compose_shift(q, p).items():
            total[cell] = total.get(cell, Fraction(0)) + v
    return not any(total.values())


def rref_by_fractions(rows):
    """Textbook reduced row echelon form over Fraction: (rows, pivot_cols),
    zero rows dropped."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def coordinates_by_fractions(targets, rows):
    """Each target as a combination of `rows`, or None outside their span,
    read off the textbook RREF of [rows | I], whose rows (R | T) with R
    nonzero satisfy T . rows = R (`ratlinalg` reduces fraction-free)."""
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [list(row) + [int(j == i) for j in range(n)] for i, row in enumerate(rows)]
    red = [(row[:ncols], row[ncols:]) for row in rref_by_fractions(aug)[0] if any(row[:ncols])]
    out = []
    for target in targets:
        residual = [Fraction(x) for x in target]
        coeffs = [Fraction(0)] * n
        for left, right in red:
            pc = next(i for i, x in enumerate(left) if x)
            f = residual[pc]
            if f:
                residual = [a - f * b for a, b in zip(residual, left)]
                coeffs = [c + f * t for c, t in zip(coeffs, right)]
        out.append(None if any(residual) else tuple(coeffs))
    return out


def primitive_integer_row(row):
    """Scale a rational vector to coprime integers with positive lead."""
    den = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def canonical_basis_by_fractions(rows):
    """Primitive integer rows of the textbook RREF (`ratlinalg.canonical_basis`
    gets them by integer elimination)."""
    return [primitive_integer_row(r) for r in rref_by_fractions(rows)[0]]


def _rref_kernel(rows, ncols):
    """Kernel basis read off the reduced row echelon form, 1 at each free
    column: primitive integer rows reduced Gauss-Jordan style by cross-
    multiplication, so the row of pivot c is the RREF row times its c entry."""
    mat = [primitive_integer_row(row) for row in rows]
    pivots = []
    for c in range(ncols):
        k = next((i for i in range(len(pivots), len(mat)) if mat[i][c]), None)
        if k is None:
            continue
        r = len(pivots)
        mat[r], mat[k] = mat[k], mat[r]
        p = mat[r][c]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                mat[i] = primitive_integer_row([p * a - f * b for a, b in zip(row, mat[r])])
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(mat, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def _cell_order(cell):
    a, b = cell
    return (a + b, b, a)


def homogeneous_relations_by_expansion(prog: Progression, k: int):
    """Basis of {a : sum_i a_i (x + P_i(y))^k = 0} from expansions of the
    powers into cell maps and a textbook kernel (`progression` uses integer
    powers of the P_i)."""
    grids = [_shift_powers(monomial(p), k)[k] for p in prog.all_polys()]
    columns = sorted({c for g in grids for c in g}, key=_cell_order)
    rows = [[g.get(c, Fraction(0)) for g in grids] for c in columns]
    return [tuple(v) for v in _rref_kernel(rows, prog.t + 1)]


def _coefficient_rows(maps):
    """maps[i][m] are cell maps; per degree m and cell c, the row
    (maps[0][m][c], ..., maps[t][m][c])."""
    rows = []
    for per_term in zip(*maps):
        cells = sorted({c for g in per_term for c in g}, key=_cell_order)
        rows.extend([g.get(c, Fraction(0)) for g in per_term] for c in cells)
    return rows


def coeff_rows_by_powers(prog: Progression, k: int):
    """Coefficient tuples of the powers (x + P_i(y))^m, m = 0..k, over every
    cell: they span the degree-k coefficient space (`progression.coeff_space`
    decomposes the degree-k binomials over a layer basis instead)."""
    return _coefficient_rows([_shift_powers(monomial(p), k) for p in prog.all_polys()])


def coeff_rows_by_binomials(prog: Progression, k: int):
    """Coefficient tuples of the binomials C(x + P_i(y), m), m = 0..k, over
    every cell: the same span as `coeff_rows_by_powers`."""
    return _coefficient_rows([[binom_of_shift(p, m) for m in range(k + 1)]
                              for p in prog.all_polys()])


def relation_vectors_by_expansion(prog: Progression, cap: int):
    """Relation vectors (b_{ik} layout, the unknown order of `progression`)
    as the textbook kernel of the Fraction system over the expanded cell maps
    of C(x + P_i(y), k) (`progression` solves the integer system of its scaled
    expansion table and rescales the kernel)."""
    polys = prog.all_polys()
    grids = [binom_of_shift(polys[i], k) for i in range(prog.t + 1) for k in range(1, cap + 1)]
    columns = sorted({c for g in grids for c in g}, key=_cell_order)
    rows = [[g.get(c, Fraction(0)) for g in grids] for c in columns]
    return tuple(tuple(v) for v in _rref_kernel(rows, len(grids)))


def intersect_row_spaces(rows_a, rows_b):
    """Canonical basis of rowspace(A) ∩ rowspace(B)."""
    if not rows_a or not rows_b:
        return []
    stacked = [list(r) for r in rows_a] + [list(r) for r in rows_b]
    # (u, -v) with u.A = v.B  <=>  (u, v) in the left kernel of the stack.
    ker = _rref_kernel([list(col) for col in zip(*stacked)], len(stacked))
    na = len(rows_a)
    members = []
    for vec in ker:
        combo = [Fraction(0)] * len(rows_a[0])
        for ui, row in zip(vec[:na], rows_a):
            if ui:
                combo = [c + ui * x for c, x in zip(combo, row)]
        if any(combo):
            members.append(combo)
    return canonical_basis_by_fractions(members)


def shared_parts_by_intersection(prog: Progression, k: int, cap: int):
    """Canonical basis of L_k ∩ (sum of L_j, j != k, j <= cap), where L_j is
    the span of the C(x + P_i(y), j): the degree-k layer intersected with the
    RREF of the other layers (`progression` projects the relation kernel)."""
    grids = {j: [binom_of_shift(p, j) for p in prog.all_polys()]
             for j in range(1, cap + 1)}
    columns = sorted({c for gs in grids.values() for g in gs for c in g}, key=_cell_order)
    rows = {j: [[g.get(c, Fraction(0)) for c in columns] for g in gs]
            for j, gs in grids.items()}
    other = canonical_basis_by_fractions([row for j in rows if j != k for row in rows[j]])
    shared = intersect_row_spaces(canonical_basis_by_fractions(rows[k]), other) if other else []
    return tuple({c: v for c, v in zip(columns, row) if v} for row in shared)


def relation_kernel_dense(prog: Progression, cap: int):
    """All relations with degrees <= cap, solved over monomial-coefficient
    unknowns on the dense x^a y^b grid; returned as binomial-coordinate
    rows (b_{ik} layout) for comparison with the main path."""
    t = prog.t
    unknowns = [(i, k) for i in range(t + 1) for k in range(1, cap + 1)]
    powers = [_shift_powers(monomial(p), cap) for p in prog.all_polys()]
    expansions = [powers[i][k] for i, k in unknowns]
    cells = sorted({cell for exp in expansions for cell in exp})
    rows = [[exp.get(cell, 0) for exp in expansions] for cell in cells]
    kernel = _rref_kernel(rows, len(unknowns))
    out = []
    for vec in kernel:
        row = []
        for i in range(t + 1):
            # monomial coefficients of Q_i ...
            mono = [Fraction(0)] + [vec[i * cap + (k - 1)] for k in range(1, cap + 1)]
            bs = list(to_binomial_basis(mono))
            bs = bs + [Fraction(0)] * (cap + 1 - len(bs))
            row.extend(bs[1:cap + 1])
        out.append(row)
    return out


def count_by_enumeration(mask, prog: Progression):
    """E_{x,y} prod 1_A(x + P_i(y)) by a plain double loop."""
    n = len(mask)
    monos = [monomial(p) for p in prog.polys]
    total = 0
    for x in range(n):
        for y in range(n):
            term = 1 if mask[x] else 0
            if not term:
                continue
            for p in monos:
                val = evaluate(p, y)
                assert val.denominator == 1
                if not mask[(x + val.numerator) % n]:
                    term = 0
                    break
            total += term
    return total / n ** 2


def popdiff_by_enumeration(mask, prog: Progression, epsilon):
    """Qualifying set recomputed with an independent double loop."""
    n = len(mask)
    alpha = sum(1 for v in mask if v) / n
    monos = [monomial(p) for p in prog.polys]
    qualifying = []
    for shift in range(n):
        vals = []
        for p in monos:
            v = evaluate(p, shift)
            assert v.denominator == 1
            vals.append(v.numerator % n)
        count = 0
        for x in range(n):
            if mask[x] and all(mask[(x - v) % n] for v in vals):
                count += 1
        if count > (alpha ** (prog.t + 1) - epsilon) * n:
            qualifying.append(shift)
    return qualifying


def linear_count_by_enumeration(signals, coeffs, d):
    """E_{x, y_1..y_d} prod_i f_i(x + sum_j a_ij y_j), summed term by term
    over all N^(d+1) points (small N only)."""
    n = signals[0].modulus
    terms = []
    for x, *ys in itertools.product(range(n), repeat=d + 1):
        term = 1 + 0j
        for row, f in zip(coeffs, signals):
            term *= f.values[(x + sum(a * y for a, y in zip(row, ys))) % n]
        terms.append(term)
    total = math.fsum(t.real for t in terms) + 1j * math.fsum(t.imag for t in terms)
    return total / n ** (d + 1)


def step(w: WeylSystem, point_fp):
    """One application of the standard affine map
    T(a_1, ..., a_s) = (a_1 + a_0, a_2 + a_1, ..., a_s + a_{s-1}) to
    fixed-point torus coordinates, mod 1; a_0 is the rotation of `w`."""
    out = []
    prev = w.rotation.fp
    for l in range(w.order):
        out.append((point_fp[l] + prev) % _SCALE)
        prev = point_fp[l]
    return tuple(out)
