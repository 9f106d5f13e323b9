"""Exact linear algebra over the rationals, plus integer lattice utilities.

Every elimination works in integers.  Kernels of the large integer
matrices produced by relation solving are computed with a modular pre-pass
(numpy, word-sized prime) that guesses the pivot structure, followed by an
exact fraction-free solve restricted to the pivot submatrix.  Every
candidate kernel vector is re-verified against the full matrix with exact
arithmetic, and the rank certificate (a nonzero pivot-minor determinant
mod p) bounds the kernel dimension from above, so the result is exact, not
probabilistic.  Every other row-space question (rank, canonical basis,
coordinates, membership, basis extension, residuals) is answered by the one
fraction-free Gauss-Jordan `echelon` and the exact `residual` modulo its
rows; `Fraction` appears only in returned values.  The textbook `Fraction`
routes are kept in `oracle` as the slow references that tests compare.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

import numpy as np

# Word-sized primes for the modular pre-pass; products of two residues fit
# comfortably in int64.  On a structure mismatch (prime divides a pivot
# minor) we fall through to the next prime; exact verification makes a
# silently wrong result impossible.
_PRIMES = (2147483629, 2147483587, 2147483563, 2147483549, 2147483543)


def _as_int_row(row):
    """(ints, den) with ints / den == row: the denominators cleared."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _mod_echelon(mat, p):
    """Row echelon mod p.  Returns (pivot_rows, pivot_cols) in original
    row indices; `mat` is destroyed."""
    nrows, ncols = mat.shape
    perm = np.arange(nrows)
    pivot_rows, pivot_cols = [], []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(mat[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            mat[[r, k]] = mat[[k, r]]
            perm[[r, k]] = perm[[k, r]]
        piv = int(mat[r, c])
        below = mat[r + 1:, c]
        sel = np.nonzero(below)[0]
        if sel.size:
            factors = below[sel]
            mat[r + 1 + sel] = (mat[r + 1 + sel] * piv - np.outer(factors, mat[r])) % p
        pivot_rows.append(int(perm[r]))
        pivot_cols.append(c)
        r += 1
    return pivot_rows, pivot_cols


def _bareiss_solve(aug, npiv):
    """Fraction-free forward elimination on an integer matrix whose left
    npiv columns are nonsingular, then fraction-free back-substitution.

    Returns (det, Y) with integer Y = det * X, where A X = B for
    aug = [A | B] and det is the determinant of the row-swapped pivot
    block (Cramer's rule makes det * X integral).  Raises ZeroDivisionError
    if a pivot vanishes (caller retries with another prime)."""
    n = npiv
    m = len(aug[0])
    a = [list(map(int, row)) for row in aug]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                raise ZeroDivisionError("singular pivot block")
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    det = prev
    nrhs = m - n
    sols = [[0] * nrhs for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(nrhs):
            s = det * a[i][n + j]
            for k in range(i + 1, n):
                s -= a[i][k] * sols[k][j]
            sols[i][j] = s // a[i][i]
    return det, sols


def kernel_basis(rows, ncols=None):
    """Exact basis of {v : A v = 0} for A given as integer rows.

    The basis is in reduced form relative to the modular pivot choice:
    vector j has value 1 at the j-th free column and 0 at the others.
    Deterministic (fixed prime sequence); when a prescan prime divides a
    leading minor the free columns can differ from the leftmost-pivot RREF
    convention, but the span and the exactness guarantee do not.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    int_rows = [r for r in rows if any(r)]
    if not int_rows or ncols == 0:
        return [tuple(Fraction(int(i == j)) for i in range(ncols)) for j in range(ncols)]
    for p in _PRIMES:
        result = _kernel_attempt(int_rows, ncols, p)
        if result is not None:
            return result
    raise ArithmeticError("kernel: all moduli failed structure checks")


def _kernel_attempt(int_rows, ncols, p):
    mat = np.array([[x % p for x in row] for row in int_rows], dtype=np.int64)
    pivot_rows, pivot_cols = _mod_echelon(mat, p)
    rank = len(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in set(pivot_cols)]
    if not free_cols:
        return []
    # Exact solve on the pivot submatrix: A_piv * X = -A_free.
    aug = [[int_rows[ri][c] for c in pivot_cols] +
           [-int_rows[ri][c] for c in free_cols]
           for ri in pivot_rows]
    try:
        det, sols = _bareiss_solve(aug, rank) if rank else (1, [])
    except ZeroDivisionError:
        return None
    scaled = []
    for j, fc in enumerate(free_cols):
        w = [0] * ncols
        w[fc] = det
        for i, pc in enumerate(pivot_cols):
            w[pc] = sols[i][j]
        scaled.append(w)
    # Exact verification of det * v against every original row; mod-p
    # structure errors surface here and trigger a retry.
    for w in scaled:
        support = [c for c in range(ncols) if w[c]]
        for row in int_rows:
            if sum(row[c] * w[c] for c in support) != 0:
                return None
    return [tuple(Fraction(x, det) for x in w) for w in scaled]


def rank(rows):
    """Exact rank of rational rows: the pivot count of their echelon form."""
    return len(echelon(rows)[1])


def echelon(rows):
    """Fraction-free Gauss-Jordan: (integer rows, pivot_cols), where row r
    divided by its entry at pivot_cols[r] is row r of the RREF.

    Rows are scaled to integers, eliminated by integer cross-multiplication
    with the row content divided out, and never divided by their pivots.
    Row scaling keeps the row space, and the pivot search sees the same
    zero pattern as a textbook Fraction elimination, so the result is the
    same unique RREF up to a nonzero factor per row."""
    mat = [_as_int_row(row)[0] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        prow = mat[r]
        piv = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                row = [piv * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                mat[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def residual(vec, rows, pivots):
    """(ints, den): ints / den is the residual of a rational vector modulo
    integer rows, each zero on the pivots of the rows before it (the rows
    of `echelon`, say): the one vector congruent to `vec` that vanishes on
    every pivot column."""
    num, den = _as_int_row(vec)
    for row, c in zip(rows, pivots):
        f = num[c]
        if f:
            piv = row[c]
            num = [piv * a - f * b for a, b in zip(num, row)]
            den *= piv
            g = gcd(den, *num)
            if g > 1:
                num, den = [a // g for a in num], den // g
    return num, den


def canonical_basis(rows):
    """Deterministic basis of the row space: the RREF rows scaled to
    coprime integers with positive lead."""
    out = []
    for row in echelon(rows)[0]:
        g = gcd(*row)
        if next(x for x in row if x) < 0:
            g = -g
        out.append(tuple(x // g for x in row))
    return out


def coordinates_in_rows(targets, rows):
    """Write each target as a rational combination of `rows`: one tuple per
    target, or None where the target lies outside the row space.

    One elimination of [rows | I] serves every target.  Its rows with a
    pivot in the left block read (R | T) with T . rows = R; a target whose
    residual modulo them vanishes on the left carries its coordinates,
    negated, on the right.  When `rows` are linearly dependent the
    combination is the RREF-pivot one (deterministic)."""
    n = len(rows)
    if n == 0:
        return [None if any(target) else () for target in targets]
    ncols = len(rows[0])
    aug = []
    for i, row in enumerate(rows):
        ints, d = _as_int_row(row)
        aug.append(ints + [d if j == i else 0 for j in range(n)])
    mat, pivots = echelon(aug)
    k = bisect_left(pivots, ncols)
    mat, pivots = mat[:k], pivots[:k]
    out = []
    for target in targets:
        num, den = residual(list(target) + [0] * n, mat, pivots)
        if any(num[:ncols]):
            out.append(None)
        else:
            out.append(tuple(Fraction(-x, den) for x in num[ncols:]))
    return out


def same_row_space(rows_a, rows_b):
    return canonical_basis(rows_a) == canonical_basis(rows_b)


def extend_basis(sub_rows, ambient_rows):
    """Extend a basis of a subspace by ambient rows; returns the added rows
    (elements of `ambient_rows`, in order): each one whose residual modulo
    the growing echelon is nonzero, the residual joining the echelon."""
    mat, pivots = echelon(sub_rows)
    added = []
    for row in ambient_rows:
        num, _ = residual(row, mat, pivots)
        if any(num):
            mat.append(num)
            pivots.append(next(i for i, x in enumerate(num) if x))
            added.append(tuple(row))
    return added


# ---------------------------------------------------------------------------
# Integer lattice utilities (Hermite normal form based)

def _hnf_in_place(m, ncols):
    """Row-style Hermite normal form on the first ncols columns, in place.

    Pivots positive, entries above a pivot reduced to [0, pivot); columns
    past ncols are carried along (they keep the transform).  Returns the
    number of pivot rows, which come first."""
    nrows = len(m)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            nz = [i for i in range(r, nrows) if m[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            m[r], m[i0] = m[i0], m[r]
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            done = True
            for i in range(r + 1, nrows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c]:
                        done = False
            if done:
                break
        if m[r][c] != 0:
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
            r += 1
    return r


def hnf_rows(mat):
    """Row-style Hermite normal form of the lattice spanned by integer rows.

    Zero rows dropped; a deterministic canonical form."""
    m = [list(map(int, row)) for row in mat]
    if not m:
        return []
    r = _hnf_in_place(m, len(m[0]))
    return [tuple(row) for row in m[:r]]


def integer_annihilator(rational_rows):
    """Basis of {eta in Z^n : eta . row = 0 for every row} (saturated): the
    transform rows of the Hermite form of [columns | I] whose column part
    vanishes."""
    if not rational_rows:
        return []
    cols = [list(col) for col in zip(*(_as_int_row(row)[0] for row in rational_rows))]
    n, m = len(cols), len(rational_rows)
    aug = [col + [int(j == i) for j in range(n)] for i, col in enumerate(cols)]
    _hnf_in_place(aug, m)
    return [tuple(row[m:]) for row in aug if not any(row[:m])]


def solve_integer_combination(target, lattice_rows):
    """Integer coefficients writing `target` over HNF rows, or None."""
    coeffs = []
    residual = list(map(int, target))
    for row in lattice_rows:
        pc = next((i for i, x in enumerate(row) if x != 0), None)
        if pc is None:
            coeffs.append(0)
            continue
        if residual[pc] % row[pc] != 0:
            return None
        q = residual[pc] // row[pc]
        coeffs.append(q)
        if q:
            residual = [a - q * b for a, b in zip(residual, row)]
    if any(residual):
        return None
    return coeffs
