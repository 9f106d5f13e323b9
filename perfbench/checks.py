"""Checks of every report against computations made apart from the program.

Each check takes the operation's inputs and the parsed report and returns a
list of problems (empty when the report is right).  Nothing is compared
with a stored copy of earlier output: relations are read back from their
text and expanded on an integer grid, counts are recounted with integers or
through the Fourier side, and closure answers are compared with what each
scenario is built to have.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from exact import ShiftGrid, degree, grid_size, kernel_mod_p, parse_poly, \
    parse_relation, poly_eval, slice_residues

NUMERIC_TOL = 1e-9


def oracle_dim(polys, cap):
    """Relation-space dimension from the package's independent dense-grid
    oracle (monomial unknowns, textbook elimination over Fractions)."""
    from polyprog import oracle
    from polyprog.progression import progression
    prog = progression(*[(0,) + tuple(p) for p in polys])
    return len(oracle.relation_kernel_dense(prog, cap))


# ---------------------------------------------------------------------------
# classify

def check_analyze(meta, rep):
    polys, label = meta["polys"], meta["label"]
    t = len(polys)
    errs = []
    if rep.get("t") != t:
        return [f"t = {rep.get('t')}, expected {t}"]
    basis = [parse_relation(text) for text in rep["relation_basis"]]
    if len(basis) != rep["relation_space_dim"]:
        errs.append("relation_space_dim differs from the basis length")
    size = max((grid_size(qs, polys) for qs in basis), default=0)
    grid = ShiftGrid(polys, size)
    all_slices = True
    for qs in basis:
        if len(qs) != t + 1 or not any(qs):
            errs.append(f"malformed relation {qs}")
            continue
        res = slice_residues(qs, polys, grid)
        if not res.pop(None):
            errs.append(f"relation does not vanish: {qs}")
        all_slices = all_slices and all(res.values())
    if rep["homogeneous"] != all_slices:
        errs.append(f"homogeneous = {rep['homogeneous']} but every slice of every "
                    f"relation is a relation: {all_slices}")
    profile = [max((degree(qs[i]) for qs in basis if len(qs) == t + 1), default=0)
               for i in range(t + 1)]
    if rep["complexity"] != profile:
        errs.append(f"complexity {rep['complexity']} != basis degrees {profile}")
    dense = oracle_dim(polys, rep["cap"])
    if dense != rep["relation_space_dim"]:
        errs.append(f"relation_space_dim {rep['relation_space_dim']} != oracle {dense}")
    if rep["homogeneous"] and max(rep["complexity"]) > t - 1:
        errs.append("homogeneous progression above the t-1 complexity bound")
    if label == "ap" and rep["complexity"] != [t - 1] * (t + 1):
        errs.append(f"arithmetic progression complexity {rep['complexity']}")
    if label == "independent" and (rep["relation_space_dim"] != 0
                                   or rep["complexity"] != [0] * (t + 1)):
        errs.append("independent polynomials must have no relations")
    if label == "inhomogeneous":
        errs += _check_witness(rep, polys)
    return errs


def _check_witness(rep, polys):
    if rep["homogeneous"] or "inhomogeneity_witness" not in rep:
        return ["constructed inhomogeneous progression reported homogeneous"]
    qs = parse_relation(rep["inhomogeneity_witness"]["relation"])
    if len(qs) != len(polys) + 1:
        return ["witness relation has the wrong length"]
    res = slice_residues(qs, polys)
    errs = []
    if not res.pop(None):
        errs.append("witness relation does not vanish")
    if all(res.values()):
        errs.append("witness relation does not mix degrees")
    return errs


# ---------------------------------------------------------------------------
# zn-count

def _shift_tables(polys, n):
    """P_i(y) mod n for y in 0..n-1, from exact integer values."""
    return [[poly_eval(p, y) % n for y in range(n)] for p in polys]


def pattern_count(mask, polys):
    """#{(x, y) : x and every x + P_i(y) in A} over Z/N, exactly."""
    n = len(mask)
    chi = np.asarray(mask, dtype=bool)
    tables = _shift_tables(polys, n)
    total = 0
    for y in range(n):
        hit = chi.copy()
        for tab in tables:
            hit &= np.roll(chi, -tab[y])
        total += int(hit.sum())
    return total


def shift_counts(mask, polys):
    """|A ∩ (A + P_1(n)) ∩ ... ∩ (A + P_t(n))| for every n, exactly."""
    n = len(mask)
    chi = np.asarray(mask, dtype=bool)
    tables = _shift_tables(polys, n)
    counts = []
    for s in range(n):
        hit = chi.copy()
        for tab in tables:
            hit &= np.roll(chi, tab[s])
        counts.append(int(hit.sum()))
    return counts


def fourier_linear_count(mask, coeffs):
    """E_{x, y in (Z/N)^d} prod_i 1_A(x + sum_j a_ij y_j) for prime N, as
    the sum over the dual solutions xi (sum_i xi_i = 0 and sum_i a_ij xi_i = 0
    for all j) of prod_i hat(1_A)(xi_i) (Gowers-Wolf)."""
    n = len(mask)
    fhat = np.fft.fft(np.asarray(mask, dtype=float)) / n
    m = len(coeffs)
    d = len(coeffs[0]) if coeffs else 0
    rows = [[1] * m] + [[coeffs[i][j] for i in range(m)] for j in range(d)]
    basis = kernel_mod_p(rows, m, n)
    if not basis:
        return complex(fhat[0] ** m)
    lead, tail = basis[:-2], basis[-2:]
    mesh = np.indices((n,) * len(tail)).reshape(len(tail), -1)
    total = 0j
    for head in itertools.product(range(n), repeat=len(lead)):
        prod = np.ones(mesh.shape[1], dtype=complex)
        for i in range(m):
            idx = sum(h * v[i] for h, v in zip(head, lead))
            idx = (idx + sum(v[i] * mesh[j] for j, v in enumerate(tail))) % n
            prod *= fhat[idx]
        total += prod.sum()
    return total


def check_count(meta, rep):
    polys, n, mask = meta["polys"], meta["n"], meta["mask"]
    rows = rep.get("rows", [])
    if len(rows) != 1 or rows[0]["N"] != n:
        return [f"expected one row at N={n}"]
    row = rows[0]
    errs = []
    basis = [parse_poly(text, "y") for text in row["basis"]]
    coeffs = row["coeffs"]
    if row["d"] != len(basis) or len(coeffs) != len(polys) \
            or any(len(c) != len(basis) for c in coeffs):
        return ["basis, d and coefficient shapes disagree"]
    for p, combo in zip(polys, coeffs):
        total = {}
        for c, q in zip(combo, basis):
            for k, v in q.items():
                total[k] = total.get(k, 0) + c * v
        want = {k: Fraction(c) for k, c in enumerate(p, start=1) if c}
        if {k: v for k, v in total.items() if v} != want:
            errs.append(f"P = {p} is not sum c_j Q_j for c = {combo}")
    exact = pattern_count(mask, polys)
    poly = complex(*row["poly_count"])
    if abs(poly * n * n - exact) > 1e-6 or abs(poly.imag) > NUMERIC_TOL:
        errs.append(f"poly_count * N^2 = {poly.real * n * n!r}, exact count {exact}")
    linear = complex(*row["linear_count"])
    ref = fourier_linear_count(mask, [[0] * len(basis)] + coeffs)
    if abs(linear - ref) > NUMERIC_TOL:
        errs.append(f"linear_count {linear} != Fourier side {ref}")
    scaled = linear.real * n ** (len(basis) + 1)
    if abs(scaled - round(scaled)) > 1e-3:
        errs.append(f"linear_count * N^(d+1) = {scaled} is not a whole count")
    return errs


def check_popdiff(meta, rep):
    polys, n, mask, eps = meta["polys"], meta["n"], meta["mask"], meta["epsilon"]
    counts = shift_counts(mask, polys)
    alpha = sum(mask) / n
    bar = (alpha ** (len(polys) + 1) - eps) * n
    want = [s for s, c in enumerate(counts) if c > bar]
    errs = []
    if rep["N"] != n or rep["epsilon"] != eps:
        errs.append("N or epsilon differ from the command")
    if rep["qualifying"] != want:
        missing = sorted(set(want) - set(rep["qualifying"]))
        extra = sorted(set(rep["qualifying"]) - set(want))
        errs.append(f"qualifying set differs: missing {missing[:5]}, extra {extra[:5]}")
    if rep["qualifying_count"] != len(rep["qualifying"]):
        errs.append("qualifying_count differs from the list")
    return errs


def check_gowers(meta, rep):
    n = meta["n"]
    norms = {row["s"]: row["norm"] for row in rep["rows"]}
    want = {1: n ** -0.5, 2: n ** -0.25, 3: 1.0}
    errs = []
    if rep["N"] != n or sorted(norms) != sorted(want):
        return [f"expected norms s = 1..3 at N = {n}"]
    for s, value in want.items():
        if abs(norms[s] - value) > NUMERIC_TOL:
            errs.append(f"U^{s} of the quadratic phase = {norms[s]}, expected {value}")
    if abs(norms[2] - rep["u2_fourier"]) > NUMERIC_TOL:
        errs.append(f"U^2 {norms[2]} != Fourier route {rep['u2_fourier']}")
    return errs


# ---------------------------------------------------------------------------
# torus

def character_count(dim, radius):
    """Nonzero v in Z^dim with |v|_1 <= radius, up to sign."""
    points = sum(2 ** k * math.comb(dim, k) * math.comb(radius, k)
                 for k in range(1, min(dim, radius) + 1))
    return points // 2


def _kind(freqs, basis, shifts):
    if any(sum(f * x for f, x in zip(freqs, vec)) for vec in basis):
        return "generic"
    if any(sum(f * x for f, x in zip(freqs, s)).denominator != 1 for s in shifts):
        return "confined"
    return "constant"


def check_weyl(meta, rep, threshold=0.05, confinement_tol=1e-6):
    errs = []
    if not rep.get("passed"):
        errs.append("verdict failed")
    if (rep["dim"], rep["cosets"]) != (meta["dim"], meta["cosets"]):
        errs.append(f"closure (dim, cosets) = ({rep['dim']}, {rep['cosets']}), "
                    f"expected ({meta['dim']}, {meta['cosets']})")
    basis = [[Fraction(x) for x in vec] for vec in rep["basis"]]
    shifts = [[Fraction(x) for x in vec] for vec in rep["coset_shifts"]]
    if len(basis) != rep["dim"] or len(shifts) != rep["cosets"]:
        errs.append("basis or coset list disagrees with dim or cosets")
    table = rep["discrepancy"]
    rows = table["rows"]
    want = character_count(rep["ambient_dim"], table["radius"])
    if len(rows) != want:
        errs.append(f"{len(rows)} characters swept, closed form gives {want}")
    generic = []
    for row in rows:
        kind = _kind(row["freq"], basis, shifts)
        if kind != row["kind"]:
            errs.append(f"character {row['freq']} is {kind}, reported {row['kind']}")
            break
        if kind == "constant" and abs(row["magnitude"] - 1.0) > NUMERIC_TOL:
            errs.append(f"constant character {row['freq']} has |average| "
                        f"{row['magnitude']}")
        if kind == "generic":
            generic.append(row["magnitude"])
    if max(generic, default=0.0) > threshold:
        errs.append(f"generic character above {threshold}: {max(generic)}")
    if rep["cosets"] > 1:
        dist = rep.get("confinement_distance")
        if dist is None or dist > confinement_tol:
            errs.append(f"confinement distance {dist} above {confinement_tol}")
    return errs


CHECKS = {"analyze": check_analyze, "count": check_count, "popdiff": check_popdiff,
          "gowers": check_gowers, "weyl": check_weyl}
