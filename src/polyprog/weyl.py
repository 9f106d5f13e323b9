"""Torus systems driven by unipotent affine maps, and orbit-closure checks.

The order-s standard system rotates T^s by T(a_1,...,a_s) = (a_1 + a_0,
a_2 + a_1, ..., a_s + a_{s-1}) with an irrational a_0; iterating gives the
closed form T^n a with binomial-coefficient weights, so orbits are integer
binomial combinations of a handful of real generators.  Everything numeric
rides on 256-bit fixed-point integers: frac(m * alpha) is an exact integer
multiply and mask, so orbit coordinates at heights ~1e13 still carry ~1e-60
absolute error, far below every tolerance used here.

Irrational inputs come from a small symbolic catalog (sqrt2, sqrt3, sqrt5,
golden, e) plus exact rational offsets.  Rational dependence between
coefficients is *declared* through shared symbols (e.g. sqrt2 + 1/3), never
detected numerically; the closure of an orbit changes discontinuously with
such dependencies, so detection would be meaningless at fixed precision.
Do not mix `sqrt5` and `golden` in one system: the catalog treats distinct
symbols as rationally independent and that pair is not.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratlinalg as rl
from .polycore import binom_int, binomial_grid, value
from .progression import (Progression, Relation, graded_spaces, _component_vectors,
                          _expansions, _row_cells)

FRAC_BITS = 256
_SCALE = 1 << FRAC_BITS
TWO_PI = 2.0 * np.pi


def _fp_sqrt(n: int) -> int:
    return math.isqrt(n << (2 * FRAC_BITS))


def _fp_e() -> int:
    # sum 1/k! to k = 60: error < 1/60! ~ 2^-270, below one fixed-point ulp.
    acc = Fraction(0)
    term = Fraction(1)
    for k in range(1, 61):
        term /= k
        acc += term
    # fractional part of e = e - 2
    acc -= 1
    return (acc.numerator << FRAC_BITS) // acc.denominator


_CATALOG = {
    "sqrt2": _fp_sqrt(2),
    "sqrt3": _fp_sqrt(3),
    "sqrt5": _fp_sqrt(5),
    "golden": ((1 << FRAC_BITS) + _fp_sqrt(5)) >> 1,
    "e": _fp_e() + (2 << FRAC_BITS),
}


@dataclass(frozen=True)
class Irrational:
    """A catalog irrational plus an exact rational offset.

    The symbol is the declaration of rational (in)dependence: two values
    sharing a symbol differ by an exact rational, values with distinct
    symbols are treated as rationally independent."""

    symbol: str
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        if self.symbol not in _CATALOG:
            raise ValueError(f"unknown irrational symbol {self.symbol!r}; "
                             f"catalog: {sorted(_CATALOG)}")
        object.__setattr__(self, "offset", Fraction(self.offset))

    @property
    def fp(self) -> int:
        off = self.offset
        return _CATALOG[self.symbol] + (off.numerator * _SCALE) // off.denominator

    def __float__(self):
        return self.fp / _SCALE

    def text(self):
        if self.offset == 0:
            return self.symbol
        sign = "+" if self.offset > 0 else "-"
        return f"{self.symbol} {sign} {abs(self.offset)}"


def _coeff_fp(value) -> int:
    if isinstance(value, Irrational):
        return value.fp
    f = Fraction(value)
    return (f.numerator * _SCALE) // f.denominator


@dataclass(frozen=True)
class WeylSystem:
    """A torus T^order with a polynomial orbit n -> base + sum_i gens_i C(n,i).

    `standard` builds the affine-map orbit (gens_i read off the rotation
    and base point); `from_generators` accepts arbitrary per-degree
    generator vectors (entries: Irrational, Fraction, or 0), each gens_i
    supported on levels >= i.
    """

    order: int
    rotation: Irrational
    base: tuple
    gens: tuple   # gens[i-1][l-1] for degree i, level l

    @classmethod
    def standard(cls, order: int, rotation: Irrational, base: tuple):
        if order < 1:
            raise ValueError("order must be >= 1")
        base = tuple(base)
        if len(base) != order:
            raise ValueError(f"base point needs {order} coordinates")
        levels = list(base)
        gens = []
        for i in range(1, order + 1):
            # degree-i generator: (a_{1-i}, ..., a_{s-i}) with a_0 the
            # rotation and negative indices zero.
            vec = []
            for l in range(1, order + 1):
                idx = l - i
                if idx < 0:
                    vec.append(Fraction(0))
                elif idx == 0:
                    vec.append(rotation)
                else:
                    vec.append(levels[idx - 1])
            gens.append(tuple(vec))
        return cls(order=order, rotation=rotation, base=base, gens=tuple(gens))

    @classmethod
    def from_generators(cls, order: int, gens, base=None):
        if base is None:
            base = tuple(Fraction(0) for _ in range(order))
        base = tuple(base)
        gens = tuple(tuple(v) for v in gens)
        if len(gens) != order or any(len(v) != order for v in gens):
            raise ValueError("need order generator vectors of length order")
        for i, vec in enumerate(gens, start=1):
            for l, entry in enumerate(vec, start=1):
                if l < i and _coeff_fp(entry) != 0:
                    raise ValueError(f"generator {i} must vanish on level {l}")
        rot = next((v for v in gens[0] if isinstance(v, Irrational)), None)
        if rot is None:
            raise ValueError("the degree-1 generator needs an irrational entry")
        return cls(order=order, rotation=rot, base=base, gens=gens)

    def base_fp(self):
        return tuple(_coeff_fp(b) % _SCALE for b in self.base)

    def gens_fp(self):
        return tuple(tuple(_coeff_fp(v) for v in vec) for vec in self.gens)


def orbit_lift(w: WeylSystem, n: int):
    """The torus point at time n as unreduced fixed-point coordinates (take
    them mod _SCALE for the point on the torus); exact integers."""
    gens = w.gens_fp()
    out = []
    for l in range(w.order):
        acc = _coeff_fp(w.base[l])
        for i in range(1, w.order + 1):
            g = gens[i - 1][l]
            if g:
                acc += binom_int(n, i) * g
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# Lower-bound witness from a relation

@dataclass
class WitnessRecord:
    characters: list          # per index: binomial coefficient rows b_{i,*}
    alpha: Irrational
    product_max_deviation: float
    samples: int
    projection_killed: list   # per index: True when the top coefficient is nonzero

    def to_json(self):
        return {
            "schema": "polyprog-witness/1",
            "alpha": self.alpha.text(),
            "max_product_deviation": self.product_max_deviation,
            "samples": self.samples,
            "projection_killed": self.projection_killed,
            "coefficient_rows": [[str(b) for b in row] for row in self.characters],
        }


def lower_bound_witness(prog: Progression, rel: Relation, alpha: Irrational,
                        w: WeylSystem, samples: int = 1000, seed: int = 20259):
    """Phase functions along the orbit whose product telescopes to 1.

    From a relation (Q_0,...,Q_t) with top degree equal to the system
    order, set f_k = e(alpha * (b_k . lift)) with b_k the binomial
    coefficients of Q_k.  The relation identity forces
    prod_k f_k(orbit lift at x + P_k(y)) = 1 pointwise exactly; each index
    whose top coefficient b_{k,s} is nonzero has zero conditional
    expectation on the depth-(s-1) factor (its last-coordinate frequency
    alpha * b_{k,s} is nonzero).
    """
    if not rel.holds_for(prog):
        raise ValueError("relation does not hold for the progression")
    s = w.order
    rows = []
    for q in rel.qs:
        if len(q) > s + 1:
            raise ValueError(
                f"relation degree {len(q) - 1} exceeds system order {s}")
        bs = list(q) + [Fraction(0)] * (s + 1 - len(q))
        if bs[0] != 0:
            raise ValueError("relation components must vanish at 0")
        rows.append(bs[1:])
    polys = prog.all_polys()
    rng = np.random.default_rng(seed)
    alpha_fp = alpha.fp
    max_dev = 0.0
    for _ in range(samples):
        x = int(rng.integers(0, 10 ** 6))
        y = int(rng.integers(0, 10 ** 4))
        prod = 1.0 + 0j
        for row, p in zip(rows, polys):
            u = x + value(p, y)
            lift = orbit_lift(w, u)
            comb = Fraction(0)
            for b, coord in zip(row, lift):
                if b:
                    comb += b * coord
            phase_fp = (alpha_fp * comb.numerator) // (comb.denominator * _SCALE)
            prod *= np.exp(TWO_PI * 1j * ((phase_fp % _SCALE) / _SCALE))
        max_dev = max(max_dev, abs(prod - 1.0))
    killed = [row[s - 1] != 0 for row in rows]
    return WitnessRecord(characters=rows, alpha=alpha,
                         product_max_deviation=max_dev, samples=samples,
                         projection_killed=killed)


# ---------------------------------------------------------------------------
# Orbit closures

@dataclass
class AffineClosure:
    """offset + span(subspace_basis) translated by coset_shifts, inside
    T^(order * (t+1)); ambient coordinate (level l, component c) sits at
    index (l-1)*(t+1) + c."""

    offset: tuple             # fixed-point ambient point
    subspace_basis: tuple     # primitive integer/rational ambient vectors
    coset_shifts: tuple       # rational ambient vectors; first is zero
    ambient_dim: int
    order: int
    components: int
    dependencies: tuple       # textual record of the symbol declarations

    @property
    def dim(self):
        return len(self.subspace_basis)

    def offset_floats(self):
        return tuple(v / _SCALE for v in self.offset)

    def annihilator(self):
        """Basis of the saturated integer lattice orthogonal to the span."""
        if not self.subspace_basis:
            return [tuple(int(i == j) for j in range(self.ambient_dim))
                    for i in range(self.ambient_dim)]
        return rl.integer_annihilator([list(v) for v in self.subspace_basis])

    def to_json(self):
        return {
            "schema": "polyprog-closure/1",
            "ambient_dim": self.ambient_dim,
            "dim": self.dim,
            "cosets": len(self.coset_shifts),
            "basis": [[str(x) for x in v] for v in self.subspace_basis],
            "coset_shifts": [[str(x) for x in v] for v in self.coset_shifts],
            "dependencies": list(self.dependencies),
        }


def _ambient_index(level, comp, ncomp):
    return (level - 1) * ncomp + comp


class _SymbolicVector:
    """Ambient vector with entries sum_sym coeff * sym + rational."""

    def __init__(self, dim):
        self.sym = {}
        self.rat = [Fraction(0)] * dim

    def add(self, index, value, weight):
        if weight == 0:
            return
        if isinstance(value, Irrational):
            vec = self.sym.setdefault(value.symbol, [Fraction(0)] * len(self.rat))
            vec[index] += weight
            if value.offset:
                self.rat[index] += weight * value.offset
        else:
            f = Fraction(value)
            if f:
                self.rat[index] += weight * f


def closure_decomposition(prog: Progression, s: int, cap=None):
    """Per degree i <= s: (proper layer polys, their coefficient vectors),
    plus the cross-degree shared basis and its per-degree vectors.

    The shifted binomial tuple at degree i decomposes uniquely over
    [proper_i | shared]; independence is asserted."""
    if cap is None:
        cap = max(prog.default_cap(), s)
    graded = graded_spaces(prog, k_max=s, cap=cap)
    columns, layer_rows, scales = _expansions(prog, cap)

    def poly_row(cells):
        return [cells.get(c, 0) for c in columns]

    shared_basis_rows = rl.canonical_basis(
        [poly_row(w) for layer in graded.layers for w in layer.shared])
    shared_polys = [_row_cells(row, columns) for row in shared_basis_rows]
    per_degree = {}
    shared_vectors = {}
    for i in range(1, s + 1):
        layer = graded.layer(i)
        proper_rows = [poly_row(q) for q in layer.proper]
        combined = proper_rows + [list(r) for r in shared_basis_rows]
        if combined and rl.rank(combined) != len(combined):
            raise AssertionError(
                "proper representatives and shared basis must be independent")
        vectors = _component_vectors(layer_rows[i], combined, scales[i])
        per_degree[i] = (tuple(layer.proper), tuple(vectors[:len(proper_rows)]))
        shared_vectors[i] = tuple(vectors[len(proper_rows):])
    return per_degree, (tuple(shared_polys), shared_vectors)


def _poly_content(cells) -> int:
    """gcd of the binomial-grid coordinates of an integer cell map."""
    return max(math.gcd(*binomial_grid(cells).values()), 1)


def closure_subspaces(prog: Progression, w: WeylSystem, cap=None):
    """The affine closure of the progression orbit tuple.

    The orbit splits into a sum of (integral polynomial) x (real ambient
    coefficient vector) terms.  Each coefficient vector is symbolic over
    the catalog atoms: its irrational components contribute full rational
    directions to the subspace, its rational component contributes a cyclic
    family of coset shifts (at most the declared denominator many).  For a
    homogeneous progression there is no shared part, every coefficient is
    purely irrational, and the closure is the full expected subgroup with a
    single coset.
    """
    s, t = w.order, prog.t
    ncomp = t + 1
    dim = s * ncomp
    per_degree, (shared_polys, shared_vectors) = closure_decomposition(prog, s, cap)
    for vec in w.gens:
        syms = [v.symbol for v in vec if isinstance(v, Irrational)]
        if len(set(syms)) != len(syms):
            raise ValueError("a generator vector reuses a symbol; the closure "
                             "of its line would be smaller than computed")

    terms = []   # (polynomial, symbolic ambient coefficient)
    for i in range(1, s + 1):
        polys, vvecs = per_degree[i]
        for q, v in zip(polys, vvecs):
            coeff = _SymbolicVector(dim)
            for l in range(i, s + 1):
                entry = w.gens[i - 1][l - 1]
                for c in range(ncomp):
                    coeff.add(_ambient_index(l, c, ncomp), entry, v[c])
            terms.append((q, coeff))
    for j, r_poly in enumerate(shared_polys):
        coeff = _SymbolicVector(dim)
        for i in range(1, s + 1):
            wv = shared_vectors[i][j]
            for l in range(i, s + 1):
                entry = w.gens[i - 1][l - 1]
                for c in range(ncomp):
                    coeff.add(_ambient_index(l, c, ncomp), entry, wv[c])
        terms.append((r_poly, coeff))

    directions = []
    for _, coeff in terms:
        for vec in coeff.sym.values():
            if any(vec):
                directions.append(list(vec))
    span, pivots = rl.echelon(directions)
    basis = rl.canonical_basis(span)
    # Rational parts parallel to the subspace are absorbed by it (the
    # irrational sweep already covers them); only the residual mod the
    # span shifts cosets.
    shift_gens = []
    for q, coeff in terms:
        if not any(coeff.rat):
            continue
        num, den = rl.residual(coeff.rat, span, pivots)
        if any(num):
            content = _poly_content(q)
            shift_gens.append([Fraction(content * v, den) for v in num])
    shifts = _shift_group(shift_gens, dim)
    base_fp = w.base_fp()
    offset = tuple(base_fp[l - 1] for l in range(1, s + 1) for _ in range(ncomp))
    dep_records = [f"{entry.symbol} offset {entry.offset}" for vec in w.gens for entry in vec
                   if isinstance(entry, Irrational) and entry.offset]
    return AffineClosure(offset=offset, subspace_basis=tuple(tuple(v) for v in basis),
                         coset_shifts=tuple(shifts), ambient_dim=dim, order=s,
                         components=ncomp, dependencies=tuple(dep_records))


def _shift_group(shift_gens, dim, limit=10000):
    """All integer combinations of the generators mod 1 (finite group)."""
    zero = tuple(Fraction(0) for _ in range(dim))
    group = {zero}
    frontier = [zero]
    gens = [tuple(Fraction(v) % 1 for v in g) for g in shift_gens]
    while frontier:
        nxt = []
        for pt in frontier:
            for g in gens:
                cand = tuple((a + b) % 1 for a, b in zip(pt, g))
                if cand not in group:
                    group.add(cand)
                    nxt.append(cand)
                    if len(group) > limit:
                        raise RuntimeError("coset group too large")
        frontier = nxt
    ordered = sorted(group, key=lambda v: (v != zero, v))
    return ordered


# ---------------------------------------------------------------------------
# Discrepancy tables and confinement

@dataclass
class DiscrepancyRow:
    frequencies: tuple
    kind: str        # "constant" | "confined" | "generic"
    magnitude: float


@dataclass
class DiscrepancyTable:
    n: int
    radius: int
    rows: list

    def worst_generic(self):
        vals = [r.magnitude for r in self.rows if r.kind == "generic"]
        return max(vals) if vals else 0.0

    def to_json(self):
        return {
            "schema": "polyprog-discrepancy/1",
            "N": self.n,
            "radius": self.radius,
            "worst_generic": self.worst_generic(),
            "rows": [{"freq": list(r.frequencies), "kind": r.kind,
                      "magnitude": r.magnitude} for r in self.rows],
        }


def _orbit_tail_tables(w: WeylSystem, prog: Progression, n: int):
    """tails[kappa][l][c][y] = frac(tail_{kappa,l}(P_c(y))) as floats, where
    the coordinate of the orbit tuple splits as
    coord(l, c)(x, y) = sum_kappa C(x, kappa) * tail_{kappa,l}(P_c(y)).

    P_c(y) is evaluated exactly from its binomial coordinates."""
    s = w.order
    gens = w.gens_fp()
    base = [_coeff_fp(b) for b in w.base]
    polys = prog.all_polys()
    tails = np.zeros((s + 1, s, len(polys), n))
    for c, p in enumerate(polys):
        for y in range(n):
            u = value(p, y)
            binoms = [binom_int(u, d) for d in range(s + 1)]
            for kappa in range(s + 1):
                for l in range(s):
                    acc = base[l] if kappa == 0 else 0
                    for d in range(s - kappa + 1):
                        gi = d + kappa
                        if 1 <= gi <= s and gens[gi - 1][l]:
                            acc += binoms[d] * gens[gi - 1][l]
                    tails[kappa, l, c, y] = (acc % _SCALE) / _SCALE
    return tails


def _binom_columns(n, s):
    x = np.arange(n, dtype=np.float64)
    cx = np.ones((s + 1, n))
    for kappa in range(1, s + 1):
        cx[kappa] = cx[kappa - 1] * (x - (kappa - 1)) / kappa
    return cx


def _phase_rows(tails, freqs, ncomp):
    """B[kappa, y] = sum_{l,c} eta_{l,c} * tails[kappa, l, c, y], so that
    eta . orbit tuple at (x, y) is sum_kappa C(x, kappa) * B[kappa, y]."""
    s1, s, _, n = tails.shape
    b = np.zeros((s1, n))
    for l in range(s):
        for c in range(ncomp):
            f = freqs[l * ncomp + c]
            if f:
                b += float(f) * tails[:, l, c, :]
    return b


# Rows of x per sweep block.  On 416 characters at N = 1500 (2-vCPU
# machine, one BLAS thread) blocks of 1, 2, 3 and 4 rows swept in
# 1.10-1.25, 1.05-1.07, 1.02-1.05 and 1.04-1.08 s, with a peak traced
# memory of 4.1, 7.6, 11.1 and 14.5 MB: the block's tail rows hold
# 129 x rows x N complex entries, 3.1 MB per row at N = 1500.
_SWEEP_ROWS = 2


def _parent_tail(beta):
    """beta less one unit off its first nonzero coordinate k: (parent, k,
    True when that unit was +1)."""
    k = next(i for i, v in enumerate(beta) if v)
    up = beta[k] > 0
    return beta[:k] + (beta[k] - (1 if up else -1),) + beta[k + 1:], k, up


def _tail_plan(characters):
    """Read each character eta as e_j + beta, with j its first nonzero
    coordinate, so that e(eta . v) = W_j T_beta with W_d = e(v_d) and
    T_beta = prod_d W_d^beta_d.  A character whose first entry is negative
    is read as the conjugate of its negation, and the zero character as 1.

    Returns the number of tail rows T_beta, kept in order of L1 norm with
    the zero tail first; one (parent index, k, up) step per later row, for
    T_beta = T_parent * W_k, or times conj(W_k) when not up; and per
    character None for zero, else (j, row index, conjugate).  Every tail on
    a chain down to zero gets a row."""
    needed, reads = {}, []
    for eta in characters:
        eta = tuple(int(v) for v in eta)
        if not any(eta):
            reads.append(None)
            continue
        j = next(i for i, v in enumerate(eta) if v)
        conj = eta[j] < 0
        if conj:
            eta = tuple(-v for v in eta)
        beta = eta[:j] + (eta[j] - 1,) + eta[j + 1:]
        reads.append((j, beta, conj))
        while beta not in needed:
            needed[beta] = None
            if not any(beta):
                break
            beta = _parent_tail(beta)[0]
    order = sorted(needed, key=lambda b: (sum(map(abs, b)), b))
    index = {b: i for i, b in enumerate(order)}
    steps = []
    for beta in order[1:]:
        parent, k, up = _parent_tail(beta)
        steps.append((index[parent], k, up))
    reads = [r if r is None else (r[0], index[r[1]], r[2]) for r in reads]
    return len(order), steps, reads


def _coordinate_blocks(tails):
    """W = e(orbit tuple coordinate) as (coordinate, x, y) arrays, for
    blocks of _SWEEP_ROWS values of x.

    With u_j(x) = e(sum_kappa C(x, kappa - j) B_kappa) for one coordinate's
    rows B_kappa of the orbit tail table, the binomial recurrence gives u_j(x+1) =
    u_j(x) u_{j+1}(x), so each x step costs s vector multiplies per
    coordinate instead of fresh exponentials.  Unit-modulus drift over the
    walk is ~n*eps, far below the thresholds in play.  The walk runs from
    x = 0 in one pass, so every block's W is the same whoever consumes it."""
    s1, s, ncomp, n = tails.shape
    ladder = np.exp(TWO_PI * 1j * tails.reshape(s1, s * ncomp, n))
    for x0 in range(0, n, _SWEEP_ROWS):
        w = np.empty((s * ncomp, min(_SWEEP_ROWS, n - x0), n), dtype=np.complex128)
        for r in range(w.shape[1]):
            w[:, r] = ladder[0]
            for j in range(s1 - 1):
                np.multiply(ladder[j], ladder[j + 1], out=ladder[j])
        yield w


def character_average(tails, characters, threads: int = 1):
    """E_{x,y} e(eta . orbit tuple) for each eta in `characters`.

    With eta = e_j + beta (see _tail_plan), sum_{x,y} e(eta . v) is entry
    (j, beta) of the matrix product W . T^T over the plane, with W the D
    coordinate rows and T the tail rows.  Per block of _SWEEP_ROWS rows of
    x, W comes off the difference ladder (_coordinate_blocks), each tail row
    is one elementwise multiply of a shorter one by W_k or its conjugate,
    and W . T^T (one complex GEMM) is added into a D x tails accumulator.
    Worker threads, min(threads, os.cpu_count()) of them (numpy releases
    the GIL on the multiplies and the GEMM), take whole blocks, and the
    partial sums are added in block order, so the averages are the same for
    any thread count."""
    ntails, steps, reads = _tail_plan(characters)
    n = tails.shape[-1]
    if not ntails:
        return [complex(1.0)] * len(reads)

    def block_sums(w):
        t = np.empty((ntails,) + w.shape[1:], dtype=np.complex128)
        t[0] = 1.0
        wc = np.conj(w)
        for i, (parent, k, up) in enumerate(steps, start=1):
            np.multiply(t[parent], w[k] if up else wc[k], out=t[i])
        return w.reshape(len(w), -1) @ t.reshape(ntails, -1).T

    blocks = _coordinate_blocks(tails)
    acc = np.zeros((tails.shape[1] * tails.shape[2], ntails), dtype=np.complex128)
    workers = min(threads, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            while wave := list(itertools.islice(blocks, workers)):
                for part in pool.map(block_sums, wave):
                    acc += part
    else:
        for w in blocks:
            acc += block_sums(w)
    averages = []
    for read in reads:
        if read is None:
            averages.append(complex(1.0))
            continue
        j, i, conj = read
        avg = complex(acc[j, i] / (n * n))
        averages.append(avg.conjugate() if conj else avg)
    return averages


def enumerate_characters(dim, radius):
    """Nonzero integer frequency vectors with L1 norm <= radius, first
    nonzero entry positive (sign dedup)."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == dim:
            if any(prefix):
                out.append(tuple(prefix))
            return
        for v in range(-remaining, remaining + 1):
            rec(prefix + [v], remaining - abs(v))

    rec([], radius)
    dedup = []
    for v in out:
        lead = next(x for x in v if x)
        if lead > 0:
            dedup.append(v)
    return dedup


def classify_characters(characters, closure: AffineClosure):
    """'generic' when eta is not orthogonal to the closure's subspace,
    'confined' when it is but pairs some coset shift to a non-integer, and
    'constant' otherwise.  The basis vectors and shifts are scaled to
    integers once: eta . b != 0 iff eta . (d b) != 0, and eta . shift is
    an integer iff eta . (d shift) = 0 mod d."""
    basis = [rl._as_int_row(vec)[0] for vec in closure.subspace_basis]
    shifts = [rl._as_int_row(shift) for shift in closure.coset_shifts]

    def kind(eta):
        if any(sum(f * b for f, b in zip(eta, row)) for row in basis):
            return "generic"
        if any(sum(f * a for f, a in zip(eta, row)) % d for row, d in shifts):
            return "confined"
        return "constant"

    return [kind(eta) for eta in characters]


# Refusal threshold for the character sweep, in characters x N^2 x (s+1).
# The matrix-product sweep's work per point grows with the tail rows and D
# rather than with this count, but both grow with the ball and with N^2.
# On a 2-vCPU machine (one BLAS thread) the README scenario (416
# characters, N = 2000, s = 2: cost 5.0e9) swept in 2.1-2.4 s, and the
# ceiling allows four times that cost.
SWEEP_BUDGET = 2 * 10 ** 10


class WeylBudgetExceeded(RuntimeError):
    pass


def check_sweep_cost(w: WeylSystem, prog: Progression, n: int, radius: int):
    """Refuse a character sweep whose cost characters x N^2 x (s+1) exceeds
    SWEEP_BUDGET, counting the characters of enumerate_characters without
    listing them: the ball |eta|_1 <= radius in Z^D holds
    sum_j 2^j C(D, j) C(radius, j) points, and sign dedup halves the nonzero
    ones."""
    if radius < 0:
        raise ValueError(f"character radius must be >= 0, got {radius}")
    dim = w.order * (prog.t + 1)
    points = sum(2 ** j * math.comb(dim, j) * math.comb(radius, j)
                 for j in range(min(dim, radius) + 1))
    cost = (points - 1) // 2 * n * n * (w.order + 1)
    if cost > SWEEP_BUDGET:
        raise WeylBudgetExceeded(
            f"character sweep cost {cost} exceeds budget {SWEEP_BUDGET} "
            f"(characters x N^2 x (s+1))")
    return cost


def equidistribution_test(w: WeylSystem, prog: Progression,
                          closure: AffineClosure, n: int, radius: int = 3,
                          threads: int = 1, tails=None):
    """Character averages over the orbit tuple for x, y < n.

    Characters orthogonal to the closure (subspace and coset lattice) must
    track the offset with modulus ~1; characters orthogonal to the subspace
    only are reported as confined; everything else must decay.  `threads`
    worker threads share the sweep's blocks of the plane (see
    character_average) and change nothing in the output.  `tails` is the
    _orbit_tail_tables(w, prog, n) table when the caller has built it.
    """
    if tails is None:
        tails = _orbit_tail_tables(w, prog, n)
    freq_list = enumerate_characters(closure.ambient_dim, radius)
    averages = character_average(tails, freq_list, threads=threads)
    kinds = classify_characters(freq_list, closure)
    rows = [DiscrepancyRow(frequencies=tuple(freqs), kind=kind, magnitude=abs(avg))
            for freqs, kind, avg in zip(freq_list, kinds, averages)]
    return DiscrepancyTable(n=n, radius=radius, rows=rows)


# Refusal threshold for coset confinement, in N^2 x cosets x 3^k (residuals
# over the plane for each coset and neighbourhood offset, with k annihilator
# rows).  On a 2-vCPU machine the README scenario (N = 2000, 3 cosets,
# k = 2: cost 1.08e8) ran in 1.65 s, and the ceiling allows 3.7 times that
# cost.
CONFINEMENT_BUDGET = 4 * 10 ** 8


def check_confinement_cost(closure: AffineClosure, n: int):
    """Refuse a coset confinement check whose cost N^2 x cosets x 3^k
    exceeds CONFINEMENT_BUDGET."""
    cost = n * n * len(closure.coset_shifts) * 3 ** len(closure.annihilator())
    if cost > CONFINEMENT_BUDGET:
        raise WeylBudgetExceeded(
            f"coset confinement cost {cost} exceeds budget {CONFINEMENT_BUDGET} "
            f"(N^2 x cosets x 3^k)")
    return cost


# Rows of x per confinement block: its arrays are (k, 128, N), a few MB at
# N = 2000, where whole (k, N, N) planes would take hundreds of MB.
_CONFINEMENT_ROWS = 128


def coset_confinement(w: WeylSystem, prog: Progression,
                      closure: AffineClosure, n: int, tails=None):
    """Largest Euclidean torus distance from an orbit tuple to the coset
    union, over all x, y < n.

    With A the annihilator basis matrix, the subgroup cut out by A is
    {v : A v in A Z^D}, and the distance from q to a coset is
    min |A^T (A A^T)^{-1} r| over residuals r = A(q - offset - shift) - z
    with z in the image lattice A Z^D.  Rounding is done over that image
    lattice (not blindly over Z^k), so the reported value is a true
    distance; coordinatewise rounding of lattice coefficients keeps it an
    upper bound, which is the safe direction for a confinement check.
    The plane runs in blocks of _CONFINEMENT_ROWS values of x, and the
    distance is bit-identical to that of one whole-plane pass.  `tails` is the
    _orbit_tail_tables(w, prog, n) table when the caller has built it.
    """
    ann = closure.annihilator()
    if not ann:
        return 0.0
    k = len(ann)
    a = np.array([[float(x) for x in row] for row in ann])
    gram_inv = np.linalg.inv(a @ a.T)
    # Image lattice A . Z^D, as HNF rows in Z^k.
    image = rl.hnf_rows([[row[j] for row in ann] for j in range(closure.ambient_dim)])
    if len(image) != k:
        raise AssertionError("annihilator image lattice must have full rank")
    h = np.array([[float(x) for x in row] for row in image])  # rows generate
    h_inv = np.linalg.inv(h.T)
    neighborhood = np.array(list(itertools.product((-1, 0, 1), repeat=k)))
    if tails is None:
        tails = _orbit_tail_tables(w, prog, n)
    cx = _binom_columns(n, w.order)
    ncomp = closure.components
    offset_f = np.array(closure.offset_floats())
    targets = [np.array([
        float(sum(Fraction(f) * x for f, x in zip(row, shift)))
        + float(np.dot([float(f) for f in row], offset_f))
        for row in ann]) for shift in closure.coset_shifts]
    # Lattice points are small integers, so z = H^T (round + offs) is exact
    # whichever way it is summed: one product per coset, plus H^T offs.
    steps = [h.T @ offs for offs in neighborhood]
    peaks = []
    for x0 in range(0, n, _CONFINEMENT_ROWS):
        block = cx[:, x0:x0 + _CONFINEMENT_ROWS]
        phases = np.stack([character_phases(tails, block, row, ncomp) for row in ann])
        best = None
        for target in targets:
            resid = phases - target[:, None, None]          # (k, x, y)
            coeff = np.tensordot(h_inv, resid, axes=(1, 0))  # lattice coords
            z0 = np.tensordot(h.T, np.round(coeff), axes=(1, 0))
            for step in steps:
                r = resid - (z0 + step[:, None, None])
                d2 = np.einsum("kxy,kl,lxy->xy", r, gram_inv, r)
                best = d2 if best is None else np.minimum(best, d2)
        peaks.append(best.max())
    # sqrt is monotone and correctly rounded, so it commutes with min and max
    return float(np.sqrt(np.max(peaks)))


def character_phases(tails, cx, freqs, ncomp):
    """eta . orbit tuple as real phases (x, y), up to integers."""
    return cx.T @ _phase_rows(tails, freqs, ncomp)
