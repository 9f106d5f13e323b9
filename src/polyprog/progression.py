"""Relation spaces and complexity classification of polynomial progressions.

A progression (x, x+P_1(y), ..., x+P_t(y)) of distinct nonzero integral
polynomials satisfies algebraic relations: tuples (Q_0, ..., Q_t) with
Q_0(x) + Q_1(x+P_1(y)) + ... + Q_t(x+P_t(y)) identically zero.  This module
computes exactly: the expansion tables hold integer grids with one scale per
degree, equation matrices and eliminations run in integers, and `Fraction`
appears only in the values read back from them (relation vectors, layer
coordinates, reported relations):

  * a basis of all relations up to a degree cap (relation_space),
  * per-index algebraic complexity (largest degree a relation forces at a
    slot) with a stabilization flag for the cap heuristic,
  * the graded layers: for each degree k, the span of the shifted binomial
    monomials C(x+P_i(y), k), the part shared with the other degrees, and
    representatives of the quotient,
  * homogeneity (no relation mixes degrees, equivalently the shared parts
    are trivial) with an explicit witness when it fails,
  * the coefficient spaces in Q^{t+1} with the decomposition pairs tying
    layer bases to coefficient vectors,
  * stability of all of the above under affine reparametrizations
    y -> (r(y-1)+j) (eligibility up to a finite r bound).

Degree caps: relation degrees are provably finite but no effective bound is
available in general, so every answer carries the cap it was computed at
and a `stabilized` flag (same result at cap and cap+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from . import ratlinalg as rl
from .polycore import (
    NEG_INF,
    cells_text,
    forward_differences,
    monomial_coeffs,
    poly_text,
    to_binomial_basis,
    trim,
    value,
)


@dataclass(frozen=True)
class Progression:
    """The tuple (x, x+P_1(y), ..., x+P_t(y)); P_0 = 0 is implicit.  Each
    P_i is held by its binomial coordinates (see polycore)."""

    polys: tuple

    def __post_init__(self):
        ps = tuple(trim(p) for p in self.polys)
        object.__setattr__(self, "polys", ps)
        if not ps:
            raise ValueError("progression needs at least one polynomial")
        seen = set()
        for p in ps:
            if not p:
                raise ValueError("progression polynomials must be nonzero")
            if p[0] != 0 or not all(isinstance(b, int) for b in p):
                raise ValueError(f"not integral: {poly_text(p)}")
            if p in seen:
                raise ValueError(f"duplicate term: x + {poly_text(p)}")
            seen.add(p)

    @property
    def t(self):
        return len(self.polys)

    def all_polys(self):
        """P_0 = 0 followed by P_1..P_t."""
        return ((),) + self.polys

    def max_degree(self):
        return max(len(p) for p in self.polys) - 1

    def default_cap(self):
        """Heuristic relation-degree cap: max(t-1, max deg + t)."""
        return max(self.t - 1, self.max_degree() + self.t)

    def text(self):
        return ", ".join(["x"] + [f"x + {poly_text(p)}" for p in self.polys])

    def __repr__(self):
        return f"Progression({self.text()!r})"


def progression(*polys):
    """Convenience constructor from monomial coefficient sequences."""
    return Progression(tuple(to_binomial_basis(p) for p in polys))


@dataclass(frozen=True)
class Relation:
    """(Q_0, ..., Q_t) with sum Q_i(x + P_i(y)) = 0, each Q_i by its
    binomial coordinates; constants normalized to zero (forced once
    Q_i(0) = 0 for i >= 1, since all P_i(0) = 0)."""

    qs: tuple

    @property
    def degree_profile(self):
        return tuple(len(q) - 1 if q else NEG_INF for q in self.qs)

    def holds_for(self, prog: Progression):
        """Exact re-check in integers, sharing nothing with the expansion
        table that solved for the relation.  R(x, y) = sum_i Q_i(x + P_i(y))
        has x-degree <= m = max deg Q_i and y-degree <= m * max deg P_i, so
        it is zero iff it vanishes on {0..m} x {0..m * max deg P_i}, where
        every C(x + P_i(y), k) is an integer."""
        m = max(len(q) for q in self.qs) - 1
        den = lcm(*(b.denominator for q in self.qs for b in q))
        ints = [[b.numerator * (den // b.denominator) for b in q] for q in self.qs]
        for y in range(m * prog.max_degree() + 1):
            shifts = [value(p, y) for p in prog.all_polys()]
            for x in range(m + 1):
                if sum(value(q, x + shift) for q, shift in zip(ints, shifts)):
                    return False
        return True

    def text(self):
        return "(" + ", ".join(poly_text(q, var="u") for q in self.qs) + ")"


@dataclass(frozen=True)
class RelationSpace:
    basis: tuple
    degree_cap: int
    stabilized: bool

    @property
    def dim(self):
        return len(self.basis)


# ---------------------------------------------------------------------------
# Shifted-binomial expansions over the C(x,a)C(y,b) grid

# Refusal threshold for the exact layer, in unknowns times grid cells of one
# relation system (exact_layer_cost).  On a 2-vCPU machine `analyze` took
# 1.4 s on x, x+y^12 (cost 3.6e4 at cap+1), 7.4 s on x, x+y^20 (2.2e5) and
# 20 s on x, x+y^24 (4.4e5); x, x+y^60 (1.4e7) did not finish in 25 s.
EXACT_LAYER_BUDGET = 250_000


class ExactLayerBudgetExceeded(RuntimeError):
    pass


def exact_layer_cost(prog: Progression, cap: int):
    """Unknowns times grid cells of the relation system at `cap`.

    The unknowns are the (t+1)*cap binomial coordinates; C(x + P_i(y), k)
    for k <= cap lives on the cells x^a y^b with b <= (cap - a) * max deg."""
    cells = (cap + 1) + prog.max_degree() * cap * (cap + 1) // 2
    return (prog.t + 1) * cap * cells


# Refusal threshold for the eligibility sweep, in families times the exact
# layer cost of one family (a family has the progression's t and degrees):
# ten families at the exact layer budget, so the default r_max = 4 refuses
# nothing the exact layer accepts.  On a 2-vCPU machine the report took 2.6 s
# on x, x+y^20 (1.9e6 at r_max 4) and 5.5 s on the five-term example at
# r_max 38 (2.4e6).
ELIGIBILITY_BUDGET = 10 * EXACT_LAYER_BUDGET


def check_eligibility_cost(prog: Progression, cap: int, r_max: int):
    """Refuse, before any exact work, an r_max below 1 or an eligibility
    sweep over r_max(r_max+1)/2 families above ELIGIBILITY_BUDGET (unless
    the exact layer refuses the progression itself)."""
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    cost = r_max * (r_max + 1) // 2 * exact_layer_cost(prog, cap)
    if cost > ELIGIBILITY_BUDGET and exact_layer_cost(prog, cap + 1) <= EXACT_LAYER_BUDGET:
        raise ExactLayerBudgetExceeded(
            f"eligibility cost {cost} for r_max {r_max} exceeds ELIGIBILITY_BUDGET "
            f"{ELIGIBILITY_BUDGET} (families x exact layer cost)")


def _convolve(a, b):
    """Product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=256)
def _scaled_polys(prog: Progression):
    """(L, (L*P_0, ..., L*P_t)) with integer monomial coefficient tuples,
    where L is the lcm of the monomial denominators of all P_i (P_0 = 0
    gives (0,))."""
    monos = [monomial_coeffs(p) for p in prog.polys]
    den = lcm(*(c.denominator for m in monos for c in m))
    return den, ((0,), *(tuple(c.numerator * (den // c.denominator) for c in m)
                         for m in monos))


@lru_cache(maxsize=256)
def _expansions(prog: Progression, cap: int):
    """(columns, rows, scales): the grid cells x^a y^b of all degrees <= cap,
    per degree k the integer rows d_k C(x + P_i(y), k), i = 0..t, over them
    (rows[0] is empty), and scales[k] = d_k = k! L^k.

    Computed once per (progression, cap) by the Vandermonde convolution
    C(x + P, k) = sum_j C(x, k-j) C(P, j), in integers: with Q = L*P and
    N_j = j! L^j C(P, j) = N_{j-1} (Q - (j-1) L), and with the falling
    factorials F_n(x) = n! C(x, n),
        k! L^k C(x + P, k) = sum_j C(k, j) L^(k-j) F_{k-j}(x) N_j(y).
    The monomial grid is what makes the canonical layer bases come out in
    the expected small form (x, y, y^3, ... rather than binomial
    recombinations); a scale shared by all rows of one degree changes no
    canonical basis."""
    cost = exact_layer_cost(prog, cap)
    if cost > EXACT_LAYER_BUDGET:
        raise ExactLayerBudgetExceeded(
            f"exact layer cost {cost} at cap {cap} exceeds budget {EXACT_LAYER_BUDGET} "
            f"(unknowns x grid cells)")
    scale, scaled = _scaled_polys(prog)
    falling = [[1]]
    for n in range(cap):
        falling.append(_convolve(falling[-1], [-n, 1]))
    grids = []      # i-major (k, grid) pairs, so rows[k] comes out in index order
    for q in scaled:
        numer = [[1]]
        for j in range(1, cap + 1):
            numer.append(_convolve(numer[-1], [q[0] - (j - 1) * scale, *q[1:]]))
        for k in range(1, cap + 1):
            grid = [[0] * len(numer[k]) for _ in range(k + 1)]
            for j in range(k + 1):
                weight = comb(k, j) * scale ** (k - j)
                for a, ca in enumerate(falling[k - j]):
                    if ca:
                        row, wa = grid[a], weight * ca
                        for b, cb in enumerate(numer[j]):
                            if cb:
                                row[b] += wa * cb
            grids.append((k, grid))
    columns = sorted({(a, b) for _, grid in grids for a, row in enumerate(grid)
                      for b, v in enumerate(row) if v},
                     key=lambda ab: (ab[0] + ab[1], ab[1], ab[0]))
    rows = [[] for _ in range(cap + 1)]
    for k, grid in grids:
        width = len(grid[0])
        rows[k].append(tuple(grid[a][b] if a <= k and b < width else 0 for a, b in columns))
    return (tuple(columns), tuple(map(tuple, rows)),
            tuple(factorial(k) * scale ** k for k in range(cap + 1)))


# ---------------------------------------------------------------------------
# Relation space

def relation_space(prog: Progression, cap: int) -> RelationSpace:
    """Basis of all relations with component degrees <= cap.

    Unknowns are the binomial coordinates b_{ik} (no constant terms, which
    kills the trivial constants-summing-to-zero kernel); the linear system
    says every grid coordinate of sum_i Q_i(x+P_i(y)) vanishes."""
    # cap+1 first: the budget check in _expansions then refuses before any work
    basis_next = _relation_vectors(prog, cap + 1)
    basis = _relation_vectors(prog, cap)
    space = RelationSpace(
        basis=tuple(_relation_from_vector(prog, cap, v) for v in basis),
        degree_cap=cap,
        stabilized=(len(basis_next) == len(basis)),
    )
    for rel in space.basis:
        if not rel.holds_for(prog):
            raise AssertionError("relation basis element fails the exact re-check")
    return space


@lru_cache(maxsize=512)
def _relation_vectors(prog: Progression, cap: int):
    if cap < 1:
        raise ValueError("relation cap must be >= 1")
    _, layer_rows, scales = _expansions(prog, cap)
    unknowns = [(i, k) for i in range(prog.t + 1) for k in range(1, cap + 1)]
    # Equation matrix M' = M D: one row per grid cell, one column per
    # unknown, with the true coefficient matrix M scaled by d_k per column.
    rows = list(zip(*(layer_rows[k][i] for i, k in unknowns)))
    # ker M = D ker M'.  Scaling columns by units mod p keeps the pivot
    # columns, so each vector is rescaled to read 1 at its free column
    # again, which in the leftmost-pivot form is its last nonzero entry (a
    # prescan prime that skews the pivots only changes a vector's scale).
    d = [scales[k] for _, k in unknowns]
    out = []
    for w in rl.kernel_basis(rows, ncols=len(unknowns)):
        free = max(j for j, x in enumerate(w) if x)
        out.append(tuple(x * d[j] / d[free] for j, x in enumerate(w)))
    return tuple(out)


def _relation_from_vector(prog: Progression, cap: int, vec):
    return Relation(qs=tuple(trim((0, *vec[i * cap:(i + 1) * cap]))
                             for i in range(prog.t + 1)))


def homogeneous_relations(prog: Progression, k: int):
    """Basis of K_k = {a in Q^{t+1} : sum_i a_i (x + P_i(y))^k = 0}, in the
    reduced form of `kernel_basis` (1 at its free column, 0 at the others).

    The x^a y^b coefficient of (x + P)^k is C(k, a) [y^b] P^(k-a), so K_k is
    cut out by the power rows sum_i a_i [y^b] P_i^m = 0, m = 0..k, and lies in
    K_{k-1}.  One cached computation per progression carries the kernel from
    degree to degree and stops at the first empty one, k = t at the latest."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    kernels = _homogeneous_kernels(prog)
    return list(kernels[k - 1]) if k <= len(kernels) else []


@lru_cache(maxsize=512)
def _homogeneous_kernels(prog: Progression):
    """(K_1, ..., K_e) up to the first empty K_e, with one running product
    (L P_i)^m per term.  K_0 (the row of ones at m = 0) has the basis
    e_i - e_0; K_m is the kernel of the new block [y^b] (L P_i)^m on integer
    multiples w_j of the basis of K_{m-1}.  A reduced vector has 0 at the
    other free columns and nothing right of its own, so the free columns of
    K_m are those of that small kernel, and each sum_j c_j w_j over its last
    nonzero entry is reduced.  Distinct P_i leave nothing at degree t."""
    _, scaled = _scaled_polys(prog)
    n = prog.t + 1
    basis = [(-1,) + tuple(int(i == j) for i in range(1, n)) for j in range(1, n)]
    powers = [[1]] * n
    kernels = []
    for _ in range(prog.t):
        powers = [_convolve(pw, q) for pw, q in zip(powers, scaled)]
        rows = [[sum(w[i] * pw[b] for i, pw in enumerate(powers) if w[i] and b < len(pw))
                 for w in basis] for b in range(max(map(len, powers)))]
        combos = [rl._as_int_row(c)[0] for c in rl.kernel_basis(rows, ncols=len(basis))]
        basis = [tuple(sum(a * w[i] for a, w in zip(cs, basis) if a) for i in range(n))
                 for cs in combos]
        kernels.append(tuple(tuple(Fraction(x, next(y for y in reversed(w) if y)) for x in w)
                             for w in basis))
        if not basis:
            return tuple(kernels)
    raise AssertionError(f"Vandermonde bound: {prog.text()} has homogeneous relations "
                         f"of degree t = {prog.t}")


def homogeneous_relation_dims(prog: Progression, cap: int):
    """dim K_k, k = 1..cap, read off the kernels carried from degree to
    degree: 0 from the first empty one on (k = t at the latest)."""
    return [len(homogeneous_relations(prog, k)) for k in range(1, cap + 1)]


# ---------------------------------------------------------------------------
# Complexity

def _profile_from_vectors(vectors, t, cap):
    prof = []
    for i in range(t + 1):
        best = 0
        for v in vectors:
            for k in range(cap, 0, -1):
                if v[i * cap + (k - 1)]:
                    best = max(best, k)
                    break
        prof.append(best)
    return tuple(prof)


def complexity_profile(prog: Progression, cap: int | None = None):
    """(s_0, ..., s_t) and a stabilization flag (same profile at cap+1)."""
    if cap is None:
        cap = prog.default_cap()
    prof = _profile_from_vectors(_relation_vectors(prog, cap), prog.t, cap)
    prof_next = _profile_from_vectors(_relation_vectors(prog, cap + 1), prog.t, cap + 1)
    return prof, prof == prof_next


class VandermondeViolation(AssertionError):
    def __init__(self, prog, profile, witness):
        self.profile = profile
        self.witness = witness
        super().__init__(
            f"complexity bound t-1 violated for {prog.text()}: profile {profile}; "
            f"witness relation {witness.text() if witness else 'n/a'}"
        )


def vandermonde_bound_check(prog: Progression, cap: int | None = None):
    """For homogeneous progressions, max_i complexity <= t-1.

    The bound is forced by the invertibility of Vandermonde matrices, so a
    violation indicates an implementation bug; it is reported with the
    witness relation."""
    homog, _ = is_homogeneous(prog, cap)
    if not homog:
        raise ValueError("bound check requires a homogeneous progression")
    if cap is None:
        cap = prog.default_cap()
    prof, _ = complexity_profile(prog, cap)
    if max(prof) <= prog.t - 1:
        return True
    space = relation_space(prog, cap)
    witness = next((r for r in space.basis
                    if any(len(q) > prog.t for q in r.qs)),
                   None)
    raise VandermondeViolation(prog, prof, witness)


# ---------------------------------------------------------------------------
# Graded layers

@dataclass(frozen=True)
class DegreeLayer:
    """Degree-k data: basis of the layer span, the part shared with other
    degrees, and quotient representatives (shared + proper spans the layer)."""

    k: int
    basis: tuple          # cell maps, canonical integral basis of the layer
    shared: tuple         # cell maps, basis of (layer ∩ sum of other layers)
    proper: tuple         # cell maps, representatives completing shared

    @property
    def dim(self):
        return len(self.basis)

    @property
    def proper_dim(self):
        return len(self.proper)


@dataclass(frozen=True)
class GradedSpaces:
    layers: tuple
    cap: int

    def layer(self, k):
        return self.layers[k - 1]


def graded_spaces(prog: Progression, k_max: int, cap: int | None = None) -> GradedSpaces:
    if cap is None:
        cap = max(prog.default_cap(), k_max)
    if k_max < 1 or cap < k_max:
        raise ValueError("need 1 <= k_max <= cap")
    columns, layer_rows, _ = _expansions(prog, cap)
    relations = _relation_vectors(prog, cap)
    layers = []
    for k in range(1, k_max + 1):
        basis_rows = rl.canonical_basis(layer_rows[k])
        # w = sum_i b_i C(x+P_i, k) lies in the other layers exactly when
        # (b at degree k, minus its other-degree expression) is a relation,
        # so the shared part is the degree-k image of the relation space.
        shared_rows = rl.canonical_basis(_degree_images(relations, layer_rows[k], cap, k))
        proper_rows = rl.extend_basis(shared_rows, basis_rows)
        layers.append(DegreeLayer(
            k=k,
            basis=tuple(_row_cells(r, columns) for r in basis_rows),
            shared=tuple(_row_cells(r, columns) for r in shared_rows),
            proper=tuple(_row_cells(r, columns) for r in proper_rows),
        ))
        if len(shared_rows) + len(proper_rows) != len(basis_rows):
            raise AssertionError("layer dimensions inconsistent")
    return GradedSpaces(layers=tuple(layers), cap=cap)


def _degree_images(relations, rows, cap, k):
    """Per relation vector v, sum_i v_ik rows[i]: the degree-k part of the
    relation over the degree-k rows."""
    images = []
    for v in relations:
        image = [0] * len(rows[0])
        for i, row in enumerate(rows):
            c = v[i * cap + (k - 1)]
            if c:
                image = [x + c * y for x, y in zip(image, row)]
        images.append(image)
    return images


def _row_cells(row, columns):
    """The cell map {(a, b): value} of a row over the grid cells `columns`."""
    return {col: v for col, v in zip(columns, row) if v}


# ---------------------------------------------------------------------------
# Homogeneity

@dataclass(frozen=True)
class InhomogeneityWitness:
    k: int
    shared_poly: dict     # cell map
    relation: Relation


def is_homogeneous(prog: Progression, cap: int | None = None):
    """True iff every degree layer is disjoint from the span of the others
    (shared parts trivial) for k <= cap.

    Decision by dimension comparison: the relation space equals the span of
    the single-degree relations exactly in the homogeneous case, and the two
    computations share no code path.  On failure the witness carries a
    nonzero shared polynomial and a degree-mixing relation, both read off
    the relation kernel.
    """
    if cap is None:
        cap = prog.default_cap()
    if _homogeneous_decision(prog, cap):
        return True, None
    return False, _inhomogeneity_witness(prog, cap)


@lru_cache(maxsize=512)
def _homogeneous_decision(prog: Progression, cap: int):
    space_dim = len(_relation_vectors(prog, cap))
    homog_dim = sum(homogeneous_relation_dims(prog, cap))
    if space_dim < homog_dim:
        raise AssertionError("homogeneous relations must embed in the relation space")
    return space_dim == homog_dim


def homogeneity_report(prog: Progression, cap: int | None = None):
    if cap is None:
        cap = prog.default_cap()
    homog, witness = is_homogeneous(prog, cap)
    stab = _homogeneous_decision(prog, cap) == _homogeneous_decision(prog, cap + 1)
    return {"homogeneous": homog, "cap": cap, "stabilized": stab, "witness": witness}


def _inhomogeneity_witness(prog: Progression, cap: int):
    """At the first degree k where some relation vector has a nonzero
    image, the first canonical row of the images is the shared polynomial
    (graded_spaces' layer(k).shared[0]), and the combination of relation
    vectors whose degree-k image is exactly that polynomial is the witness
    relation: it vanishes while its degree-k part does not."""
    columns, layer_rows, scales = _expansions(prog, cap)
    relations = _relation_vectors(prog, cap)
    for k in range(1, cap + 1):
        images = _degree_images(relations, layer_rows[k], cap, k)
        if not any(any(image) for image in images):
            continue
        shared = rl.canonical_basis(images)[0]
        # the rows, and so the images, carry the scale d_k
        coords = rl.coordinates_in_rows([[scales[k] * x for x in shared]], images)[0]
        vec = [sum(c * x for c, x in zip(coords, col) if c) for col in zip(*relations)]
        rel = _relation_from_vector(prog, cap, vec)
        if not rel.holds_for(prog):
            raise AssertionError("witness relation fails the exact re-check")
        return InhomogeneityWitness(k=k, shared_poly=_row_cells(shared, columns),
                                    relation=rel)
    raise AssertionError("dimension test and relation kernel disagree")


# ---------------------------------------------------------------------------
# Coefficient spaces and decomposition pairs

@dataclass(frozen=True)
class CoeffSpace:
    """Span in Q^{t+1} of the coefficient tuples (C(x,k), ..., C(x+P_t,k))
    sweeps out, together with the exact decomposition of that tuple over a
    layer basis."""

    k: int
    basis: tuple          # vectors in Q^{t+1} (the decomposition vectors)
    decomposition: tuple  # (layer basis cell map, vector) pairs

    @property
    def dim(self):
        return len(self.basis)


def coeff_space(prog: Progression, k: int, cap: int | None = None) -> CoeffSpace:
    if k < 1:
        raise ValueError("degree must be >= 1")
    if cap is None:
        cap = max(prog.default_cap(), k)
    columns, layer_rows, scales = _expansions(prog, cap)
    # only the cells of degree k: the eliminations below scale with width
    used = [j for j in range(len(columns)) if any(row[j] for row in layer_rows[k])]
    columns = [columns[j] for j in used]
    comp_rows = [[row[j] for j in used] for row in layer_rows[k]]
    basis_rows = rl.canonical_basis(comp_rows)
    vectors = _component_vectors(comp_rows, basis_rows, scales[k])
    if rl.rank(vectors) != len(basis_rows):
        raise AssertionError("decomposition vectors must be independent")
    pairs = tuple((_row_cells(r, columns), v) for r, v in zip(basis_rows, vectors))
    return CoeffSpace(k=k, basis=tuple(vectors), decomposition=pairs)


def _component_vectors(comp_rows, basis_rows, scale):
    """Per basis row, the coordinates of the degree-k components (the rows
    C(x + P_i(y), k), which carry the scale d_k) over the basis, divided by
    d_k: the decomposition vectors, one entry per component."""
    coords = rl.coordinates_in_rows(comp_rows, basis_rows)
    if any(c is None for c in coords):
        raise AssertionError("layer component must lie in the layer span")
    return [tuple(c[j] / scale for c in coords) for j in range(len(basis_rows))]


# ---------------------------------------------------------------------------
# Eligibility under affine reparametrization

def reparametrized_family(prog: Progression, r: int, j: int) -> Progression:
    """The progression built from (P_i(r(y-1)+j) - P_i(j)) / r, normalized
    to an integral progression.

    The binomial coordinates of r times that polynomial are the forward
    differences of its integer values at y = 0..deg P_i.  Normalization:
    constant terms (b_0) are dropped and the common denominator of the
    coordinates over r is scaled away.  Both steps preserve homogeneity and
    the complexity profile (constant shifts substitute into the relation
    polynomials; a common integer scaling u -> L u reparametrizes x
    exactly)."""
    diffs = [[0] + forward_differences([value(p, r * (y - 1) + j) - value(p, j)
                                        for y in range(len(p))])[1:]
             for p in prog.polys]
    den = lcm(*(r // gcd(r, b) for bs in diffs for b in bs))
    return Progression(tuple(tuple(b * den // r for b in bs) for bs in diffs))


@dataclass(frozen=True)
class EligibilityReport:
    eligible: bool
    r_max: int
    cap: int
    failure: tuple | None = None   # (r, j, reason)
    checked: int = 0


def is_eligible(prog: Progression, r_max: int = 6, cap: int | None = None):
    """Homogeneity and complexity profile stable under all reparametrizations
    y -> r(y-1)+j with r <= r_max; certifies up to r_max only.  A family has
    the progression's t and degrees, and so its default cap."""
    if cap is None:
        cap = prog.default_cap()
    check_eligibility_cost(prog, cap, r_max)
    homog, _ = is_homogeneous(prog, cap)
    if not homog:
        raise ValueError("eligibility is defined for homogeneous progressions")
    base_profile, _ = complexity_profile(prog, cap)
    checked = 0
    for r in range(1, r_max + 1):
        for j in range(r):
            fam = reparametrized_family(prog, r, j)
            if not is_homogeneous(fam, cap)[0]:
                return EligibilityReport(False, r_max, cap, (r, j, "inhomogeneous"), checked)
            # profile at cap only; complexity_profile's cap+1 pass is not needed
            prof = _profile_from_vectors(_relation_vectors(fam, cap), fam.t, cap)
            if prof != base_profile:
                return EligibilityReport(False, r_max, cap,
                                         (r, j, f"profile {prof} != {base_profile}"), checked)
            checked += 1
    return EligibilityReport(True, r_max, cap, None, checked)


# ---------------------------------------------------------------------------
# Aggregate report

def complexity_report(prog: Progression, cap: int | None = None,
                      eligibility_r_max: int = 4):
    """One serializable document with everything the classification knows."""
    if cap is None:
        cap = prog.default_cap()
    check_eligibility_cost(prog, cap, eligibility_r_max)
    space = relation_space(prog, cap)
    prof, prof_stable = complexity_profile(prog, cap)
    homog = homogeneity_report(prog, cap)
    k_report = min(cap, max(2, max(prof) + 1))
    graded = graded_spaces(prog, k_max=k_report, cap=cap)
    report = {
        "schema": "polyprog-report/1",
        "progression": prog.text(),
        "t": prog.t,
        "cap": cap,
        "homogeneous": homog["homogeneous"],
        "homogeneity_stabilized": homog["stabilized"],
        "complexity": list(prof),
        "complexity_stabilized": prof_stable,
        "relation_space_dim": space.dim,
        "relation_basis": [r.text() for r in space.basis],
        "layer_dims": {str(layer.k): layer.dim for layer in graded.layers},
        "proper_dims": {str(layer.k): layer.proper_dim for layer in graded.layers},
        "shared_dims": {str(layer.k): len(layer.shared) for layer in graded.layers},
        "shared_polys": [cells_text(w) for layer in graded.layers for w in layer.shared],
        # one independent decomposition vector per layer basis row (coeff_space)
        "coeff_space_dims": {str(layer.k): layer.dim for layer in graded.layers},
    }
    if homog["witness"] is not None:
        report["inhomogeneity_witness"] = {
            "k": homog["witness"].k,
            "shared_poly": cells_text(homog["witness"].shared_poly),
            "relation": homog["witness"].relation.text(),
        }
    if homog["homogeneous"]:
        elig = is_eligible(prog, r_max=eligibility_r_max, cap=cap)
        report[f"eligible_upto_{eligibility_r_max}"] = elig.eligible
    return report
