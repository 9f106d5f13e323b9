import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from polyprog import oracle, ratlinalg as rl, weyl
from polyprog.polycore import binom_int, to_binomial_basis
from polyprog.progression import Relation, progression
from polyprog.weyl import (
    Irrational,
    WeylSystem,
    closure_subspaces,
    coset_confinement,
    equidistribution_test,
    lower_bound_witness,
    orbit_lift,
)

# monomial coefficients
INH = progression((0, 1), (0, 2), (0, 0, 1))
HOM = progression((0, 1), (0, 2), (0, 0, 0, 1))
DEGREE2 = Relation(qs=tuple(to_binomial_basis(q) for q in
                            ((0, 2, 1), (0, 0, -2), (0, 0, 1), (0, -2))))

SQRT2 = Irrational("sqrt2")
STD2 = WeylSystem.standard(2, SQRT2, (Irrational("sqrt3"), Irrational("sqrt5")))


def test_catalog_values():
    assert abs(float(Irrational("sqrt2")) - math.sqrt(2)) < 1e-15
    assert abs(float(Irrational("golden")) - (1 + math.sqrt(5)) / 2) < 1e-15
    assert abs(float(Irrational("e")) - math.e) < 1e-15
    assert abs(float(Irrational("sqrt2", Fraction(1, 3)))
               - (math.sqrt(2) + 1 / 3)) < 1e-15
    with pytest.raises(ValueError):
        Irrational("pi")


def test_binom_int_negative_arguments():
    for n in range(-6, 7):
        for k in range(0, 5):
            assert binom_int(n, k) == round(
                math.prod(n - i for i in range(k)) / math.factorial(k))


def _point(w, n):
    """The torus point at time n: fixed-point coordinates mod 1."""
    return tuple(v % weyl._SCALE for v in orbit_lift(w, n))


def test_orbit_point_examples():
    w1 = WeylSystem.standard(1, SQRT2, (Fraction(0),))
    assert _point(w1, 0) == (0,)
    assert abs(_point(w1, 3)[0] / weyl._SCALE - (3 * math.sqrt(2)) % 1) < 1e-12
    w2 = WeylSystem.standard(2, SQRT2, (Fraction(0), Fraction(0)))
    pt = [v / weyl._SCALE for v in _point(w2, 2)]
    assert abs(pt[0] - (2 * math.sqrt(2)) % 1) < 1e-12
    assert abs(pt[1] - math.sqrt(2) % 1) < 1e-12    # C(2,2) a_0


def test_orbit_closed_form_equals_iteration_exactly():
    pt = _point(STD2, 0)
    for n in range(1, 51):
        pt = oracle.step(STD2, pt)
        assert pt == _point(STD2, n)   # fixed point arithmetic is exact


def test_orbit_cocycle_identity():
    # negative start times run binom_int on n < 0
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(-50, 50))
        n = int(rng.integers(0, 50))
        pt = _point(STD2, m)
        for _ in range(n):
            pt = oracle.step(STD2, pt)
        assert pt == _point(STD2, m + n)


def test_generator_validation():
    with pytest.raises(ValueError):
        WeylSystem.from_generators(2, [(SQRT2, 0), (SQRT2, SQRT2)])  # level-1 leak
    with pytest.raises(ValueError):
        WeylSystem.from_generators(2, [(Fraction(1, 2), 0), (0, SQRT2)])


def test_lower_bound_witness_degree_two_relation():
    record = lower_bound_witness(INH, DEGREE2, Irrational("golden"), STD2,
                                 samples=500, seed=7)
    assert record.product_max_deviation < 1e-9
    assert record.projection_killed == [True, True, True, False]


def test_lower_bound_witness_ap_on_rotation():
    w1 = WeylSystem.standard(1, SQRT2, (Irrational("sqrt3"),))
    rel = Relation(qs=((0, 1), (0, -2), (0, 1)))
    record = lower_bound_witness(progression((0, 1), (0, 2)), rel,
                                 Irrational("sqrt5"), w1, samples=300, seed=1)
    assert record.product_max_deviation < 1e-9
    assert record.projection_killed == [True, True, True]


def test_lower_bound_witness_zero_relation():
    zero = Relation(qs=((),) * 4)
    record = lower_bound_witness(INH, zero, SQRT2, STD2, samples=50, seed=2)
    assert record.product_max_deviation < 1e-12
    assert record.projection_killed == [False] * 4


def test_lower_bound_witness_degree_guard():
    w1 = WeylSystem.standard(1, SQRT2, (Irrational("sqrt3"),))
    with pytest.raises(ValueError):
        lower_bound_witness(INH, DEGREE2, SQRT2, w1)


EXPECTED_SPAN_6 = [
    (1, 1, 1, 1, 0, 0, 0, 0),
    (0, 1, 2, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 1, 0),
    (0, 0, 0, 0, 1, 1, 1, 1),
    (0, 0, 0, 0, 0, 1, 2, 0),
    (0, 0, 0, 0, 0, 0, 0, 1),
]


def test_closure_dependent_six_dimensional_three_cosets():
    system = WeylSystem.from_generators(
        2, [(SQRT2, 0), (0, Irrational("sqrt2", Fraction(1, 3)))])
    closure = closure_subspaces(INH, system)
    assert closure.dim == 6
    assert rl.same_row_space([list(v) for v in closure.subspace_basis],
                             [list(v) for v in EXPECTED_SPAN_6])
    shifts = sorted(tuple(s) for s in closure.coset_shifts)
    third = Fraction(1, 3)
    assert len(shifts) == 3
    assert (0,) * 8 in [tuple(s) for s in closure.coset_shifts]
    nonzero = [s for s in closure.coset_shifts if any(s)]
    for s in nonzero:
        assert [i for i, v in enumerate(s) if v] == [6]
        assert s[6] in (third, 2 * third)


def test_closure_independent_is_seven_dimensional():
    system = WeylSystem.from_generators(2, [(SQRT2, 0), (0, Irrational("sqrt3"))])
    closure = closure_subspaces(INH, system)
    assert closure.dim == 7 and len(closure.coset_shifts) == 1
    full7 = [list(v) for v in EXPECTED_SPAN_6] + [[0, 0, 0, 0, 0, 0, 1, 0]]
    assert rl.same_row_space([list(v) for v in closure.subspace_basis], full7)


def test_closure_homogeneous_single_coset():
    closure = closure_subspaces(HOM, STD2)
    assert closure.dim == 7 and len(closure.coset_shifts) == 1
    assert closure.annihilator() == [(1, -2, 1, 0, 0, 0, 0, 0)]


def test_closure_contains_complexity_blocks():
    # for complexity s' at index i, the block {0}^i x (levels > s') x {0}
    # sits inside the closure span of the standard system
    closure = closure_subspaces(HOM, STD2)
    span = [list(v) for v in closure.subspace_basis]
    ncomp = 4

    def ambient_unit(level, comp):
        v = [0] * 8
        v[(level - 1) * ncomp + comp] = 1
        return v

    # index 3 has complexity 0: both levels of its block are inside
    assert rl.coordinates_in_rows([ambient_unit(1, 3)], span)[0] is not None
    assert rl.coordinates_in_rows([ambient_unit(2, 3)], span)[0] is not None
    # index 0 has complexity 1: level 2 inside, level 1 outside
    assert rl.coordinates_in_rows([ambient_unit(2, 0)], span)[0] is not None
    assert rl.coordinates_in_rows([ambient_unit(1, 0)], span) == [None]


def test_closure_rejects_reused_symbol_in_generator():
    with pytest.raises(ValueError):
        bad = WeylSystem.from_generators(
            2, [(SQRT2, Irrational("sqrt2", Fraction(1, 2))), (0, Irrational("sqrt3"))])
        closure_subspaces(INH, bad)


def test_equidistribution_classification_and_constants():
    closure = closure_subspaces(HOM, STD2)
    tails = weyl._orbit_tail_tables(STD2, HOM, 250)
    table = equidistribution_test(STD2, HOM, closure, 250, radius=1, tails=tails)
    # the AP character lies outside the radius-1 ball: read it on the same tails
    ap = (1, -2, 1, 0, 0, 0, 0, 0)
    assert weyl.classify_characters([ap], closure) == ["constant"]
    assert abs(abs(weyl.character_average(tails, [ap])[0]) - 1.0) < 1e-9
    for row in table.rows:
        if row.kind == "generic":
            assert row.magnitude < 0.9


def test_character_average_pool_capped_by_cpu_count(monkeypatch):
    # a fake executor records the pool size and maps in the calling thread,
    # so no worker thread starts
    import concurrent.futures
    sizes = []

    class FakeExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    tails = weyl._orbit_tail_tables(STD2, HOM, 40)
    chars = weyl.enumerate_characters(8, 1)
    serial = weyl.character_average(tails, chars)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", FakeExecutor)
    monkeypatch.setattr(weyl.os, "cpu_count", lambda: 3)
    assert weyl.character_average(tails, chars, threads=10 ** 6) == serial
    assert weyl.character_average(tails, chars, threads=2) == serial
    assert sizes == [3, 2]
    monkeypatch.setattr(weyl.os, "cpu_count", lambda: 1)
    assert weyl.character_average(tails, chars, threads=8) == serial
    assert sizes == [3, 2]      # one worker: no pool


def test_equidistribution_threads_deterministic():
    # at least three blocks of the plane for the two threads to share
    closure = closure_subspaces(HOM, STD2)
    t1 = equidistribution_test(STD2, HOM, closure, 120, radius=2)
    t2 = equidistribution_test(STD2, HOM, closure, 120, radius=2, threads=2)
    assert 120 >= 3 * weyl._SWEEP_ROWS
    assert [(r.frequencies, r.magnitude) for r in t1.rows] == \
        [(r.frequencies, r.magnitude) for r in t2.rows]


def _ladder_per_character(tails, freqs, ncomp):
    """The difference ladder on one character's own (s+1, n) rows."""
    b = weyl._phase_rows(tails, freqs, ncomp)
    s1, n = b.shape
    ladder = [np.exp(weyl.TWO_PI * 1j * b[j]) for j in range(s1)]
    acc = np.zeros(n, dtype=np.complex128)
    for _ in range(n):
        acc += ladder[0]
        for j in range(s1 - 1):
            ladder[j] = ladder[j] * ladder[j + 1]
    return complex(acc.sum() / (n * n))


def _exact_character_averages(system, prog, n, characters):
    """Pointwise references: each character's orbit_lift fixed-point phase,
    reduced mod 1 exactly, then one float exp per point."""
    lifts = {}
    coords = np.empty((system.order * (prog.t + 1), n, n), dtype=object)
    for c, p in enumerate(prog.all_polys()):
        mono = oracle.monomial(p)
        for y in range(n):
            py = int(oracle.evaluate(mono, y))
            for x in range(n):
                if x + py not in lifts:
                    lifts[x + py] = orbit_lift(system, x + py)
                for l, value in enumerate(lifts[x + py]):
                    coords[l * (prog.t + 1) + c, x, y] = value
    out = []
    for freqs in characters:
        phase = coords[0] * 0
        for d, f in enumerate(freqs):
            if f:
                phase = phase + f * coords[d]
        frac = (phase % weyl._SCALE / weyl._SCALE).astype(float)
        out.append(complex(np.exp(2j * np.pi * frac).sum() / n ** 2))
    return out


def test_sweep_matches_exact_and_per_character_references():
    # The GEMM sweep sums in another order than a per-character ladder, so
    # both references are met within 1e-10, not exactly.
    system = WeylSystem.from_generators(
        2, [(SQRT2, 0), (0, Irrational("sqrt2", Fraction(1, 3)))],
        base=(Fraction(9, 5), Fraction(1, 2)))
    n = 90
    characters = weyl.enumerate_characters(8, 2) + [
        (0, 0, 0, 0, 0, 0, 3, 0),        # norm 3
        (2, -1, 0, 3, 1, 0, -2, 1),      # norm 10
        (-1, 0, 2, 0, 0, -1, 0, 0),      # first entry negative
        (0,) * 8,
    ]
    assert len(characters) == 76
    tails = weyl._orbit_tail_tables(system, INH, n)
    fast = weyl.character_average(tails, characters)
    exact = _exact_character_averages(system, INH, n, characters)
    assert exact[-1] == 1.0
    for freqs, got, want in zip(characters, fast, exact):
        assert abs(got - want) < 1e-10, freqs
        assert abs(got - _ladder_per_character(tails, freqs, 4)) < 1e-10, freqs


def _kind_by_fractions(freqs, closure):
    """classify_characters for one character, in Fraction dot products."""
    for vec in closure.subspace_basis:
        if sum(Fraction(f) * x for f, x in zip(freqs, vec)) != 0:
            return "generic"
    for shift in closure.coset_shifts:
        if sum(Fraction(f) * x for f, x in zip(freqs, shift)).denominator != 1:
            return "confined"
    return "constant"


def test_integer_classification_matches_fractions():
    dep = closure_subspaces(INH, WeylSystem.from_generators(
        2, [(SQRT2, 0), (0, Irrational("sqrt2", Fraction(1, 3)))]))
    ind = closure_subspaces(INH, WeylSystem.from_generators(
        2, [(SQRT2, 0), (0, Irrational("sqrt3"))]))
    # false closures: basis vectors dropped, with and without coset shifts
    false_ind = dataclasses.replace(ind, subspace_basis=ind.subspace_basis[:-1])
    false_dep = dataclasses.replace(dep, subspace_basis=dep.subspace_basis[:-3])
    characters = weyl.enumerate_characters(8, 3)
    seen = set()
    for closure in (dep, ind, false_ind, false_dep):
        kinds = weyl.classify_characters(characters, closure)
        assert kinds == [_kind_by_fractions(f, closure) for f in characters]
        seen.update(kinds)
    assert seen == {"generic", "confined", "constant"}


def test_sweep_cost_counts_the_enumerated_characters():
    for system, prog in ((WeylSystem.standard(1, SQRT2, (Fraction(0),)), HOM),
                         (STD2, INH)):
        dim = system.order * (prog.t + 1)
        for radius in range(4):
            chars = len(weyl.enumerate_characters(dim, radius))
            assert weyl.check_sweep_cost(system, prog, 30, radius) == \
                chars * 30 ** 2 * (system.order + 1)
    with pytest.raises(weyl.WeylBudgetExceeded):
        weyl.check_sweep_cost(STD2, INH, 20000, 3)
    with pytest.raises(ValueError):
        weyl.check_sweep_cost(STD2, INH, 30, -1)


def test_confinement_cost_counts_cosets_and_offsets():
    system = WeylSystem.from_generators(
        2, [(SQRT2, 0), (0, Irrational("sqrt2", Fraction(1, 3)))])
    closure = closure_subspaces(INH, system)
    k = len(closure.annihilator())
    assert weyl.check_confinement_cost(closure, 30) == \
        30 ** 2 * len(closure.coset_shifts) * 3 ** k
    with pytest.raises(weyl.WeylBudgetExceeded):
        weyl.check_confinement_cost(closure, 20000)


def test_coset_confinement_small():
    system = WeylSystem.from_generators(
        2, [(SQRT2, 0), (0, Irrational("sqrt2", Fraction(1, 3)))])
    closure = closure_subspaces(INH, system)
    assert coset_confinement(system, INH, closure, 250) < 1e-9
    # independent case: the lone annihilating phase vanishes identically
    ind = WeylSystem.from_generators(2, [(SQRT2, 0), (0, Irrational("sqrt3"))])
    cl2 = closure_subspaces(INH, ind)
    assert coset_confinement(ind, INH, cl2, 250) < 1e-9


def test_trivial_character_row_is_exactly_one():
    closure = closure_subspaces(HOM, STD2)
    tails = weyl._orbit_tail_tables(STD2, HOM, 60)
    assert weyl.classify_characters([(0,) * 8], closure) == ["constant"]
    assert abs(abs(weyl.character_average(tails, [(0,) * 8])[0]) - 1.0) < 1e-12


def test_character_average_matches_direct_orbit_evaluation():
    # the tail-table + ladder route against literal pointwise evaluation,
    # on a generator-form system with a nontrivial base point
    system = WeylSystem.from_generators(
        2, [(SQRT2, 0), (0, Irrational("sqrt2", Fraction(1, 3)))],
        base=(Irrational("sqrt5"), Fraction(1, 7)))
    n = 40
    tails = weyl._orbit_tail_tables(system, INH, n)
    cx = weyl._binom_columns(n, 2)
    freqs = (2, -1, 0, 3, 1, 0, -2, 1)
    fast, = weyl.character_average(tails, [freqs])
    phases = weyl.character_phases(tails, cx, freqs, 4)
    total = 0j
    for x in range(n):
        for y in range(n):
            phase_fp = 0
            for c, p in enumerate(INH.all_polys()):
                lift = orbit_lift(system, x + int(oracle.evaluate(oracle.monomial(p), y)))
                for l in (0, 1):
                    phase_fp += freqs[l * 4 + c] * lift[l]
            phase = (phase_fp % weyl._SCALE) / weyl._SCALE
            gap = (phases[x, y] - phase) % 1.0
            assert min(gap, 1.0 - gap) < 1e-9
            total += np.exp(2j * np.pi * phase)
    assert abs(fast - total / n ** 2) < 1e-9


def test_confinement_rejects_false_closure():
    ind = WeylSystem.from_generators(2, [(SQRT2, 0), (0, Irrational("sqrt3"))])
    true_closure = closure_subspaces(INH, ind)
    lie = weyl.AffineClosure(
        offset=true_closure.offset,
        subspace_basis=true_closure.subspace_basis[:-1],
        coset_shifts=(tuple(Fraction(0) for _ in range(8)),),
        ambient_dim=8, order=2, components=4, dependencies=())
    assert coset_confinement(ind, INH, true_closure, 150) < 1e-9
    assert coset_confinement(ind, INH, lie, 150) > 0.05


def _whole_plane_confinement(w, prog, closure, n):
    """Confinement distance from whole (k, n, n) planes: the square root at
    every point and one lattice product per neighbourhood offset."""
    ann = closure.annihilator()
    a = np.array([[float(x) for x in row] for row in ann])
    gram_inv = np.linalg.inv(a @ a.T)
    image = rl.hnf_rows([[row[j] for row in ann] for j in range(closure.ambient_dim)])
    h = np.array([[float(x) for x in row] for row in image])
    h_inv = np.linalg.inv(h.T)
    neighborhood = np.array(list(itertools.product((-1, 0, 1), repeat=len(ann))))
    tails = weyl._orbit_tail_tables(w, prog, n)
    cx = weyl._binom_columns(n, w.order)
    offset_f = np.array(closure.offset_floats())
    phases = np.stack([weyl.character_phases(tails, cx, row, closure.components)
                       for row in ann])
    best = None
    for shift in closure.coset_shifts:
        target = np.array([
            float(sum(Fraction(f) * x for f, x in zip(row, shift)))
            + float(np.dot([float(f) for f in row], offset_f))
            for row in ann])
        resid = phases - target[:, None, None]
        base_round = np.round(np.tensordot(h_inv, resid, axes=(1, 0)))
        for offs in neighborhood:
            z = np.tensordot(h.T, base_round + offs[:, None, None], axes=(1, 0))
            r = resid - z
            d = np.sqrt(np.einsum("kxy,kl,lxy->xy", r, gram_inv, r))
            best = d if best is None else np.minimum(best, d)
    return float(best.max())


def test_blocked_confinement_equals_whole_plane():
    # n = 250 is no multiple of the 128-row block, so the last block is short
    dep = WeylSystem.from_generators(
        2, [(SQRT2, 0), (0, Irrational("sqrt2", Fraction(1, 3)))],
        base=(Fraction(9, 5), Fraction(1, 2)))
    ind = WeylSystem.from_generators(2, [(SQRT2, 0), (0, Irrational("sqrt3"))])
    true_closure = closure_subspaces(INH, ind)
    lie = weyl.AffineClosure(
        offset=true_closure.offset,
        subspace_basis=true_closure.subspace_basis[:-1],
        coset_shifts=(tuple(Fraction(0) for _ in range(8)),),
        ambient_dim=8, order=2, components=4, dependencies=())
    n = 250
    assert n % weyl._CONFINEMENT_ROWS
    for system, closure in ((dep, closure_subspaces(INH, dep)), (ind, lie)):
        assert coset_confinement(system, INH, closure, n) == \
            _whole_plane_confinement(system, INH, closure, n)
