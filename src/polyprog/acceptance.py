"""Acceptance suite: one function per criterion, pinned tolerances.

Each criterion returns a CriterionResult and prints a single PASS/FAIL
line; `run_all` drives them in order.  Seeds, moduli, and tolerances are
fixed here, not configurable: these are the numbers the package promises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from . import cyclic, ratlinalg as rl, weyl
from .polycore import trim
from .progression import (
    Progression,
    Relation,
    complexity_profile,
    complexity_report,
    graded_spaces,
    is_homogeneous,
    progression,
    relation_space,
    vandermonde_bound_check,
)

SEED = 20259

# The running examples (monomial coefficients): a homogeneous and an
# inhomogeneous progression that differ only in the last term, and the
# five-term linear-relations-only one.
HOM = progression((0, 1), (0, 2), (0, 0, 0, 1))                  # x, x+y, x+2y, x+y^3
INH = progression((0, 1), (0, 2), (0, 0, 1))                     # x, x+y, x+2y, x+y^2
FIVE = progression((0, 0, 1), (0, 0, 2), (0, 0, 0, 1), (0, 0, 0, 2))  # x, x+y^2, ..., x+2y^3
DEGREE2_RELATION = Relation(qs=(     # binomial coordinates
    (0, 3, 2),      # u^2 + 2u
    (0, -2, -4),    # -2u^2
    (0, 1, 2),      # u^2
    (0, -2),        # -2u
))


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    detail: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} criterion {self.index:2d} {self.name:<22s} "
                f"{self.elapsed:7.2f}s (budget {self.budget:.0f}s)  {self.detail}")


def _run(index, name, budget, fn):
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:               # a crash is a failure, not an abort
        passed, detail = False, f"exception: {exc!r}"
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        passed = False
        detail += f" [over budget: {elapsed:.1f}s]"
    result = CriterionResult(index, name, passed, elapsed, budget, detail)
    print(result.line(), flush=True)
    return result


# ---------------------------------------------------------------------------
# Corpora (deterministic)

def random_progressions(count, t_max, deg_max, rng: Random, structured=True):
    """Deterministic mixed corpus: random integral polynomials with a salt
    of structured families (arithmetic progressions, scaled pairs)."""
    corpus = []
    if structured:
        for t in range(2, t_max + 1):
            corpus.append(progression(*[(0, a) for a in range(1, t + 1)]))
        corpus.append(FIVE if t_max >= 4 else progression((0, 0, 1), (0, 0, 2)))
        corpus.append(INH if t_max >= 3 else progression((0, 1), (0, 2)))
    while len(corpus) < count:
        t = rng.randint(2, t_max)
        polys, seen = [], set()
        for _ in range(t):
            d = rng.randint(1, deg_max)
            coords = [0] + [rng.randint(-3, 3) for _ in range(d)]
            if not any(coords[1:]):
                coords[-1] = 1
            p = trim(coords)
            if not p or p in seen:
                continue
            seen.add(p)
            polys.append(p)
        if len(polys) < 2:
            continue
        corpus.append(Progression(tuple(polys)))
    return corpus[:count]


def small_catalog_progressions():
    """Every progression with t <= 3 from a fixed degree <= 3 catalog."""
    from itertools import combinations
    catalog = [      # binomial coordinates
        (0, 1), (0, 2), (0, 3), (0, -1),        # y, 2y, 3y, -y
        (0, 1, 2), (0, 2, 4), (0, 1, 6, 6),     # y^2, 2y^2, y^3
        (0, 2, 2), (0, 0, 1),                   # y + y^2, C(y,2)
        (0, 0, 0, 1),                           # C(y,3)
        (0, 2, 8, 6),                           # y^2 + y^3
    ]
    out = []
    for size in (1, 2, 3):
        for combo in combinations(catalog, size):
            out.append(Progression(combo))
    return out


# ---------------------------------------------------------------------------
# Criteria

def criterion_1():
    """Running-example classification, exact rational arithmetic."""
    rep_hom = complexity_report(HOM)
    rep_inh = complexity_report(INH)
    from .progression import coeff_space
    tau1 = [tuple(v) for v in coeff_space(HOM, 1).basis]
    expected_tau1 = [(1, 1, 1, 1), (0, 1, 2, 0), (0, 0, 0, 1)]
    graded_inh = graded_spaces(INH, 2)
    shared = [w for layer in graded_inh.layers for w in layer.shared]
    # every cross-degree shared polynomial is a multiple of y^2
    shared_is_y2 = bool(shared) and all(set(w) == {(0, 2)} for w in shared)
    checks = [
        rep_hom["homogeneous"] is True,
        rep_inh["homogeneous"] is False,
        rep_hom["layer_dims"]["1"] == 3,
        rep_hom["layer_dims"]["2"] == 4,
        tau1 == expected_tau1,
        rep_inh["proper_dims"]["1"] == 2,
        rep_inh["proper_dims"]["2"] == 3,
        shared_is_y2,
        rep_hom["complexity"] == [1, 1, 1, 0],
        rep_inh["complexity"] == [2, 2, 2, 1],
    ]
    return all(checks), (f"hom dims {rep_hom['layer_dims']}, "
                         f"inh proper {rep_inh['proper_dims']}, "
                         f"shared==y^2 {shared_is_y2}, checks {sum(checks)}/10")


def criterion_2():
    """Every emitted basis relation vanishes identically (`holds_for`, the
    exact integer re-check on a grid)."""
    rng = Random(SEED)
    corpus = random_progressions(50, t_max=4, deg_max=4, rng=rng)
    total = 0
    for prog in corpus:
        space = relation_space(prog, prog.default_cap())
        for rel in space.basis:
            if not rel.holds_for(prog):
                return False, f"relation fails the re-check for {prog.text()}"
            total += 1
    return True, f"{len(corpus)} progressions, {total} relations, all zero"


def criterion_3():
    """Complexity bound max_i <= t-1 on homogeneous progressions; equality
    on arithmetic progressions."""
    rng = Random(SEED + 1)
    found = 0
    tried = 0
    while found < 100 and tried < 600:
        tried += 1
        for prog in random_progressions(1, t_max=4, deg_max=4, rng=rng,
                                        structured=False):
            homog, _ = is_homogeneous(prog)
            if not homog:
                continue
            vandermonde_bound_check(prog)
            found += 1
    if found < 100:
        return False, f"only {found} homogeneous progressions in {tried} draws"
    for t in (2, 3, 4):
        ap = progression(*[(0, a) for a in range(1, t + 1)])
        vandermonde_bound_check(ap)
        prof, _ = complexity_profile(ap)
        if max(prof) != t - 1:
            return False, f"AP t={t} complexity {max(prof)} != {t - 1}"
    return True, f"100 homogeneous verified ({tried} draws); AP bound sharp"


def criterion_4():
    """Uniformity norm suite at the stated tolerances."""
    for s in (1, 2, 3):
        if abs(cyclic.gowers_norm(cyclic.Signal.ones(101), s) - 1.0) > 1e-9:
            return False, f"norm of 1 at degree {s}"
    rng = np.random.default_rng(SEED)
    for n in (64, 101, 257):
        for _ in range(200):
            f = cyclic.Signal(np.exp(2j * np.pi * rng.random(n)) * rng.random(n))
            n1, n2, n3 = (cyclic.gowers_norm(f, s) for s in (1, 2, 3))
            if not (n1 <= n2 + 1e-9 and n2 <= n3 + 1e-9):
                return False, f"monotonicity at N={n}: {n1}, {n2}, {n3}"
            ff = cyclic.Signal(rng.choice([-1.0, 1.0], size=n).astype(complex))
            if abs(cyclic.gowers_norm(ff, 2) - cyclic.gowers_norm_u2_fourier(ff)) > 1e-9:
                return False, f"recursion vs fourier at N={n}"
    quad = cyclic.Signal.quadratic_phase(101)
    u2 = cyclic.gowers_norm(quad, 2)
    u3 = cyclic.gowers_norm(quad, 3)
    if abs(u2 - 101 ** -0.25) > 1e-6:
        return False, f"quadratic degree-2 norm {u2}"
    if abs(u3 - 1.0) > 1e-9:
        return False, f"quadratic degree-3 norm {u3}"
    return True, (f"norms of 1 exact, 600 monotone triples, "
                  f"quad U2 err {abs(u2 - 101 ** -0.25):.1e}")


def criterion_5():
    """Polynomial count approaches the linear-model count as N grows."""
    diffs = {}
    for n in (101, 809):
        mask = cyclic.bernoulli_subset(n, 0.5, SEED)
        rep = cyclic.compare_poly_vs_linear(mask, FIVE)
        diffs[n] = rep.difference
    ok = diffs[809] < diffs[101] and all(d <= 0.05 for d in diffs.values())
    return ok, f"|poly-linear|: N=101 {diffs[101]:.5f}, N=809 {diffs[809]:.5f}"


def criterion_6():
    """Popular common differences scan beats the 5 percent floor."""
    mask = cyclic.bernoulli_subset(401, 0.5, SEED)
    rep = cyclic.popular_differences(mask, FIVE, 0.02)
    ok = rep.fraction >= 0.05 and 0 in rep.qualifying
    return ok, f"fraction {rep.fraction:.3f}, n=0 qualifies {0 in rep.qualifying}"


def criterion_7():
    """Structured obstruction: count exactly 1, mean visibly small."""
    signals = cyclic.build_obstruction(INH, DEGREE2_RELATION, 101, 1)
    count = cyclic.count_operator(signals, INH)
    mean0 = abs(signals[0].values.mean())
    ok = abs(count - 1.0) <= 1e-9 and mean0 <= 0.2
    return ok, f"|count-1| {abs(count - 1):.1e}, |E f_0| {mean0:.3f}"


def criterion_8():
    """Torus witness: pointwise product 1, top-coefficient slots killed."""
    system = weyl.WeylSystem.standard(
        2, weyl.Irrational("sqrt2"),
        (weyl.Irrational("sqrt3"), weyl.Irrational("sqrt5")))
    record = weyl.lower_bound_witness(INH, DEGREE2_RELATION,
                                      weyl.Irrational("golden"), system,
                                      samples=1000, seed=SEED)
    expected_killed = [True, True, True, False]
    ok = (record.product_max_deviation <= 1e-9
          and record.projection_killed == expected_killed)
    return ok, (f"max deviation {record.product_max_deviation:.1e}, "
                f"killed {record.projection_killed}")


def criterion_9():
    """Orbit closure dichotomy at N = 2000."""
    a = weyl.Irrational("sqrt2")
    dep_system = weyl.WeylSystem.from_generators(
        2, [(a, 0), (0, weyl.Irrational("sqrt2", Fraction(1, 3)))])
    dep_closure = weyl.closure_subspaces(INH, dep_system)
    if dep_closure.dim != 6 or len(dep_closure.coset_shifts) != 3:
        return False, (f"dependent closure dim {dep_closure.dim}, "
                       f"cosets {len(dep_closure.coset_shifts)}")
    dist = weyl.coset_confinement(dep_system, INH, dep_closure, 2000)
    if dist > 1e-6:
        return False, f"confinement distance {dist:.2e}"
    ind_system = weyl.WeylSystem.from_generators(
        2, [(a, 0), (0, weyl.Irrational("sqrt3"))])
    ind_closure = weyl.closure_subspaces(INH, ind_system)
    if ind_closure.dim != 7 or len(ind_closure.coset_shifts) != 1:
        return False, f"independent closure dim {ind_closure.dim}"
    table = weyl.equidistribution_test(ind_system, INH, ind_closure, 2000,
                                       radius=3)
    worst = table.worst_generic()
    ok = worst <= 0.05
    return ok, (f"confinement {dist:.1e}, worst character average {worst:.4f} "
                f"over {len(table.rows)} characters")


def criterion_10():
    """Relation spaces match an independent dense-grid kernel oracle."""
    from . import oracle
    corpus = small_catalog_progressions()
    checked = 0
    for prog in corpus:
        for cap in range(1, 4):
            main = relation_space(prog, cap)
            main_rows = [_relation_row(rel, prog.t, cap) for rel in main.basis]
            oracle_rows = oracle.relation_kernel_dense(prog, cap)
            if len(main_rows) != len(oracle_rows):
                return False, (f"dim mismatch for {prog.text()} cap {cap}: "
                               f"{len(main_rows)} vs {len(oracle_rows)}")
            if main_rows and not rl.same_row_space(main_rows, oracle_rows):
                return False, f"span mismatch for {prog.text()} cap {cap}"
            checked += 1
    return True, f"{len(corpus)} progressions x 3 caps = {checked} comparisons"


def _relation_row(rel: Relation, t, cap):
    row = []
    for q in rel.qs:
        row.extend((list(q) + [0] * (cap + 1 - len(q)))[1:])
    return row


CRITERIA = (
    (1, "worked-examples", 1.0, criterion_1),
    (2, "relation-identities", 30.0, criterion_2),
    (3, "complexity-bound", 60.0, criterion_3),
    (4, "gowers-suite", 60.0, criterion_4),
    (5, "counting-trend", 300.0, criterion_5),
    (6, "popular-differences", 120.0, criterion_6),
    (7, "obstruction-exactness", 1.0, criterion_7),
    (8, "torus-witness", 1.0, criterion_8),
    (9, "closure-dichotomy", 120.0, criterion_9),
    (10, "oracle-equivalence", 120.0, criterion_10),
)

SLOW = {6, 9}


def run_all(fast=False):
    results = []
    for index, name, budget, fn in CRITERIA:
        if fast and index in SLOW:
            continue
        results.append(_run(index, name, budget, fn))
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} criteria passed", flush=True)
    return results
