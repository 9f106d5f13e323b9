import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyprog import oracle, ratlinalg as rl
from polyprog.oracle import binom_of_shift
from polyprog.polycore import forward_differences, to_binomial_basis, trim, value
from polyprog.progression import (
    EligibilityReport,
    Progression,
    Relation,
    coeff_space,
    complexity_profile,
    complexity_report,
    graded_spaces,
    homogeneous_relation_dims,
    homogeneous_relations,
    is_eligible,
    is_homogeneous,
    progression,
    relation_space,
    reparametrized_family,
    vandermonde_bound_check,
)

# monomial coefficients of y, y^2, y^3
Y, Y2, Y3 = (0, 1), (0, 0, 1), (0, 0, 0, 1)

HOM = progression(Y, (0, 2), Y3)       # x, x+y, x+2y, x+y^3
INH = progression(Y, (0, 2), Y2)       # x, x+y, x+2y, x+y^2
FIVE = progression(Y2, (0, 0, 2), Y3, (0, 0, 0, 2))

# the degree-2 relation tying (x, x+y, x+2y, x+y^2) together:
# x^2 + 2x - 2(x+y)^2 + (x+2y)^2 - 2(x+y^2) = 0
DEGREE2 = Relation(qs=tuple(to_binomial_basis(q) for q in
                            ((0, 2, 1), (0, 0, -2), (0, 0, 1), (0, -2))))


def weighted_sum(terms):
    """sum_j w_j * cells_j over (w_j, cell map) pairs, zero cells dropped."""
    out = {}
    for w, cells in terms:
        for cell, v in cells.items():
            out[cell] = out.get(cell, 0) + w * v
    return {cell: v for cell, v in out.items() if v}


def test_progression_validation():
    with pytest.raises(ValueError):
        progression(Y, Y)                       # duplicate
    with pytest.raises(ValueError):
        progression(Y, ())                      # zero
    with pytest.raises(ValueError):
        progression((0, 0, Fraction(1, 2)))     # not integral


def test_homogeneous_relations_examples():
    assert homogeneous_relations(HOM, 1) == [(1, -2, 1, 0)]
    assert homogeneous_relations(HOM, 2) == []
    assert homogeneous_relations(progression(Y, Y2), 1) == []


def test_homogeneous_kernel_carried_from_degree_to_degree():
    # x, x+y, x-y: K_1 holds (-2, 1, 1).  The degree-2 block alone,
    # a_1 + a_2 = 0, has a 2-dimensional kernel; inside K_1 it has none.
    prog = progression(Y, (0, -1))
    assert homogeneous_relations(prog, 1) == [(-2, 1, 1)]
    assert homogeneous_relation_dims(prog, 4) == [1, 0, 0, 0]


def test_homogeneous_kernels_stop_at_the_vandermonde_bound(monkeypatch):
    # with two equal terms, a_1 = -a_2 survives every degree, which the
    # Vandermonde bound rules out for distinct ones: an invariant failure
    from polyprog import progression as pr
    prog = progression(Y, (0, 2))
    pr._homogeneous_kernels.cache_clear()
    monkeypatch.setattr(pr, "_scaled_polys", lambda p: (1, ((0,), (0, 1), (0, 1))))
    with pytest.raises(AssertionError, match="Vandermonde bound"):
        homogeneous_relations(prog, 1)
    pr._homogeneous_kernels.cache_clear()


def test_homogeneous_relations_binomial_form_agrees():
    # a relation in powers is a relation in shifted binomials and vice versa
    for prog in (HOM, INH, FIVE):
        for k in (1, 2):
            for vec in homogeneous_relations(prog, k):
                for j in range(1, k + 1):
                    assert not weighted_sum((a, binom_of_shift(p, j))
                                            for a, p in zip(vec, prog.all_polys()))


def test_relation_space_hom_only_linear():
    space = relation_space(HOM, 3)
    assert space.dim == 1 and space.stabilized
    rel = space.basis[0]
    assert rel.degree_profile[:3] == (1, 1, 1)
    assert rel.qs[3] == ()


def test_relation_space_contains_degree_two_relation():
    space = relation_space(INH, 2)
    assert space.dim == 2
    assert DEGREE2.holds_for(INH)
    # the degree-2 relation lies in the span of the computed basis
    def row(rel):
        out = []
        for q in rel.qs:
            out.extend((list(q) + [0] * (3 - len(q)))[1:3])
        return out
    basis_rows = [row(r) for r in space.basis]
    assert rl.coordinates_in_rows([row(DEGREE2)], basis_rows)[0] is not None


def test_relation_space_trivial_for_independent():
    assert relation_space(progression(Y, Y2), 3).dim == 0


def test_exact_layer_budget():
    # the named examples run; far larger systems are refused before work
    from polyprog.progression import EXACT_LAYER_BUDGET, ExactLayerBudgetExceeded, \
        exact_layer_cost
    for prog in (FIVE, progression(Y2, Y3, (0,) * 4 + (1,), (0,) * 5 + (1,)),
                 progression((0,) * 12 + (1,))):
        assert exact_layer_cost(prog, prog.default_cap() + 1) <= EXACT_LAYER_BUDGET
    big = progression((0,) * 30 + (1,))
    with pytest.raises(ExactLayerBudgetExceeded):
        relation_space(big, big.default_cap())


def test_relation_space_rejects_bad_cap():
    with pytest.raises(ValueError):
        relation_space(HOM, 0)


def test_all_basis_relations_expand_to_zero():
    rng = random.Random(77)
    for _ in range(12):
        polys, seen = [], set()
        for _ in range(rng.randint(2, 3)):
            coords = [0] + [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
            if not any(coords[1:]):
                coords[-1] = 1
            p = trim(coords)
            if p and p not in seen:
                seen.add(p)
                polys.append(p)
        if len(polys) < 2:
            continue
        prog = Progression(tuple(polys))
        for rel in relation_space(prog, prog.default_cap()).basis:
            assert oracle.relation_holds_by_expansion(rel, prog)


def test_complexity_profiles():
    prof, stable = complexity_profile(HOM)
    assert prof == (1, 1, 1, 0) and stable
    prof, stable = complexity_profile(FIVE)
    assert prof == (1, 1, 1, 1, 1) and stable
    prof, stable = complexity_profile(INH, 4)
    assert prof == (2, 2, 2, 1) and stable


def test_algebraic_complexity_indexing():
    prof, stab = complexity_profile(HOM)
    assert (prof[3], stab) == (0, True)
    assert complexity_profile(INH, 4)[0][0] == 2
    with pytest.raises(IndexError):
        complexity_profile(HOM)[0][5]


def test_vandermonde_bound():
    assert vandermonde_bound_check(progression(Y, (0, 2)))      # sharp at t-1
    assert vandermonde_bound_check(progression(Y, Y2))
    assert vandermonde_bound_check(HOM)
    with pytest.raises(ValueError):
        vandermonde_bound_check(INH)                            # inhomogeneous


def test_graded_spaces_hom():
    g = graded_spaces(HOM, 2)
    assert (g.layer(1).dim, g.layer(2).dim) == (3, 4)
    assert not g.layer(1).shared and not g.layer(2).shared
    # W_1 canonical basis is x, y, y^3
    assert [sorted(b) for b in g.layer(1).basis] == \
        [[(1, 0)], [(0, 1)], [(0, 3)]]


def test_graded_spaces_inh():
    g = graded_spaces(INH, 2)
    assert (g.layer(1).dim, g.layer(2).dim) == (3, 4)
    assert (g.layer(1).proper_dim, g.layer(2).proper_dim) == (2, 3)
    for layer in g.layers:
        for w in layer.shared:
            assert set(w) == {(0, 2)}     # multiples of y^2


def test_graded_layers_within_span():
    # every layer basis element is a combination of the shifted binomials
    g = graded_spaces(INH, 2)
    for layer in g.layers:
        columns = sorted({c for p in prog_cells(INH, layer.k) for c in p})
        spanning = [[cell.get(c, Fraction(0)) for c in columns]
                    for cell in prog_cells(INH, layer.k)]
        for b in layer.basis:
            coords = rl.coordinates_in_rows([[b.get(c, 0) for c in columns]], spanning)
            assert coords[0] is not None


def prog_cells(prog, k):
    return [binom_of_shift(p, k) for p in prog.all_polys()]


def test_direct_sum_dimensions():
    # dim V_k = sum of proper dims + dim(shared within V_k); for the
    # homogeneous example the shared part is zero.
    for prog, expect_shared in ((HOM, 0), (INH, 1)):
        cap = prog.default_cap()
        g = graded_spaces(prog, 2, cap)
        for k in (1, 2):
            columns = sorted({c for j in range(1, k + 1)
                              for p in prog_cells(prog, j) for c in p})
            rows = [[cell.get(c, Fraction(0)) for c in columns]
                    for j in range(1, k + 1) for cell in prog_cells(prog, j)]
            v_dim = rl.rank(rows)
            proper_total = sum(g.layer(j).proper_dim for j in range(1, k + 1))
            shared_rows = [[w.get(c, 0) for c in columns]
                           for layer in g.layers for w in layer.shared]
            inter = oracle.intersect_row_spaces(shared_rows, rows) if shared_rows else []
            assert v_dim == proper_total + len(inter)
            if prog is HOM:
                assert not inter


def test_is_homogeneous_with_witness():
    flag, witness = is_homogeneous(HOM)
    assert flag and witness is None
    flag, witness = is_homogeneous(INH)
    assert not flag
    assert set(witness.shared_poly) == {(0, 2)}
    assert witness.relation.holds_for(INH)
    # the witness relation genuinely mixes degrees: its layer at k does not
    # vanish on its own
    k = witness.k
    assert weighted_sum((bs[k], binom_of_shift(p, k))
                        for bs, p in zip(witness.relation.qs, INH.all_polys())
                        if len(bs) > k and bs[k])


def test_inhomogeneous_family():
    # (x, x+y, ..., x+(t-1)y, x+P_t) with 1 < deg P_t < t is inhomogeneous
    prog = progression(Y, (0, 2), (0, 3), Y2)
    flag, witness = is_homogeneous(prog)
    assert not flag and witness.relation.holds_for(prog)


def test_coeff_space_unit_vectors():
    cs = coeff_space(HOM, 1)
    assert [tuple(v) for v in cs.basis] == [(1, 1, 1, 1), (0, 1, 2, 0),
                                            (0, 0, 0, 1)]
    cs2 = coeff_space(HOM, 2)
    assert cs2.dim == 4
    assert rl.coordinates_in_rows([[0, 0, 1, 0]], [list(v) for v in cs2.basis])[0] is not None
    assert coeff_space(INH, 1).dim == 3


def test_coeff_space_reconstruction_identity():
    for prog in (HOM, INH):
        for k in (1, 2):
            cs = coeff_space(prog, k)
            for comp, p in enumerate(prog.all_polys()):
                assert weighted_sum((vec[comp], cells) for cells, vec in cs.decomposition) \
                    == binom_of_shift(p, k)


def test_coeff_space_product_containment():
    # the degree-(i+j) space sits inside the componentwise product span
    for prog in (HOM, INH, FIVE):
        bases = {k: [list(v) for v in coeff_space(prog, k).basis]
                 for k in (1, 2, 3)}
        for i, j in ((1, 1), (1, 2)):
            prod_rows = [[a * b for a, b in zip(u, v)]
                         for u in bases[i] for v in bases[j]]
            for vec in bases[i + j]:
                assert rl.coordinates_in_rows([vec], prod_rows)[0] is not None


def test_homogeneity_matches_layer_route():
    # dimension-comparison decision vs. explicit layer intersections
    rng = random.Random(123)
    for _ in range(10):
        polys, seen = [], set()
        for _ in range(rng.randint(2, 3)):
            coords = [0] + [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
            if not any(coords[1:]):
                coords[-1] = 1
            p = trim(coords)
            if p and p not in seen:
                seen.add(p)
                polys.append(p)
        if len(polys) < 2:
            continue
        prog = Progression(tuple(polys))
        cap = prog.default_cap()
        flag, _ = is_homogeneous(prog, cap)
        assert flag == all(not oracle.shared_parts_by_intersection(prog, k, cap)
                           for k in range(1, cap + 1))


COORDS = st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=3)


def times(a, bs):
    return tuple(a * b for b in bs)


def square(bs):
    """Binomial coordinates of P^2: forward differences of its values."""
    return trim(forward_differences([value(bs, y) ** 2 for y in range(2 * len(bs) - 1)]))


@st.composite
def inhomogeneous_family(draw):
    """x, x+aP, x+bP, x+cP^2 for P of degree <= 3 (binomial coordinates)."""
    base = trim([0] + draw(COORDS.filter(any)))
    a, b = draw(st.lists(st.sampled_from((-2, -1, 1, 2, 3)), min_size=2,
                         max_size=2, unique=True))
    c = draw(st.sampled_from((-2, -1, 1, 2)))
    return Progression((times(a, base), times(b, base), times(c, square(base))))


@st.composite
def small_progressions(draw):
    """Random integral progressions with t <= 3 and degree <= 3 (binomial
    coordinates), or the inhomogeneous family x, x+aP, x+bP, x+cP^2."""
    if draw(st.booleans()):
        return draw(inhomogeneous_family())
    polys = draw(st.lists(COORDS.filter(any).map(lambda cs: trim([0] + cs)),
                          min_size=1, max_size=3, unique=True))
    return Progression(tuple(polys))


@given(small_progressions())
@settings(max_examples=40, deadline=None)
def test_expansions_match_horner_route(prog):
    from polyprog.progression import _expansions
    cap = prog.default_cap()
    columns, rows, scales = _expansions(prog, cap)
    assert len(set(columns)) == len(columns)
    for k in range(1, cap + 1):
        assert len(rows[k]) == prog.t + 1
        for row, p in zip(rows[k], prog.all_polys()):
            assert len(row) == len(columns) and all(type(v) is int for v in row)
            assert {c: Fraction(v, scales[k]) for c, v in zip(columns, row) if v} == \
                binom_of_shift(p, k)


@given(small_progressions())
@settings(max_examples=25, deadline=None)
def test_coeff_space_matches_power_and_binomial_routes(prog):
    for k in (1, 2, 3):
        span = [list(v) for v in coeff_space(prog, k).basis]
        assert rl.same_row_space(oracle.coeff_rows_by_powers(prog, k), span)
        assert rl.same_row_space(oracle.coeff_rows_by_binomials(prog, k), span)


def test_report_coeff_space_dims_match_coeff_space():
    for prog in (HOM, INH, FIVE):
        report = complexity_report(prog)
        dims = report["coeff_space_dims"]
        assert dims and dims.keys() == report["layer_dims"].keys()
        assert dims == {k: coeff_space(prog, int(k), report["cap"]).dim for k in dims}


@given(small_progressions())
@settings(max_examples=15, deadline=None)
def test_relation_vectors_match_expansion_route(prog):
    # the integer system and its rescaled kernel give exactly the textbook
    # kernel of the Fraction system
    from polyprog.progression import _relation_vectors
    cap = prog.default_cap()
    for c in (cap, cap + 1):
        assert _relation_vectors(prog, c) == oracle.relation_vectors_by_expansion(prog, c)


@given(small_progressions(), st.data())
@settings(max_examples=25, deadline=None)
def test_grid_recheck_matches_expansion_route(prog, data):
    # the integer grid re-check and the oracle's monomial expansion agree:
    # every basis relation (and the zero one) holds, and adding u^k to one
    # slot breaks it
    cap = prog.default_cap()
    zero = Relation(qs=((),) * (prog.t + 1))
    for rel in (zero,) + relation_space(prog, cap).basis:
        assert rel.holds_for(prog) and oracle.relation_holds_by_expansion(rel, prog)
        i = data.draw(st.integers(min_value=0, max_value=prog.t))
        k = data.draw(st.integers(min_value=0, max_value=cap))
        qs = list(rel.qs)
        u_k = to_binomial_basis((0,) * k + (1,))
        qs[i] = trim(a + b for a, b in zip_longest(qs[i], u_k, fillvalue=0))
        broken = Relation(qs=tuple(qs))
        assert not broken.holds_for(prog)
        assert not oracle.relation_holds_by_expansion(broken, prog)


@given(inhomogeneous_family())
@settings(max_examples=30, deadline=None)
def test_witness_is_read_off_the_kernel(prog):
    cap = prog.default_cap()
    flag, witness = is_homogeneous(prog, cap)
    assert not flag
    g = graded_spaces(prog, cap, cap)
    assert witness.k == next(layer.k for layer in g.layers if layer.shared)
    assert witness.shared_poly == g.layer(witness.k).shared[0]
    assert witness.relation.holds_for(prog)
    k = witness.k
    image = weighted_sum((bs[k], binom_of_shift(p, k))
                         for bs, p in zip(witness.relation.qs, prog.all_polys())
                         if len(bs) > k)
    assert image == witness.shared_poly


@given(small_progressions())
@settings(max_examples=40, deadline=None)
def test_homogeneous_relations_match_expansion_route(prog):
    for k in range(1, prog.default_cap() + 2):
        assert homogeneous_relations(prog, k) == \
            oracle.homogeneous_relations_by_expansion(prog, k)


@given(small_progressions())
@settings(max_examples=30, deadline=None)
def test_shared_parts_match_intersection_route(prog):
    cap = min(prog.default_cap(), 4)    # the oracle route is slow at high caps
    g = graded_spaces(prog, cap, cap)
    for layer in g.layers:
        assert layer.shared == oracle.shared_parts_by_intersection(prog, layer.k, cap)


@given(small_progressions())
@settings(max_examples=20, deadline=None)
def test_relation_space_monotone_in_cap(prog):
    from polyprog.progression import _relation_vectors
    prev_prof = None
    for cap in range(1, prog.default_cap() + 1):
        upper = [list(v) for v in _relation_vectors(prog, cap + 1)]
        for v in _relation_vectors(prog, cap):
            padded = [x for i in range(prog.t + 1)
                      for x in list(v[i * cap:(i + 1) * cap]) + [0]]
            assert rl.coordinates_in_rows([padded], upper)[0] is not None
        prof, _ = complexity_profile(prog, cap)
        if prev_prof is not None:
            assert all(a <= b for a, b in zip(prev_prof, prof))
        prev_prof = prof
        assert homogeneous_relation_dims(prog, cap) == \
            [len(oracle.homogeneous_relations_by_expansion(prog, k))
             for k in range(1, cap + 1)]


def test_eligibility_examples():
    assert is_eligible(FIVE, r_max=4).eligible
    assert is_eligible(progression(Y, (0, 2)), r_max=4).eligible
    assert is_eligible(progression(Y, Y2), r_max=3).eligible
    with pytest.raises(ValueError):
        is_eligible(INH)


AP4 = progression(Y, (0, 2), (0, 3))    # x, x+y, x+2y, x+3y


def test_every_family_has_the_progression_relation_space():
    # the bijection of is_eligible's docstring, family by family, on the
    # oracle's own families, dense kernels and expanded powers; also for an
    # inhomogeneous progression, whose families all stay inhomogeneous.
    # AP4 at cap 1 has a degree-2 homogeneous relation beyond the cap.
    for prog, caps in ((HOM, (1, 2, 5)), (AP4, (1, 2)), (INH, (2, 5)), (FIVE, (3,))):
        for cap in caps:
            dim = len(oracle.relation_kernel_dense(prog, cap))
            profile = complexity_profile(prog, cap)[0]
            homog = is_homogeneous(prog, cap)[0]
            sweep = oracle.eligibility_by_substitution(prog, 3, cap)
            assert [(r, j) for r, j, *_ in sweep] == [(1, 0), (2, 0), (2, 1),
                                                        (3, 0), (3, 1), (3, 2)]
            assert {tuple(fam) for _, _, *fam in sweep} == {(dim, homog, profile)}, (prog, cap)
            if homog:
                assert is_eligible(prog, r_max=3, cap=cap) == \
                    EligibilityReport(True, 3, cap, None, len(sweep))


@st.composite
def homogeneous_at_some_cap(draw):
    polys = draw(st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=2)
                          .filter(any).map(lambda cs: trim([0] + cs)),
                          min_size=1, max_size=3, unique=True))
    prog = Progression(tuple(polys))
    cap = draw(st.integers(1, prog.default_cap()))
    assume(is_homogeneous(prog, cap)[0])
    return prog, cap


@given(homogeneous_at_some_cap(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_eligibility_sweep_matches_substitution_route(prog_cap, r_max):
    prog, cap = prog_cap
    sweep = oracle.eligibility_by_substitution(prog, r_max, cap)
    failing = [(r, j) for r, j, _, homog, _ in sweep if not homog]
    report = is_eligible(prog, r_max=r_max, cap=cap)
    assert report.eligible == (not failing)
    if failing:
        assert report.failure == (*failing[0], "inhomogeneous")
        assert report.checked == [(r, j) for r, j, *_ in sweep].index(failing[0])
    else:
        assert report.failure is None and report.checked == len(sweep)


@pytest.mark.parametrize("r, j", [(1, 0), (3, 1), (3, 2)])
def test_eligibility_reports_a_forced_failing_family(monkeypatch, r, j):
    # no homogeneous progression with an inhomogeneous family is known, so
    # one family's homogeneous relation dimensions are replaced
    from polyprog import progression as pr
    cap = HOM.default_cap()
    target = reparametrized_family(HOM, r, j)
    dims = pr.homogeneous_relation_dims

    def forced(change):
        return lambda prog, c: change(dims(prog, c)) if prog == target else dims(prog, c)

    index = [(rr, jj) for rr in range(1, 4) for jj in range(rr)].index((r, j))
    monkeypatch.setattr(pr, "homogeneous_relation_dims", forced(lambda d: [d[0] - 1] + d[1:]))
    assert is_eligible(HOM, r_max=3) == \
        EligibilityReport(False, 3, cap, (r, j, "inhomogeneous"), index)
    # a sum above dim R_cap(P) breaks the embedding K_k in R_cap
    monkeypatch.setattr(pr, "homogeneous_relation_dims", forced(lambda d: [d[0] + 1] + d[1:]))
    with pytest.raises(AssertionError, match="must embed"):
        is_eligible(HOM, r_max=3)


def test_reparametrized_family_is_integral_progression():
    for r in (1, 2, 3):
        for j in range(r):
            fam = reparametrized_family(FIVE, r, j)
            assert isinstance(fam, Progression)
            prof, _ = complexity_profile(fam)
            assert prof == (1, 1, 1, 1, 1)


@given(small_progressions(), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_reparametrized_family_matches_substitution_route(prog, r):
    # integer values and forward differences against Horner substitution
    # into the monomial coefficients
    for j in range(r):
        fam = reparametrized_family(prog, r, j)
        assert fam == oracle.reparametrized_family_by_substitution(prog, r, j)
        assert all(type(b) is int for p in fam.polys for b in p)


def test_complexity_report_shapes():
    rep = complexity_report(progression(Y, Y2, (0, 1, 1)))
    assert rep["homogeneous"] is True
    assert rep["complexity"] == [1, 1, 1, 1]
    rep2 = complexity_report(INH)
    assert rep2["inhomogeneity_witness"]["shared_poly"] == "y^2"
    assert rep2["shared_dims"]["1"] == 1


def test_relation_space_cap_boundary_not_stabilized():
    # at cap 1 only the linear relation of (x, x+y, x+2y, x+y^2) is visible;
    # the degree-2 relation appears at cap 2, so cap 1 must report unstable
    space = relation_space(INH, 1)
    assert space.dim == 1
    assert not space.stabilized
    assert relation_space(INH, 2).stabilized


def test_negative_coefficients_pipeline():
    prog = progression((0, -1), Y2)
    assert is_homogeneous(prog)[0]
    prof, _ = complexity_profile(prog)
    assert prof == (0, 0, 0)
    assert vandermonde_bound_check(prog)
    rep = complexity_report(prog)
    assert rep["homogeneous"] is True


def test_eligibility_through_fractional_substitution():
    # C(y,3) under y -> 3(y-1) leaves the integers; the normalized family
    # must still be an integral progression with the same profile
    prog = Progression(((0, 0, 0, 1), (0, 1)))
    assert is_homogeneous(prog)[0]
    fam = reparametrized_family(prog, 3, 0)
    assert isinstance(fam, Progression)
    assert complexity_profile(fam)[0] == (0, 0, 0)
    assert is_eligible(prog, r_max=3).eligible


def test_homogeneous_relation_dims_flat_beyond_bound():
    # homogeneous progressions satisfy nothing above degree t-1, so the
    # relation-space dimension is flat from there on
    for prog in (HOM, FIVE, progression(*[(0, a) for a in range(1, 5)])):
        base = relation_space(prog, max(prog.t - 1, 1)).dim
        for cap in range(prog.t, prog.t + 3):
            assert relation_space(prog, cap).dim == base


def test_ap_relation_count_closed_form():
    # an arithmetic progression of length t+1 has t-d independent degree-d
    # relations for d = 1..t-1, hence t(t-1)/2 in total
    for t in (2, 3, 4, 5):
        ap = progression(*[(0, a) for a in range(1, t + 1)])
        space = relation_space(ap, t)
        assert space.dim == t * (t - 1) // 2
        for d in range(1, t):
            assert len(homogeneous_relations(ap, d)) == t - d
        assert len(homogeneous_relations(ap, t)) == 0


def test_complexity_report_computes_each_homogeneous_degree_once(monkeypatch):
    # every degree is read off one carried computation per progression, so
    # it runs once for each progression the report meets: FIVE and the 10
    # families of its eligibility sweep at r_max 4, which all differ from it
    from polyprog import progression as pr
    for value in vars(pr).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    calls = []
    inner = pr.homogeneous_relations

    def counted(prog, k):
        calls.append((prog, k))
        return inner(prog, k)

    monkeypatch.setattr(pr, "homogeneous_relations", counted)
    complexity_report(FIVE)
    assert pr._homogeneous_kernels.cache_info().misses == len({p for p, _ in calls}) == 11
