import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyprog import cyclic, oracle
from polyprog.cyclic import (
    BudgetExceeded,
    ComplexityTooHigh,
    Signal,
    bernoulli_subset,
    build_obstruction,
    compare_poly_vs_linear,
    count_operator,
    gowers_norm,
    gowers_norm_u2_fourier,
    linear_count_operator,
    popular_differences,
)
from polyprog.polycore import to_binomial_basis, trim
from polyprog.progression import Relation, progression

# monomial coefficients
AP3 = progression((0, 1), (0, 2))
INH = progression((0, 1), (0, 2), (0, 0, 1))
FIVE = progression((0, 0, 1), (0, 0, 2), (0, 0, 0, 1), (0, 0, 0, 2))
DEGREE2 = Relation(qs=tuple(to_binomial_basis(q) for q in
                            ((0, 2, 1), (0, 0, -2), (0, 0, 1), (0, -2))))

RNG = np.random.default_rng(20259)


def naive_gowers(vals, s):
    """The definition, summed literally over all cube corners."""
    n = len(vals)
    total = 0j
    for x in range(n):
        for hs in itertools.product(range(n), repeat=s):
            term = 1 + 0j
            for w in itertools.product((0, 1), repeat=s):
                v = vals[(x + sum(wi * hi for wi, hi in zip(w, hs))) % n]
                term *= v if sum(w) % 2 == 0 else np.conj(v)
            total += term
    return abs(total / n ** (s + 1)) ** (1.0 / 2 ** s)


@pytest.mark.parametrize("s", (1, 2, 3))
def test_gowers_matches_definition_small(s):
    vals = RNG.standard_normal(7) + 1j * RNG.standard_normal(7)
    f = Signal(vals)
    assert abs(gowers_norm(f, s) - naive_gowers(vals, s)) < 1e-12


def test_gowers_constants_and_characters():
    for s in (1, 2, 3):
        assert abs(gowers_norm(Signal.ones(31), s) - 1.0) < 1e-12
    assert abs(gowers_norm(Signal.character(31, 5), 2) - 1.0) < 1e-12


def test_gowers_quadratic_phase():
    q = Signal.quadratic_phase(101)
    assert abs(gowers_norm(q, 2) - 101 ** -0.25) < 1e-12
    assert abs(gowers_norm(q, 3) - 1.0) < 1e-12


def test_gowers_s_zero_rejected():
    with pytest.raises(ValueError):
        gowers_norm(Signal.ones(8), 0)


def test_u2_recursion_vs_fourier():
    for _ in range(20):
        f = Signal(RNG.standard_normal(64) + 1j * RNG.standard_normal(64))
        assert abs(gowers_norm(f, 2) - gowers_norm_u2_fourier(f)) < 1e-10


def test_gowers_invariances():
    f = Signal(RNG.standard_normal(32) + 1j * RNG.standard_normal(32))
    # scaling
    for s in (1, 2, 3):
        assert abs(gowers_norm(Signal(2.5 * f.values), s)
                   - 2.5 * gowers_norm(f, s)) < 1e-9
    # translation
    g = Signal(np.roll(f.values, 7))
    for s in (1, 2, 3):
        assert abs(gowers_norm(g, s) - gowers_norm(f, s)) < 1e-9
    # modulation leaves the degree-2 norm alone
    mod = Signal(f.values * np.exp(2j * np.pi * 3 * np.arange(32) / 32))
    assert abs(gowers_norm(mod, 2) - gowers_norm(f, 2)) < 1e-9


def test_gowers_monotone():
    for n in (16, 31):
        for _ in range(10):
            f = Signal(np.exp(2j * np.pi * RNG.random(n)) * RNG.random(n))
            n1, n2, n3 = (gowers_norm(f, s) for s in (1, 2, 3))
            assert n1 <= n2 + 1e-9 <= n3 + 2e-9


def test_count_operator_ones_and_oracle():
    assert abs(count_operator([Signal.ones(11)] * 3, AP3) - 1.0) < 1e-12
    mask = bernoulli_subset(11, 0.5, 3)
    f = Signal.from_subset(mask)
    direct = count_operator([f, f, f], AP3)
    assert abs(direct - oracle.count_by_enumeration(mask, AP3)) < 1e-12
    # even residues example
    mask_even = np.arange(11) % 2 == 0
    fe = Signal.from_subset(mask_even)
    assert abs(count_operator([fe] * 3, AP3)
               - oracle.count_by_enumeration(mask_even, AP3)) < 1e-12


def test_count_operator_validation():
    with pytest.raises(ValueError):
        count_operator([Signal.ones(11), Signal.ones(13), Signal.ones(11)], AP3)
    with pytest.raises(ValueError):
        count_operator([Signal.ones(11)] * 2, AP3)


def test_count_operator_multilinear():
    n = 31
    f = Signal(RNG.standard_normal(n) + 0j)
    g = Signal(RNG.standard_normal(n) + 0j)
    h = Signal(RNG.standard_normal(n) + 0j)
    combined = count_operator([Signal(f.values + g.values), h, h], AP3)
    split = count_operator([f, h, h], AP3) + count_operator([g, h, h], AP3)
    assert abs(combined - split) < 1e-9


def test_linear_count_trivial_and_factorized():
    ones = [Signal.ones(11)] * 3
    assert abs(linear_count_operator(ones, [[0, 0], [1, 0], [0, 1]], 2) - 1.0) < 1e-12
    mask = bernoulli_subset(31, 0.5, 5)
    f = Signal.from_subset(mask)
    alpha = mask.mean()
    # independent forms factorize exactly
    val = linear_count_operator([f, f, f], [[0, 0], [1, 0], [0, 1]], 2)
    assert abs(val - alpha ** 3) < 1e-10


def test_linear_count_budget(monkeypatch):
    # |K| = 101 for one form in three slots: 303 gathers against a ceiling of 100
    monkeypatch.setattr(cyclic, "LINEAR_COUNT_BUDGET", 100)
    with pytest.raises(BudgetExceeded,
                       match="linear count cost 303 exceeds LINEAR_COUNT_BUDGET = 100"):
        linear_count_operator([Signal.ones(101)] * 3, [[0], [1], [2]], 1)


def test_linear_count_requires_prime_modulus():
    with pytest.raises(ValueError, match="prime"):
        linear_count_operator([Signal.ones(12)] * 3, [[0], [1], [2]], 1)


@st.composite
def linear_systems(draw):
    """(signals, coefficient matrix, d) over Z/NZ for a small prime N, with
    entries beyond N and, on demand, a column that is zero mod N or that
    repeats mod N the first column (for d = 1, the implicit all-ones row)."""
    n = draw(st.sampled_from((5, 7, 11, 13)))
    m = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.integers(min_value=1, max_value=3))
    entry = st.integers(min_value=-3 * n, max_value=3 * n)
    cols = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(d)]
    degenerate = draw(st.sampled_from(("none", "zero", "duplicate")))
    lift = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=m, max_size=m))
    if degenerate == "zero":
        cols[-1] = [n * k for k in lift]
    elif degenerate == "duplicate":
        source = cols[0] if d > 1 else [1] * m
        cols[-1] = [a + n * k for a, k in zip(source, lift)]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    signals = [Signal(rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(-0.7, 0.7, n))
               for _ in range(m)]
    coeffs = [[cols[j][i] for j in range(d)] for i in range(m)]
    return signals, coeffs, d


@given(linear_systems())
@settings(max_examples=150, deadline=None)
def test_linear_count_matches_enumeration(system):
    signals, coeffs, d = system
    fourier = linear_count_operator(signals, coeffs, d)
    direct = oracle.linear_count_by_enumeration(signals, coeffs, d)
    assert abs(fourier - direct) < 1e-12


def test_compare_poly_vs_linear_trivial_sets():
    full = np.ones(11, dtype=bool)
    rep = compare_poly_vs_linear(full, FIVE)
    assert abs(rep.poly_count - 1) < 1e-9 and abs(rep.linear_count - 1) < 1e-9
    empty = np.zeros(11, dtype=bool)
    rep = compare_poly_vs_linear(empty, FIVE)
    assert abs(rep.poly_count) < 1e-12 and abs(rep.linear_count) < 1e-12


def test_compare_rejects_high_complexity():
    mask = bernoulli_subset(11, 0.5, 1)
    with pytest.raises(ComplexityTooHigh) as err:
        compare_poly_vs_linear(mask, INH)
    assert err.value.witness is not None
    assert err.value.witness.holds_for(INH)


def test_compare_requires_prime():
    with pytest.raises(ValueError):
        compare_poly_vs_linear(np.ones(10, dtype=bool), FIVE)


def test_integral_span_basis_decomposes():
    basis, coeffs = cyclic.integral_span_basis(FIVE)
    assert len(basis) == 2
    # P_i = sum_j a_ij Q_j with integer a
    for p, row in zip(FIVE.polys, coeffs):
        rebuilt = ()
        for a, q in zip(row, basis):
            rebuilt = trim(r + a * b for r, b in itertools.zip_longest(rebuilt, q, fillvalue=0))
        assert rebuilt == p


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=100, deadline=None)
def test_poly_shift_table_matches_monomial_evaluation(coords, n):
    # integer values from binomial coordinates against the oracle's Horner
    # on the monomial coefficients
    p = trim((0, *coords))
    mono = oracle.monomial(p)
    assert cyclic.poly_shift_table(p, n).tolist() == \
        [int(oracle.evaluate(mono, y)) % n for y in range(n)]


def test_popular_differences_full_set():
    mask = np.ones(31, dtype=bool)
    rep = popular_differences(mask, AP3, 0.1)
    assert rep.fraction == 1.0 and 0 in rep.qualifying


def test_popular_differences_zero_always_qualifies():
    mask = bernoulli_subset(31, 0.4, 8)
    rep = popular_differences(mask, FIVE, 0.05)
    assert 0 in rep.qualifying


def test_popular_differences_matches_enumeration():
    mask = bernoulli_subset(31, 0.5, 12)
    rep = popular_differences(mask, AP3, 0.02)
    assert sorted(int(v) for v in rep.qualifying) == \
        oracle.popdiff_by_enumeration(mask, AP3, 0.02)


def test_build_obstruction_degree_two_relation():
    signals = build_obstruction(INH, DEGREE2, 101, 1)
    count = count_operator(signals, INH)
    assert abs(count - 1.0) < 1e-9
    assert abs(signals[0].values.mean()) <= 0.2
    # degree-profile norms: uniform at the degree, trivial one higher
    assert gowers_norm(signals[0], 2) < 1.0 - 1e-6
    assert abs(gowers_norm(signals[0], 3) - 1.0) < 1e-9
    assert gowers_norm(signals[3], 1) < 1.0 - 1e-6
    assert abs(gowers_norm(signals[3], 2) - 1.0) < 1e-9


def test_build_obstruction_product_identity_pointwise():
    signals = build_obstruction(INH, DEGREE2, 101, 7)
    tables = [cyclic.poly_shift_table(p, 101) for p in INH.polys]
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x = int(rng.integers(0, 101))
        y = int(rng.integers(0, 101))
        prod = signals[0].values[x]
        for sig, tab in zip(signals[1:], tables):
            prod *= sig.values[(x + tab[y]) % 101]
        assert abs(prod - 1.0) < 1e-12


def test_build_obstruction_zero_relation():
    zero_rel = Relation(qs=((),) * 4)
    signals = build_obstruction(INH, zero_rel, 101, 1)
    for sig in signals:
        assert np.allclose(sig.values, 1.0)


def test_build_obstruction_linear_characters():
    rel = Relation(qs=((0, 1), (0, -2), (0, 1)))
    signals = build_obstruction(AP3, rel, 101, 1)
    assert abs(count_operator(signals, AP3) - 1.0) < 1e-9
    for sig in signals:
        assert abs(gowers_norm(sig, 2) - 1.0) < 1e-9


def test_build_obstruction_gcd_guard():
    half = Relation(qs=((0, Fraction(1, 2)), (0, -1), (0, Fraction(1, 2))))
    with pytest.raises(ValueError):
        build_obstruction(AP3, half, 2, 1)


def test_read_subset_roundtrip(tmp_path):
    mask = bernoulli_subset(31, 0.4, 99)
    path = tmp_path / "subset.txt"
    path.write_text("\n".join(str(i) for i in np.nonzero(mask)[0]) + "\n")
    again = cyclic.read_subset(path, 31)
    assert (again == mask).all()


def test_signal_rejects_empty():
    with pytest.raises(ValueError):
        Signal(np.array([]))


def test_compare_linear_progression_counts_agree_exactly():
    # for an arithmetic progression the linear model is the progression
    # itself up to reindexing, so the two averages coincide exactly
    mask = bernoulli_subset(31, 0.5, 42)
    rep = compare_poly_vs_linear(mask, AP3)
    assert rep.d == 1
    assert rep.difference < 1e-12


def test_gowers_degree_four_matches_definition():
    vals = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)
    f = Signal(vals)
    assert abs(gowers_norm(f, 4) - naive_gowers(vals, 4)) < 1e-12
