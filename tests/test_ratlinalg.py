import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from polyprog import oracle, ratlinalg as rl


def _textbook_kernel(rows, ncols):
    """Independent reference: kernel from a plain Fraction RREF."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots, r = [], 0
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
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        out.append(tuple(v))
    return out


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=n, max_size=n),
            min_size=m, max_size=m)))


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_kernel_matches_textbook(rows):
    ncols = len(rows[0])
    fast = rl.kernel_basis(rows, ncols)
    slow = _textbook_kernel(rows, ncols)
    assert fast == slow


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_annihilate(rows):
    ncols = len(rows[0])
    for v in rl.kernel_basis(rows, ncols):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


rational_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                     min_size=n, max_size=n),
            min_size=m, max_size=m)))


@given(rational_matrices)
@settings(max_examples=200, deadline=None)
def test_rref_matches_fraction_route(rows):
    assert rl.canonical_basis(rows) == oracle.canonical_basis_by_fractions(rows)
    int_rows = [[int(x) for x in row] for row in rows]
    assert rl.canonical_basis(int_rows) == oracle.canonical_basis_by_fractions(int_rows)


@st.composite
def kernel_systems(draw):
    """(rows, ncols): small rational rows, tall or wide or none, with zero
    rows and repeats of drawn rows mixed in."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from([0, 0, 1, -1]),
                      st.fractions(min_value=-9, max_value=9, max_denominator=6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=8))
    for extra in draw(st.lists(st.booleans(), max_size=3)):
        rows.append(draw(st.sampled_from(rows)) if extra and rows else [0] * n)
    return draw(st.permutations(rows)), n


@given(kernel_systems())
@example(([], 3))                                       # full kernel
@example(([[0, 0], [0, 0]], 2))                         # full kernel
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3))       # empty kernel
@settings(max_examples=100, deadline=None)
def test_oracle_kernel_matches_fraction_rref(system):
    # the integer Gauss-Jordan kernel against the one read off the
    # textbook Fraction RREF, 1 at each free column
    rows, ncols = system
    red, pivots = oracle.rref_by_fractions(rows)
    expected = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        expected.append(v)
    assert oracle._rref_kernel(rows, ncols) == expected


def _combination(weights, rows):
    return [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(len(rows[0]))]


@given(rational_matrices, st.data())
@settings(max_examples=200, deadline=None)
def test_coordinates_match_fraction_route(base, data):
    # dependent rows in any order; targets inside the span and arbitrary
    # ones, most of them outside
    n = len(base[0])
    weights = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
    extra = data.draw(st.lists(weights, max_size=3))
    rows = data.draw(st.permutations(base + [_combination(w, base) for w in extra]))
    inside = [_combination(data.draw(weights), base) for _ in range(2)]
    vectors = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                       min_size=n, max_size=n)
    targets = inside + data.draw(st.lists(vectors, max_size=2))
    coords = rl.coordinates_in_rows(targets, rows)
    assert coords == oracle.coordinates_by_fractions(targets, rows)
    for target, c in zip(inside, coords):
        assert c is not None and _combination(c, rows) == target


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_extend_basis_matches_rank_route(data):
    # sparse rows, so pivots fall anywhere, and ambient rows that repeat
    # combinations of earlier ones
    n = data.draw(st.integers(1, 6))
    sparse = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=n, max_size=n)
    sub = data.draw(st.lists(sparse, max_size=3))
    ambient = []
    for _ in range(data.draw(st.integers(0, 7))):
        if ambient and data.draw(st.booleans()):
            weights = st.lists(st.integers(-2, 2), min_size=len(ambient), max_size=len(ambient))
            ambient.append(_combination(data.draw(weights), ambient))
        else:
            ambient.append(data.draw(sparse))
    # the reference adds an ambient row whenever it raises the rank
    current, expected = list(sub), []
    for row in ambient:
        if len(oracle.rref_by_fractions(current + [row])[0]) > \
                len(oracle.rref_by_fractions(current)[0]):
            current.append(row)
            expected.append(tuple(row))
    assert rl.extend_basis(sub, ambient) == expected


def test_rank_plus_nullity():
    rng = random.Random(11)
    for _ in range(50):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        assert rl.rank(rows) + len(rl.kernel_basis(rows, n)) == n


def test_coordinates_roundtrip():
    basis = [[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]]
    target = [3, 5, 7, 4]
    coords, outside = rl.coordinates_in_rows([target, [1, 0, 0, 0]], basis)
    rebuilt = [sum(c * row[j] for c, row in zip(coords, basis)) for j in range(4)]
    assert rebuilt == target
    assert outside is None
    assert rl.coordinates_in_rows([[1, 0, 0, 0]], [[0, 1, 0, 0]]) == [None]


def test_intersection_contained_in_both():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        inter = oracle.intersect_row_spaces(a, b)
        for v in inter:
            assert rl.coordinates_in_rows([v], a)[0] is not None
            assert rl.coordinates_in_rows([v], b)[0] is not None
        # dimension formula
        dim_sum = rl.rank([*a, *b])
        assert len(inter) == rl.rank(a) + rl.rank(b) - dim_sum


def test_extend_basis_covers():
    sub = [[1, 0, 0]]
    added = rl.extend_basis(sub, [[1, 1, 0], [0, 1, 0], [0, 0, 5]])
    assert added == [(1, 1, 0), (0, 0, 5)]


def test_primitive_row():
    assert oracle.primitive_integer_row([Fraction(-2, 3), Fraction(4, 3)]) == (1, -2)
    assert oracle.primitive_integer_row([0, Fraction(0), Fraction(5)]) == (0, 0, 1)


def test_hnf_preserves_lattice():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)]
                for _ in range(rng.randint(1, 5))]
        h = rl.hnf_rows(rows)
        # every original row is an integer combination of the HNF rows
        for row in rows:
            assert rl.solve_integer_combination(row, h) is not None
        # and conversely
        for hrow in h:
            coords = rl.coordinates_in_rows([list(hrow)], [list(r) for r in rows])[0]
            assert coords is not None


def test_hnf_is_reduced_above_pivots():
    assert rl.hnf_rows([[2, 7], [0, 5]]) == [(2, 2), (0, 5)]
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)]
                for _ in range(rng.randint(1, 5))]
        h = rl.hnf_rows(rows)
        pivots = [next(j for j, x in enumerate(row) if x) for row in h]
        assert pivots == sorted(set(pivots))
        for r, pc in enumerate(pivots):
            assert h[r][pc] > 0
            assert all(0 <= h[i][pc] < h[r][pc] for i in range(r))


def test_integer_annihilator_saturated():
    basis = [[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]]
    ann = rl.integer_annihilator(basis)
    assert ann == [(1, -2, 1, 0)]
    # scaled spans give the same saturated lattice
    scaled = [[2 * v for v in row] for row in basis]
    assert rl.integer_annihilator(scaled) == ann


def test_integer_annihilator_orthogonal():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(1, n - 1))]
        ann = rl.integer_annihilator(rows)
        for eta in ann:
            for row in rows:
                assert sum(a * b for a, b in zip(eta, row)) == 0
        assert len(ann) == n - rl.rank(rows)


def test_kernel_survives_prime_divisible_entries():
    # entries built from the prescan primes skew the modular pivot choice;
    # the result must still be an exact kernel basis of the right span
    # (the normalization may differ from the leftmost-pivot form)
    p1 = rl._PRIMES[0]
    cases = [
        [[p1, 1], [0, 1]],
        [[p1, 1, 1], [p1, 1, 1]],
        [[p1, p1], [1, 1]],
        [[2 * p1, 4 * p1, 1], [p1, 2 * p1, 0], [0, 0, 1]],
    ]
    for rows in cases:
        n = len(rows[0])
        fast = rl.kernel_basis(rows, n)
        slow = _textbook_kernel(rows, n)
        assert len(fast) == len(slow)
        for v in fast:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
        if fast:
            assert rl.same_row_space([list(v) for v in fast],
                                     [list(v) for v in slow])


def test_kernel_of_zero_and_empty():
    assert rl.kernel_basis([[0, 0]], 2) == _textbook_kernel([[0, 0]], 2)
    assert rl.kernel_basis([], 3) == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1)]
