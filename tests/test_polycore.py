import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyprog.oracle import binom_of_shift, compose_shift
from polyprog.polycore import (
    UniPoly,
    binomial_grid,
    binomial_poly,
    cells_text,
    from_binomial_basis,
    is_integral,
    poly_text,
    substitute_affine,
    to_binomial_basis,
)

Y = UniPoly((0, 1))
Y2 = UniPoly((0, 0, 1))
Y3 = UniPoly((0, 0, 0, 1))


def value(cells, x, y):
    """The polynomial held as a cell map {(a, b): coeff}, at the point (x, y)."""
    return sum((c * Fraction(x) ** a * Fraction(y) ** b for (a, b), c in cells.items()),
               Fraction(0))


def test_binomial_basis_of_square():
    # u^2 = C(u,1) + 2 C(u,2); check the coordinates and the values 0,1,2
    assert to_binomial_basis(Y2) == (0, 1, 2)
    p = from_binomial_basis((0, 1, 2))
    assert [p(u) for u in (0, 1, 2)] == [0, 1, 4]


def test_binomial_basis_of_binomial_atom():
    assert to_binomial_basis(binomial_poly(3)) == (0, 0, 0, 1)
    # monomial expansion of C(u,3) is (1/6)u^3 - (1/2)u^2 + (1/3)u
    assert binomial_poly(3).coeffs == (0, Fraction(1, 3), Fraction(-1, 2),
                                       Fraction(1, 6))


def test_binomial_basis_of_zero():
    assert to_binomial_basis(UniPoly.zero()) == ()
    assert UniPoly.zero().degree == float("-inf")


coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    min_size=0, max_size=7)


@given(coeff_lists)
@settings(max_examples=150, deadline=None)
def test_binomial_roundtrip(coeffs):
    p = UniPoly(coeffs)
    assert from_binomial_basis(to_binomial_basis(p)) == p


# denominators far beyond the factorials of the degree: non-integral
# binomial coordinates
wide_coeff_lists = st.lists(st.fractions(max_denominator=10 ** 6),
                            min_size=0, max_size=12)


@given(coeff_lists | wide_coeff_lists,
       st.integers(min_value=-10 ** 4, max_value=10 ** 4))
@settings(max_examples=150, deadline=None)
def test_views_agree_on_evaluation(coeffs, u):
    p = UniPoly(coeffs)
    bs = to_binomial_basis(p)
    via_binomial = sum((b * binomial_poly(k)(u) for k, b in enumerate(bs)),
                      Fraction(0))
    assert p(u) == via_binomial


@pytest.mark.parametrize("k", range(1, 7))
def test_derivative_shifts_binomial_index(k):
    q = binomial_poly(k)
    assert q.compose_linear(1, 1) - q == binomial_poly(k - 1)


def test_derivative_examples():
    assert Y2.compose_linear(1, 1) - Y2 == UniPoly((1, 2))          # 2u + 1
    assert UniPoly((5,)).compose_linear(1, 1) - UniPoly((5,)) == UniPoly.zero()


@pytest.mark.parametrize("k", range(1, 6))
def test_iterated_derivative_of_binomial_is_one(k):
    p = binomial_poly(k)
    for _ in range(k):
        p = p.compose_linear(1, 1) - p
    assert p == UniPoly((1,))


def test_integrality():
    assert is_integral(binomial_poly(2))
    assert not is_integral(Y2.scale(Fraction(1, 2)))
    assert is_integral(Y3)
    assert not is_integral(Y + UniPoly((1,)))   # nonzero constant term


def test_derivative_preserves_integer_values():
    rng = random.Random(0)
    for _ in range(25):
        p = from_binomial_basis([0] + [rng.randint(-5, 5) for _ in range(4)])
        d = p.compose_linear(1, 1) - p
        assert all(d(u).denominator == 1 for u in range(-10, 11))
        assert is_integral(d - UniPoly([d(0)]))


def test_substitute_affine_examples():
    assert substitute_affine(Y, 2, 1) == UniPoly((-1, 1))            # y - 1
    assert substitute_affine(Y2, 2, 0) == UniPoly((2, -4, 2))        # 2(y-1)^2
    assert substitute_affine(Y3, 1, 0) == UniPoly((-1, 3, -3, 1))    # (y-1)^3


def test_substitute_affine_validation():
    with pytest.raises(ValueError):
        substitute_affine(Y, 0, 0)
    with pytest.raises(ValueError):
        substitute_affine(Y, 2, 2)


def test_substitute_affine_can_leave_integers():
    # binomial-coefficient inputs need not stay integer valued
    out = substitute_affine(binomial_poly(3), 3, 0)
    assert out(2) == Fraction(1, 3)


def test_partial_derivative_on_shifted_binomials():
    # C(x+1+P(y), k) - C(x+P(y), k) = C(x+P(y), k-1), pointwise
    for k in (1, 2, 3):
        r, lower = binom_of_shift(Y2, k), binom_of_shift(Y2, k - 1)
        for x in range(-3, 4):
            for y in range(-3, 4):
                assert value(r, x + 1, y) - value(r, x, y) == value(lower, x, y)


def test_compose_shift_matches_pointwise():
    q = UniPoly((1, -2, 0, 3))
    p = Y2 + Y
    r = compose_shift(q, p)
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert value(r, x, y) == q(Fraction(x) + p(y))


def test_binomial_grid_roundtrip():
    # r = 3y C(x + y^2, 2) + x^2 y^2 / 2
    r = {(a, b + 1): 3 * c for (a, b), c in binom_of_shift(Y2, 2).items()}
    r[(2, 2)] = r.get((2, 2), 0) + Fraction(1, 2)
    grid = binomial_grid(r)
    for x in range(-4, 5):
        for y in range(-4, 5):
            assert value(r, x, y) == sum(c * binomial_poly(a)(x) * binomial_poly(b)(y)
                                         for (a, b), c in grid.items())
    # integer cells stay in integers
    assert all(type(v) is int for v in binomial_grid({(1, 2): 3, (0, 1): -1}).values())


def test_poly_text_ascending():
    assert poly_text(UniPoly((0, -1, 2))) == "-y + 2*y^2"
    assert poly_text(UniPoly.zero()) == "0"
    assert cells_text({(0, 2): -1, (1, 0): 2, (0, 0): Fraction(1, 2)}) == "1/2 + 2*x - y^2"
    assert cells_text({(1, 1): -3}) == "-3*x*y"
    assert cells_text({}) == "0"
