import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyprog import oracle
from polyprog.oracle import binom_of_shift, compose_shift, substitute_affine
from polyprog.polycore import (
    binomial_grid,
    cells_text,
    forward_differences,
    monomial_coeffs,
    poly_text,
    to_binomial_basis,
    value,
)
from polyprog.progression import Progression, Relation, progression

# binomial coordinates of y, y^2, y^3 and of C(y, k)
Y = (0, 1)
Y2 = (0, 1, 2)
Y3 = (0, 1, 6, 6)


def unit(k):
    return (0,) * k + (1,)


def value_at(cells, x, y):
    """The polynomial held as a cell map {(a, b): coeff}, at the point (x, y)."""
    return sum((c * Fraction(x) ** a * Fraction(y) ** b for (a, b), c in cells.items()),
               Fraction(0))


def test_binomial_basis_of_square():
    # u^2 = C(u,1) + 2 C(u,2); check the coordinates and the values 0,1,2
    assert to_binomial_basis((0, 0, 1)) == Y2
    assert [value(Y2, u) for u in (0, 1, 2)] == [0, 1, 4]


def test_binomial_basis_of_binomial_atom():
    # monomial expansion of C(u,3) is (1/6)u^3 - (1/2)u^2 + (1/3)u
    mono = (0, Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6))
    assert to_binomial_basis(mono) == unit(3)
    assert monomial_coeffs(unit(3)) == mono


def test_binomial_basis_of_zero():
    assert to_binomial_basis(()) == () == to_binomial_basis((0, 0))
    assert monomial_coeffs(()) == ()
    assert Relation(qs=((), Y2)).degree_profile == (float("-inf"), 2)


coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    min_size=0, max_size=7)


def trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@given(coeff_lists)
@settings(max_examples=150, deadline=None)
def test_binomial_roundtrip(coeffs):
    bs = to_binomial_basis(coeffs)
    assert monomial_coeffs(bs) == trimmed(coeffs)
    assert to_binomial_basis(monomial_coeffs(bs)) == bs


# denominators far beyond the factorials of the degree: non-integral
# binomial coordinates
wide_coeff_lists = st.lists(st.fractions(max_denominator=10 ** 6),
                            min_size=0, max_size=12)


@given(coeff_lists | wide_coeff_lists,
       st.integers(min_value=-10 ** 4, max_value=10 ** 4))
@settings(max_examples=150, deadline=None)
def test_views_agree_on_evaluation(coeffs, u):
    # value() in binomial coordinates against the oracle's Horner on the
    # monomial coefficients
    assert value(to_binomial_basis(coeffs), u) == oracle.evaluate(coeffs, u)


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=10),
       st.integers(min_value=-10 ** 3, max_value=10 ** 3))
@settings(max_examples=150, deadline=None)
def test_integer_coordinates_take_integer_values(bs, u):
    v = value(bs, u)
    assert type(v) is int and v == oracle.evaluate(oracle.monomial(bs), u)


@given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=30),
                max_size=9))
@settings(max_examples=150, deadline=None)
def test_monomial_view_matches_oracle_products(bs):
    # integer Horner in the binomial basis against the oracle's Fraction
    # products of the factors (u - i)/(i + 1)
    assert monomial_coeffs(trimmed(bs)) == oracle.monomial(bs)


@pytest.mark.parametrize("k", range(1, 7))
def test_derivative_shifts_binomial_index(k):
    # C(u+1, k) - C(u, k) = C(u, k-1), checked on more points than the degree
    for u in range(-10, 11):
        assert value(unit(k), u + 1) - value(unit(k), u) == value(unit(k - 1), u)


def test_derivative_examples():
    # (u+1)^2 - u^2 = 2u + 1; a constant has difference zero
    assert [value(Y2, u + 1) - value(Y2, u) for u in range(-3, 4)] == \
        [2 * u + 1 for u in range(-3, 4)]
    five = to_binomial_basis((5,))
    assert five == (5,)
    assert all(value(five, u + 1) == value(five, u) for u in range(-3, 4))


@pytest.mark.parametrize("k", range(1, 6))
def test_iterated_derivative_of_binomial_is_one(k):
    # the k-th forward difference of C(u, k) is 1 everywhere
    for start in range(-3, 4):
        diffs = forward_differences([value(unit(k), start + u) for u in range(k + 1)])
        assert diffs[k] == 1


def test_integrality():
    # integral: integer binomial coordinates and zero constant term
    assert Progression((unit(2),)).polys == (unit(2),)
    assert progression((0, 0, 0, 1)).polys == (Y3,)
    with pytest.raises(ValueError):
        progression((0, 0, Fraction(1, 2)))     # y^2/2
    with pytest.raises(ValueError):
        progression((1, 1))                     # nonzero constant term
    with pytest.raises(ValueError):
        Progression(((0, Fraction(1, 2)),))


def test_derivative_preserves_integer_values():
    rng = random.Random(0)
    for _ in range(25):
        p = (0,) + tuple(rng.randint(-5, 5) for _ in range(4))
        # the difference P(u+1) - P(u) has the coordinates of P shifted down
        d = p[1:]
        assert all(value(p, u + 1) - value(p, u) == value(d, u) for u in range(-10, 11))
        assert all(type(value(d, u)) is int for u in range(-10, 11))


def test_substitute_affine_examples():
    assert substitute_affine((0, 1), 2, 1) == (-1, 1)                  # y - 1
    assert substitute_affine((0, 0, 1), 2, 0) == (2, -4, 2)            # 2(y-1)^2
    assert substitute_affine((0, 0, 0, 1), 1, 0) == (-1, 3, -3, 1)     # (y-1)^3


def test_substitute_affine_validation():
    with pytest.raises(ValueError):
        substitute_affine((0, 1), 0, 0)
    with pytest.raises(ValueError):
        substitute_affine((0, 1), 2, 2)


def test_substitute_affine_can_leave_integers():
    # binomial-coefficient inputs need not stay integer valued
    out = substitute_affine(monomial_coeffs(unit(3)), 3, 0)
    assert oracle.evaluate(out, 2) == Fraction(1, 3)


def test_partial_derivative_on_shifted_binomials():
    # C(x+1+P(y), k) - C(x+P(y), k) = C(x+P(y), k-1), pointwise
    for k in (1, 2, 3):
        r, lower = binom_of_shift(Y2, k), binom_of_shift(Y2, k - 1)
        for x in range(-3, 4):
            for y in range(-3, 4):
                assert value_at(r, x + 1, y) - value_at(r, x, y) == value_at(lower, x, y)


def test_compose_shift_matches_pointwise():
    q = to_binomial_basis((1, -2, 0, 3))
    p = (0, 2, 2)                       # y + y^2
    r = compose_shift(q, p)
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert value_at(r, x, y) == value(q, x + value(p, y))


def test_binomial_grid_roundtrip():
    # r = 3y C(x + y^2, 2) + x^2 y^2 / 2
    r = {(a, b + 1): 3 * c for (a, b), c in binom_of_shift(Y2, 2).items()}
    r[(2, 2)] = r.get((2, 2), 0) + Fraction(1, 2)
    grid = binomial_grid(r)
    for x in range(-4, 5):
        for y in range(-4, 5):
            assert value_at(r, x, y) == sum(c * value(unit(a), x) * value(unit(b), y)
                                            for (a, b), c in grid.items())
    # integer cells stay in integers
    assert all(type(v) is int for v in binomial_grid({(1, 2): 3, (0, 1): -1}).values())


def test_poly_text_ascending():
    assert poly_text(to_binomial_basis((0, -1, 2))) == "-y + 2*y^2"
    assert poly_text(()) == "0"
    assert cells_text({(0, 2): -1, (1, 0): 2, (0, 0): Fraction(1, 2)}) == "1/2 + 2*x - y^2"
    assert cells_text({(1, 1): -3}) == "-3*x*y"
    assert cells_text({}) == "0"
