import time
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from polyprog import oracle
from polyprog.parser import (
    MAX_ATOM_DEGREE,
    ProgressionSyntaxError,
    parse_progression,
    render_progression,
)
from polyprog.polycore import monomial_coeffs, to_binomial_basis, trim
from polyprog.progression import Progression, progression


def test_parse_worked_examples():
    expr = parse_progression("x, x+y, x+2y, x+y^3")
    assert expr.progression == progression((0, 1), (0, 2), (0, 0, 0, 1))
    expr5 = parse_progression("x, x+y^2, x+2y^2, x+y^3, x+2y^3")
    assert expr5.progression == progression((0, 0, 1), (0, 0, 2), (0, 0, 0, 1),
                                            (0, 0, 0, 2))


def test_parse_binomial_atoms_and_mixed_terms():
    expr = parse_progression("x, x + C(y,2), x + y - 2*y^2")
    assert expr.progression.polys[0] == (0, 0, 1)
    assert expr.progression.polys[1] == to_binomial_basis((0, 1, -2))
    assert all(type(b) is int for p in expr.progression.polys for b in p)


def test_parse_sums_fractions_back_to_integers():
    # y^2/2 + y/2 = C(y,1) + C(y,2): integral, held as ints
    expr = parse_progression("x, x + y^2/2 + y/2")
    assert expr.progression.polys == ((0, 1, 1),)
    assert all(type(b) is int for b in expr.progression.polys[0])


@given(st.lists(st.tuples(st.integers(min_value=-5, max_value=5),
                          st.integers(min_value=0, max_value=6),
                          st.booleans(),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_parse_coordinates_match_monomial_route(atoms):
    # the parser's binomial coordinates against to_binomial_basis of the
    # same polynomial summed in monomial coefficients by the oracle
    text = " + ".join(f"{c}*{'C(y,' + str(k) + ')' if binom else 'y^' + str(k)}/{den}"
                      for c, k, binom, den in atoms).replace("+ -", "- ")
    mono = [0]
    for c, k, binom, den in atoms:
        atom = oracle.monomial((0,) * k + (1,)) if binom else (0,) * k + (1,)
        atom = [Fraction(c, den) * a for a in atom]
        mono = [a + b for a, b in zip_longest(mono, atom, fillvalue=0)]
    expected = to_binomial_basis(mono)
    try:
        got = parse_progression("x, x + " + text).progression.polys[0]
    except ProgressionSyntaxError as err:
        # zero or not integral: exactly when the monomial route says so
        assert not expected or expected[0] != 0 or \
            any(b.denominator != 1 for b in expected), str(err)
        return
    assert got == expected
    assert monomial_coeffs(got) == tuple(Fraction(c) for c in mono[:len(got)])


def test_parse_refuses_atom_degree_above_ceiling():
    for text, pos in ((f"x, x+y, x+y^{MAX_ATOM_DEGREE + 1}", 10),
                      (f"x, x + 3*C(y,{MAX_ATOM_DEGREE + 1})", 7),
                      ("x, x+y^1000000000", 5)):
        start = time.perf_counter()
        with pytest.raises(ProgressionSyntaxError) as err:
            parse_progression(text)
        assert time.perf_counter() - start < 1.0
        assert err.value.position == pos
        assert "MAX_ATOM_DEGREE" in str(err.value)
    # the ceiling itself is accepted
    assert parse_progression(f"x, x+C(y,{MAX_ATOM_DEGREE})").progression.max_degree() == \
        MAX_ATOM_DEGREE


def test_parse_rejects_non_integral():
    with pytest.raises(ProgressionSyntaxError) as err:
        parse_progression("x, x+y/2")
    assert "not integral" in str(err.value)


def test_parse_rejects_duplicates():
    with pytest.raises(ProgressionSyntaxError) as err:
        parse_progression("x, x+y, x+y")
    assert "duplicate" in str(err.value)


def test_parse_rejects_zero_term():
    with pytest.raises(ProgressionSyntaxError):
        parse_progression("x, x+y-y")


def test_syntax_error_carries_position():
    with pytest.raises(ProgressionSyntaxError) as err:
        parse_progression("x, x+y, q")
    assert err.value.position == 8    # the offending 'q'


def test_requires_leading_x():
    with pytest.raises(ProgressionSyntaxError):
        parse_progression("y, x+y")
    with pytest.raises(ProgressionSyntaxError):
        parse_progression("x")


def test_roundtrip_canonical():
    expr = parse_progression("x, x + y + y^2, x + 3*y")
    again = parse_progression(expr.canonical)
    assert again.progression == expr.progression
    assert again.canonical == expr.canonical


coeff_vectors = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4)
    .filter(lambda c: any(c)),
    min_size=1, max_size=4, unique_by=tuple)


@given(coeff_vectors)
@settings(max_examples=500, deadline=None)
def test_roundtrip_random_progressions(vectors):
    polys = [trim((0, *coords)) for coords in vectors]
    if len(set(polys)) < len(polys):
        return
    prog = Progression(tuple(polys))
    text = render_progression(prog)
    assert parse_progression(text).progression == prog
