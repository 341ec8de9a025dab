"""The shared inverses of `linalg`: the Neumann sum over commutative rings
and Gauss-Jordan elimination over fields."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jetforge.linalg as la
from jetforge.poly import Polynomial
from jetforge.ratfunc import RationalFunction
from jetforge.series import TruncatedSeries

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
units = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda c: st.sampled_from([c, -c]))


def polynomials(arity, top=1, coeffs=rationals, min_size=0):
    return st.dictionaries(st.tuples(*[st.integers(0, top)] * arity),
                           coeffs, min_size=min_size, max_size=3).map(
        lambda terms: Polynomial(arity, terms))


def series_of_positive_valuation(dims, order):
    coeffs = st.one_of(rationals, polynomials(2))
    exponents = st.tuples(*[st.integers(0, order)] * dims).filter(
        lambda p: 0 < sum(p) <= order)
    return st.dictionaries(exponents, coeffs, max_size=4).map(
        lambda table: TruncatedSeries(dims, order, table))


def square(draw, m, entry, where=lambda i, j: True, zero=None):
    return [[draw(entry) if where(i, j) else zero for j in range(m)]
            for i in range(m)]


@st.composite
def unipotent_cases(draw):
    """(I, N, steps) with N nilpotent and N^(steps + 1) = 0."""
    m = draw(st.integers(1, 3))
    ring = draw(st.sampled_from(["fraction", "polynomial", "series"]))
    if ring == "series":
        d, r = draw(st.integers(1, 2)), draw(st.integers(0, 4))
        one, zero = TruncatedSeries.one(d, r), TruncatedSeries.zero(d, r)
        nilpotent = square(draw, m, series_of_positive_valuation(d, r))
        steps = r
    else:
        if ring == "fraction":
            one, zero, entry = Fraction(1), Fraction(0), rationals
        else:
            one, zero = Polynomial.const(1, 2), Polynomial.zero(2)
            entry = polynomials(2)
        below = draw(st.booleans())
        nilpotent = square(draw, m, entry,
                           lambda i, j: i > j if below else i < j, zero)
        steps = m - 1
    identity = [[one if i == j else zero for j in range(m)] for i in range(m)]
    return identity, nilpotent, steps


@SETTINGS
@given(unipotent_cases())
def test_unipotent_inverse_inverts_on_both_sides(case):
    identity, nilpotent, steps = case
    unit = la.mat_add(identity, nilpotent)
    inverse = la.unipotent_inverse(identity, nilpotent, steps)
    assert la.mat_eq(la.mat_mul(unit, inverse), identity)
    assert la.mat_eq(la.mat_mul(inverse, unit), identity)


def rational_functions(arity):
    dens = polynomials(arity, coeffs=units, min_size=1)
    return st.builds(RationalFunction, polynomials(arity), dens)


@st.composite
def rational_function_matrices(draw):
    arity, m = draw(st.sampled_from([(2, 2), (1, 3)]))
    return square(draw, m, rational_functions(arity))


@SETTINGS
@given(rational_function_matrices())
def test_invert_runs_over_rational_functions(g):
    m = len(g)
    assume(la.det(g))
    identity = la.identity(m)
    inverse = la.invert(g)
    assert all(isinstance(x, RationalFunction) for row in inverse for x in row)
    assert la.mat_eq(la.mat_mul(g, inverse), identity)
    assert la.mat_eq(la.mat_mul(inverse, g), identity)
    # a row that is a multiple of another makes the matrix singular
    singular = [list(row) for row in g]
    singular[-1] = [x * g[0][0] for x in g[0]]
    with pytest.raises(ValueError, match="singular"):
        la.invert(singular)


def test_invert_reads_ints_as_fractions():
    inverse = la.invert([[2, 1], [1, 1]])
    assert inverse == [[1, -1], [-1, 2]]
    assert all(type(x) is Fraction for row in inverse for x in row)
    with pytest.raises(ValueError, match="singular"):
        la.invert([[1, 2], [2, 4]])
