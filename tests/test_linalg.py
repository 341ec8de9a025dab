"""The shared inverses of `linalg`, the Neumann sum over commutative rings
and Gauss-Jordan elimination over fields, its determinant and its one
matrix product."""

import operator
import random
from fractions import Fraction
from itertools import permutations

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


def leibniz_det(a):
    """The determinant as the signed sum over permutations: the reference
    for `la.det`."""
    m = len(a)
    total = 0
    for perm in permutations(range(m)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(m) for j in range(i + 1, m))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * a[i][j]
        total = total + term
    return total


@st.composite
def fraction_matrices(draw):
    """Square Fraction matrices of size up to 5, often sparse (so leading
    pivots vanish and rows are swapped), and at times singular: the last
    row a combination of the others."""
    m = draw(st.integers(1, 5))
    zero = st.just(Fraction(0))
    entry = draw(st.sampled_from([rationals, st.one_of(zero, rationals),
                                  st.one_of(zero, zero, zero, rationals)]))
    a = square(draw, m, entry)
    if m > 1 and draw(st.booleans()):
        weights = [draw(rationals) for _ in range(m - 1)]
        a[-1] = [sum(w * row[j] for w, row in zip(weights, a))
                 for j in range(m)]
    return a


@SETTINGS
@given(fraction_matrices())
def test_det_matches_the_leibniz_formula(a):
    value = la.det(a)
    assert type(value) is Fraction
    assert value == leibniz_det(a)


def test_det_swaps_rows_to_a_nonzero_pivot():
    # the permutation matrices take every sequence of row swaps
    for perm in permutations(range(4)):
        a = [[Fraction(i + 2) if j == perm[i] else Fraction(0)
              for j in range(4)] for i in range(4)]
        assert la.det(a) == leibniz_det(a)
    assert la.det([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == -10
    assert la.det([[0, 1, 2], [0, 3, 4], [0, 6, 7]]) == 0


def test_det_reads_ints_as_fractions():
    for a in ([[3]], [[2, 1], [1, 1]], [[1, 2], [2, 4]],
              [[0, 1, 2], [3, 4, 5], [6, 7, 9]]):
        value = la.det(a)
        assert type(value) is Fraction
        assert value == leibniz_det(a)


@SETTINGS
@given(rational_function_matrices())
def test_det_over_rational_functions_matches_the_leibniz_formula(g):
    assert la.det(g) == leibniz_det(g)
    singular = [list(row) for row in g]
    singular[-1] = [x * g[-1][0] for x in g[0]]
    assert not la.det(singular)


def test_det_of_ints_and_rational_functions_reads_the_ints_as_fractions():
    # ints mixed with rational functions run the `/` Bareiss: int / int
    # must stay exact, at 3x3 and past it, where the quotient meets an
    # entry that takes no float
    z = Polynomial.variable(0, 1)
    rf = RationalFunction(z + 1, z - 2)
    for m in (3, 4, 5):
        a = [[i + 2 if i == j else 0 for j in range(m)] for i in range(m)]
        a[0] = [1] + [rf] * (m - 1)
        a[-1][0] = 3
        value = la.det(a)
        assert isinstance(value, RationalFunction)
        assert value == leibniz_det(
            [[RationalFunction.const(x, 1) if isinstance(x, int) else x
              for x in row] for row in a])
    assert la.det([[1, rf, rf], [0, 2, 0], [0, 0, 3]]) == 6


def seeded_rational_matrices(seed, count):
    """Rectangular matrices of ints and Fractions, often sparse, with zero
    columns, and singular or rank-deficient: rows that are combinations of
    the others."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        zero = rng.random()

        def entry():
            if rng.random() < zero / 2:
                return 0
            if rng.random() < 0.4:
                return rng.randint(-6, 6)
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        a = [[entry() for _ in range(cols)] for _ in range(rows)]
        for i in range(1, rows):
            if rng.random() < 0.25:
                w = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                a[i] = [w * x + y for x, y in zip(a[0], a[i - 1])]
        if rng.random() < 0.2:
            column = rng.randrange(cols)
            for row in a:
                row[column] = 0
        yield a


def test_fraction_free_elimination_matches_the_field_path():
    for a in seeded_rational_matrices(5, 600):
        rows, pivots = la.eliminate(a)
        assert (rows, pivots) == la._eliminate_over_field(a)
        assert all(type(x) is Fraction for row in rows for x in row)
        if len(a) == len(a[0]):
            value = la.det(a)
            assert type(value) is Fraction
            assert value == la._bareiss(
                [[Fraction(x) for x in row] for row in a], operator.truediv)
            assert value == leibniz_det(a)


def test_the_solvers_follow_the_elimination():
    cases = list(seeded_rational_matrices(9, 300))
    singular = 0
    for a in cases:
        reduced, pivots = la._eliminate_over_field(a)
        assert la.rank(a) == len(pivots)
        for vector in la.kernel_basis(a):
            assert all(sum(x * v for x, v in zip(row, vector)) == 0
                       for row in a)
        assert len(la.kernel_basis(a)) == len(a[0]) - len(pivots)
        b = [sum(row) for row in a]
        x = la.solve(a, b)
        assert [sum(c * v for c, v in zip(row, x)) for row in a] == b
        if len(a) == len(a[0]):
            if len(pivots) < len(a):
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    la.invert(a)
            else:
                inverse = la.invert(a)
                assert la.mat_mul(a, inverse) == la.identity(len(a))
    assert singular > 5


class Counted:
    """An integer that logs each product it forms as (left, right)."""

    def __init__(self, value, log):
        self.value, self.log = value, log

    def __bool__(self):
        return bool(self.value)

    def __add__(self, other):
        return Counted(self.value + other.value, self.log)

    def __mul__(self, other):
        self.log.append((self.value, other.value))
        return Counted(self.value * other.value, self.log)


def integer_matrices(rows, cols):
    entry = st.sampled_from([0, 0, 0, 1, -2, 3])
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    integer_matrices(2, k), integer_matrices(k, 3))))
def test_mat_mul_forms_no_product_with_a_zero_factor(case):
    a, b = case
    log = []
    product = la.mat_mul([[Counted(x, log) for x in row] for row in a],
                         [[Counted(x, log) for x in row] for row in b])
    expected = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                for row in a]
    assert [[x.value for x in row] for row in product] == expected
    # only an entry with no nonzero term forms a product, its first pair
    empty = [(row[0], col[0]) for row in a for col in zip(*b)
             if not any(x and y for x, y in zip(row, col))]
    nonzero = sum(bool(x and y) for row in a for col in zip(*b)
                  for x, y in zip(row, col))
    assert [pair for pair in log if 0 in pair] == empty
    assert len(log) == nonzero + len(empty)


@pytest.mark.parametrize("one,zero", [
    (Fraction(1), Fraction(0)),
    (Polynomial.variable(0, 2), Polynomial.zero(2)),
    (TruncatedSeries.variable(1, 2, 3), TruncatedSeries.zero(2, 3)),
    (TruncatedSeries.one(1, 2), Fraction(0)),
])
def test_an_entry_with_no_nonzero_term_is_a_zero_of_the_operands_kind(
        one, zero):
    [[entry]] = la.mat_mul([[one, zero]], [[zero], [one]])
    assert not entry
    assert type(entry) is type(one)
    if isinstance(one, TruncatedSeries):
        assert (entry.dims, entry.order) == (one.dims, one.order)
    if isinstance(one, Polynomial):
        assert entry.arity == one.arity
