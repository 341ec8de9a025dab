"""Every result of the term-table kernel is canonical.

Results of add, sub, mul, scale, derive and restrict are built without a
second check, so passing their tables back through the public constructor
must give an equal table, with no zero coefficient and, for series, no term
above the order.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge.poly import Polynomial
from jetforge.series import TruncatedSeries

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def exponents(arity, top):
    return st.tuples(*[st.integers(0, top)] * arity)


def polynomials(arity, top=2, coeffs=rationals):
    return st.dictionaries(exponents(arity, top), coeffs, max_size=5).map(
        lambda terms: Polynomial(arity, terms))


def series(dims, order, coeffs):
    return st.dictionaries(exponents(dims, order), coeffs, max_size=6).map(
        lambda table: TruncatedSeries(dims, order, table))


def assert_canonical_poly(p):
    assert all(p.terms.values())
    assert Polynomial(p.arity, p.terms).terms == p.terms


def assert_canonical_series(s):
    assert all(s.coeffs.values())
    assert all(sum(p) <= s.order for p in s.coeffs)
    assert TruncatedSeries(s.dims, s.order, s.coeffs).coeffs == s.coeffs
    for c in s.coeffs.values():
        if isinstance(c, Polynomial):
            assert_canonical_poly(c)


@st.composite
def poly_operands(draw):
    arity = draw(st.integers(1, 3))
    a, b = draw(polynomials(arity)), draw(polynomials(arity))
    return a, b, draw(rationals), draw(st.integers(0, arity - 1))


@SETTINGS
@given(poly_operands())
def test_polynomial_results_are_canonical(operands):
    a, b, scalar, index = operands
    for result in (a + b, a - b, a - a, a * b, (a + b) * (a - b), a * scalar,
                   -a, a ** 2, a.derivative(index), a.normalized()):
        assert_canonical_poly(result)


@st.composite
def series_operands(draw):
    dims = draw(st.integers(1, 2))
    order = draw(st.integers(0, 3))
    coeffs = st.one_of(rationals, polynomials(2, top=1)) \
        if draw(st.booleans()) else rationals
    a = draw(series(dims, order, coeffs))
    b = draw(series(dims, order, coeffs))
    scalar = draw(st.one_of(rationals, polynomials(2, top=1)))
    return (a, b, scalar, draw(st.integers(0, dims - 1)),
            draw(st.integers(0, order)))


@SETTINGS
@given(series_operands())
def test_series_results_are_canonical(operands):
    a, b, scalar, index, lower = operands
    for result in (a + b, a - b, a - a, a * b, (a + b) * (a - b),
                   a.scale(scalar), a * scalar, -a, a ** 2, a.derive(index),
                   a.restrict(lower), a.zero_extended(a.order + 1)):
        assert_canonical_series(result)
