"""Every result of the term-table kernel is canonical.

Results of add, sub, mul, scale, derive and restrict are built without a
second check, so passing their tables back through the public constructor
must give an equal table, with no zero coefficient and, for series, no term
above the order.

Rational series run the kernel on integer numerators over a common
denominator; their results must equal the kernel run on the Fraction
coefficients, and stay in lowest terms.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge.poly import (Polynomial, add_terms, derive_terms, mul_terms,
                          pow_terms)
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


# -- the integer form of rational series ---------------------------------------

# numerators and denominators from small to 80 bits, so that operands mix
# large, small and coprime denominators
big_rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-5, 5), st.integers(-2 ** 80, 2 ** 80)),
    st.one_of(st.integers(1, 12), st.integers(1, 2 ** 80)))


def rational_series(dims, order, coeffs=big_rationals):
    return st.dictionaries(exponents(dims, order), coeffs, max_size=8).map(
        lambda table: TruncatedSeries(dims, order, table))


def assert_integer_form(s):
    """Integer numerators over a positive denominator, in lowest terms."""
    assert s._den > 0
    assert all(type(n) is int and n for n in s._table.values())
    assert math.gcd(s._den, *s._table.values()) == 1
    assert all(sum(p) <= s.order for p in s._table)


@st.composite
def rational_operands(draw):
    dims = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6))
    a = draw(rational_series(dims, order))
    b = draw(rational_series(dims, order))
    unit_const = draw(big_rationals.filter(bool))
    return (a, b, draw(big_rationals), draw(st.integers(0, dims - 1)),
            draw(st.integers(0, order)), unit_const)


def negated(terms):
    return {p: -c for p, c in terms.items()}


@SETTINGS
@given(rational_operands())
def test_integer_form_matches_the_fraction_kernel(operands):
    a, b, scalar, index, lower, c0 = operands
    d, r = a.dims, a.order
    fa, fb = a.coeffs, b.coeffs
    assert all(type(c) is Fraction for c in fa.values())
    expected = [
        (a + b, add_terms(fa, fb)),
        (a - b, add_terms(fa, negated(fb))),
        (-a, negated(fa)),
        (a * b, mul_terms(fa, fb, r)),
        (a.scale(scalar), {p: c * scalar for p, c in fa.items()}
         if scalar else {}),
        (a * scalar, {p: c * scalar for p, c in fa.items()} if scalar else {}),
        (a.derive(index), derive_terms(fa, index, d)),
        (a.restrict(lower), {p: c for p, c in fa.items() if sum(p) <= lower}),
        (a.zero_extended(r + 2), fa),
        (a ** 3, pow_terms(fa, 3, d, r)),
    ]
    for result, terms in expected:
        assert result.coeffs == terms
        assert_integer_form(result)
    assert_integer_form(a)
    zero = (0,) * d
    assert a.is_zero() == (not fa)
    assert a.constant_term() == fa.get(zero, 0)
    assert a.coefficient(zero) == fa.get(zero, 0)
    for p in list(fa)[:3]:
        assert a.coefficient(p) == fa[p]
    assert a.homogeneous(lower) == {p: c for p, c in fa.items()
                                    if sum(p) == lower}
    unit = a.restrict(r) + TruncatedSeries.const(c0 - a.constant_term(), d, r)
    inverse = unit.invert_unit()
    assert_integer_form(inverse)
    assert mul_terms(inverse.coeffs, unit.coeffs, r) == {zero: Fraction(1)}


@st.composite
def mixed_operands(draw):
    dims = draw(st.integers(1, 2))
    order = draw(st.integers(0, 4))
    a = draw(rational_series(dims, order))
    g = draw(series(dims, order, st.one_of(rationals, polynomials(2, top=1))))
    return a, g, draw(big_rationals), draw(polynomials(2, top=1))


@SETTINGS
@given(mixed_operands())
def test_mixed_operands_match_the_generic_kernel(operands):
    a, g, scalar, poly = operands
    fa, fg = a.coeffs, g.coeffs
    r = a.order
    expected = [
        (a + g, add_terms(fa, fg)),
        (g + a, add_terms(fg, fa)),
        (a - g, add_terms(fa, negated(fg))),
        (a * g, mul_terms(fa, fg, r)),
        (g * a, mul_terms(fg, fa, r)),
        (g.scale(scalar), {p: c * scalar for p, c in fg.items()}
         if scalar else {}),
        (a.scale(poly), {p: c * poly for p, c in fa.items()} if poly else {}),
    ]
    for result, terms in expected:
        assert result.coeffs == terms
        assert_canonical_series(result)
        if all(type(c) is Fraction for c in terms.values()):
            assert_integer_form(result)
        else:
            assert result._den is None


def test_sparse_product_at_high_order():
    a = TruncatedSeries(2, 400, {(0, 0): 1, (7, 0): Fraction(1, 3)})
    b = TruncatedSeries(2, 400, {(0, 0): 2, (0, 390): Fraction(-5, 2)})
    product = a * b
    assert product.coeffs == {(0, 0): 2, (0, 390): Fraction(-5, 2),
                              (7, 0): Fraction(2, 3),
                              (7, 390): Fraction(-5, 6)}
    assert_integer_form(product)


def test_fractions_are_made_only_when_coefficients_are_read():
    a = TruncatedSeries(2, 3, {(0, 0): Fraction(1, 3), (1, 0): 2})
    b = (a * a + a).derive(0).scale(Fraction(5, 7)).restrict(2)
    assert not hasattr(b, "_coeffs")
    assert_integer_form(b)
    assert b.coeffs is b.coeffs
    assert all(type(c) is Fraction for c in b.coeffs.values())


def test_product_with_one_is_the_other_factor():
    one = TruncatedSeries.one(2, 3)
    rational = TruncatedSeries(2, 3, {(0, 1): Fraction(2, 3), (0, 0): 5})
    symbolic = TruncatedSeries(2, 3, {(0, 0): Polynomial.variable(0, 2),
                                      (1, 0): Fraction(1, 2)})
    for s in (one, rational, symbolic):
        assert one * s is s and s * one is s
    two = TruncatedSeries.const(2, 2, 3)
    assert two * rational == rational.scale(2)
    assert TruncatedSeries(2, 3, {(0, 0): Fraction(4, 4)}) * symbolic \
        is symbolic
