"""Every result of the term-table kernel is canonical.

Results of add, sub, mul, scale, derive and restrict are built without a
second check, so passing their tables back through the public constructor
must give an equal table, with no zero coefficient and, for series, no term
above the order.

Polynomials and rational series run the kernel on integer numerators over
a common denominator; their results must equal arithmetic on the Fraction
coefficients, and stay in lowest terms.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge.poly import (Polynomial, add_terms, default_names, derive_terms,
                          evaluate_terms, monomial_key, mul_terms, pow_terms,
                          primitive_parts, terms_to_string)
from jetforge.scheme import AffineMap
from jetforge.series import JetPoint, TruncatedSeries, series_compose

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
    """Integer numerators over a positive denominator, in lowest terms, and
    the same polynomial as the constructor makes of its Fractions."""
    assert type(p._den) is int and p._den > 0
    assert all(type(n) is int and n for n in p._table.values())
    assert math.gcd(p._den, *p._table.values()) == 1
    assert all(len(e) == p.arity for e in p._table)
    assert all(p.terms.values())
    rebuilt = Polynomial(p.arity, p.terms)
    assert rebuilt._table == p._table and rebuilt._den == p._den


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


def test_scale_power_text_and_composition_read_the_integer_form():
    terms = {(0, 0): Fraction(1, 3), (1, 0): 2, (0, 2): Fraction(-5, 6)}
    s = TruncatedSeries(2, 3, terms)
    poly = Polynomial.variable(0, 4) + Fraction(1, 2)
    jet = JetPoint([TruncatedSeries(1, 3, {(0,): 1, (1,): Fraction(1, 2)}),
                    TruncatedSeries(1, 3, {(1,): 2, (2,): Fraction(1, 7)})])
    scaled, squared = s.scale(poly), s ** 2
    text, composed = s.to_string(), series_compose(s, jet)
    assert not hasattr(s, "_coeffs")
    fs = {p: Fraction(c) for p, c in terms.items()}
    assert scaled.coeffs == {p: c * poly for p, c in fs.items()}
    assert squared.coeffs == pow_terms(fs, 2, 2, 3)
    assert_integer_form(squared)
    assert text == terms_to_string(fs, ["t1", "t2"], " * ")
    assert composed == evaluate_terms(fs, list(jet.offsets()),
                                      TruncatedSeries.one(1, 3))


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


# -- the integer form of polynomials --------------------------------------------

# The reference arithmetic below works on dicts of Fractions and never sees
# the stored form.

def ref_add(a, b):
    out = dict(a)
    for p, c in b.items():
        out[p] = out.get(p, 0) + c
    return {p: c for p, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for p, c in a.items():
        for q, d in b.items():
            pq = tuple(x + y for x, y in zip(p, q))
            out[pq] = out.get(pq, 0) + c * d
    return {p: c for p, c in out.items() if c}


def ref_pow(a, n, arity):
    out = {(0,) * arity: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_derivative(a, i):
    return {p[:i] + (p[i] - 1,) + p[i + 1:]: c * p[i]
            for p, c in a.items() if p[i]}


def ref_rename(a, target_arity, index_map):
    out = {}
    for p, c in a.items():
        q = [0] * target_arity
        for i, e in enumerate(p):
            q[index_map[i]] += e
        out[tuple(q)] = out.get(tuple(q), 0) + c
    return {p: c for p, c in out.items() if c}


def ref_evaluate(a, point):
    total = Fraction(0)
    for p, c in a.items():
        for x, e in zip(point, p):
            c *= x ** e
        total += c
    return total


def ref_primitive_parts(tables):
    """The lcm/gcd algorithm of the Fraction storage: clear denominators,
    divide by the gcd of all integer coefficients, then fix the sign by the
    graded-lex leading coefficient of the first table."""
    denlcm = 1
    for a in tables:
        for c in a.values():
            denlcm = denlcm * c.denominator // math.gcd(denlcm, c.denominator)
    g = 0
    for a in tables:
        for c in a.values():
            g = math.gcd(g, int(c * denlcm))
    g = g or 1
    first = tables[0]
    if first and first[max(first, key=monomial_key)] < 0:
        g = -g
    return [{p: c * denlcm / g for p, c in a.items()} for a in tables]


def big_polynomials(arity):
    return st.dictionaries(exponents(arity, 3), big_rationals,
                           max_size=6).map(lambda t: Polynomial(arity, t))


@st.composite
def big_poly_operands(draw):
    arity = draw(st.integers(1, 3))
    a, b, c = (draw(big_polynomials(arity)) for _ in range(3))
    target = draw(st.integers(1, 4))
    index_map = draw(st.lists(st.integers(0, target - 1), min_size=arity,
                              max_size=arity))
    point = draw(st.lists(big_rationals, min_size=arity, max_size=arity))
    return (a, b, c, draw(big_rationals), draw(st.integers(0, arity - 1)),
            target, index_map, point)


@SETTINGS
@given(big_poly_operands())
def test_polynomial_integer_form_matches_fraction_arithmetic(operands):
    a, b, c, scalar, index, target, index_map, point = operands
    fa, fb = dict(a.terms), dict(b.terms)
    negb = {p: -x for p, x in fb.items()}
    scaled = {p: x * scalar for p, x in fa.items() if scalar}
    expected = [
        (a + b, ref_add(fa, fb)),
        (a - b, ref_add(fa, negb)),
        (-a, {p: -x for p, x in fa.items()}),
        (a * b, ref_mul(fa, fb)),
        (a * scalar, scaled),
        (scalar * a, scaled),
        (a + scalar, ref_add(fa, {(0,) * a.arity: scalar} if scalar else {})),
        (a ** 0, {(0,) * a.arity: Fraction(1)}),
        (a ** 3, ref_pow(fa, 3, a.arity)),
        (a.derivative(index), ref_derivative(fa, index)),
        (a.rename_into(target, index_map),
         ref_rename(fa, target, index_map)),
        (a.normalized(), ref_primitive_parts([fa])[0]),
    ]
    for result, terms in expected:
        assert_canonical_poly(result)
        assert result.terms == terms
    assert a.normalized()._den == 1
    assert a.evaluate(point) == ref_evaluate(fa, point)
    assert a.constant_term() == fa.get((0,) * a.arity, 0)
    if fa:
        expo = max(fa, key=monomial_key)
        assert a.leading() == (expo, fa[expo])
        assert a.degree() == sum(expo)
    parts = primitive_parts([a, b, c])
    assert [p.terms for p in parts] == ref_primitive_parts(
        [fa, fb, dict(c.terms)])
    for p in parts:
        assert_canonical_poly(p)
        assert p._den == 1


@SETTINGS
@given(big_poly_operands())
def test_equal_polynomials_share_one_stored_form(operands):
    a, b, c, scalar, index, _, _, _ = operands
    routes = [
        ((a * b) * c, a * (b * c)),
        ((a + b) + c, a + (b + c)),
        (a * b, b * a),
        ((a + b) * c, a * c + b * c),
        ((a + b) - b, a),
        (a - a, Polynomial.zero(a.arity)),
        (a * scalar, Polynomial.const(scalar, a.arity) * a),
        ((a * b).derivative(index),
         a.derivative(index) * b + a * b.derivative(index)),
        (Polynomial(a.arity, a.terms), a),
        (Polynomial.from_string(a.to_string(), default_names(a.arity)), a),
    ]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)
        assert left._table == right._table and left._den == right._den
    if scalar:
        assert (a * scalar).normalized() == a.normalized()


def test_fractions_of_a_polynomial_are_made_only_when_terms_are_read():
    p = Polynomial(2, {(1, 0): Fraction(1, 3), (0, 2): Fraction(-5, 6)})
    q = Polynomial(2, {(0, 0): 2, (1, 1): Fraction(3, 4)})
    results = [p + q, p - q, p * q, p * Fraction(7, 5), p ** 2,
               p.derivative(0), p.rename_into(3, [2, 0]), p.normalized(),
               primitive_parts([p, q])[1], -p]
    p.evaluate((Fraction(1, 2), 3))
    p.evaluate_in([q, q], Polynomial.const(1, 2))
    AffineMap(2, 1, [p]).compose(AffineMap(2, 2, [q, p]))
    jet = JetPoint([TruncatedSeries(1, 3, {(0,): 1, (1,): Fraction(1, 2)}),
                    TruncatedSeries(1, 3, {(1,): 2, (2,): Fraction(1, 7)})])
    series_compose(p, jet)
    p.to_string()
    for f in (p, q, *results):
        assert not hasattr(f, "_terms")
    assert p.terms is p.terms
    assert p.terms == {(1, 0): Fraction(1, 3), (0, 2): Fraction(-5, 6)}
    assert all(type(c) is Fraction for c in p.terms.values())


def test_product_with_a_scalar_scales_the_stored_form():
    p = Polynomial(2, {(1, 0): Fraction(2, 3), (0, 0): 4})
    assert (p._table, p._den) == ({(1, 0): 2, (0, 0): 12}, 3)
    assert ((p * 3)._table, (p * 3)._den) == ({(1, 0): 2, (0, 0): 12}, 1)
    half = p * Fraction(1, 2)
    assert (half._table, half._den) == ({(1, 0): 1, (0, 0): 6}, 3)
    assert (p * 0).is_zero() and (p * 0)._den == 1
