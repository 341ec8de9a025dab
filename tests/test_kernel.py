"""Every result of the term-table kernel is canonical.

Results of add, sub, mul, scale, derive and restrict are built without a
second check, so passing their tables back through the public constructor
must give an equal table, with no zero coefficient and, for series, no term
above the order.

Polynomials and rational series run the kernel on integer numerators over
a common denominator; their results must equal arithmetic on the Fraction
coefficients, and stay in lowest terms.

Tables are keyed by packed exponent keys.  The helpers `encode` and
`decode` below pack and unpack them from the documented layout, apart from
the library, and the reference arithmetic (`ref_*`) works on exponent
tuples only.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetforge.series as series_module
from jetforge.errors import ArityMismatch, DimensionMismatch, NotAUnit
from jetforge.poly import (BITS, BOUND, Polynomial, default_names,
                          derive_terms, graded_monomials, monomial_key,
                          mul_terms, pow_terms, primitive_parts)
from jetforge.scheme import AffineMap, generic_jet
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


# -- packed keys, read apart from the library ----------------------------------

def encode(expo):
    """The packed key of an exponent tuple: the total degree, then the
    exponents, one BITS-wide field each, the degree most significant."""
    key = sum(expo)
    for e in expo:
        key = key << BITS | e
    return key


def decode(key, arity):
    """The exponent tuple of a key in `arity` variables, checking that the
    key has no bits above its arity + 1 fields and that its degree field
    holds the total degree, below the bound."""
    assert 0 <= key < 1 << BITS * (arity + 1)
    fields = [key >> BITS * i & ((1 << BITS) - 1)
              for i in range(arity, -1, -1)]
    assert fields[0] == sum(fields[1:]) < BOUND
    return tuple(fields[1:])


def decode_series(key, dims, arity):
    """(t-exponent, a-exponent) of a series key over Q[a_1..a_arity]: the
    t-key above the a-key, or the t-key alone when arity is 0."""
    if not arity:
        return decode(key, dims), ()
    low = BITS * (arity + 1)
    return decode(key >> low, dims), decode(key & ((1 << low) - 1), arity)


def assert_lowest_terms(table, den):
    """Nonzero int numerators over a positive denominator, no factor common
    to all of them."""
    assert type(den) is int and den > 0
    assert all(type(n) is int and n for n in table.values())
    assert math.gcd(den, *table.values()) == 1


def assert_canonical_poly(p):
    """Integer numerators over a positive denominator, in lowest terms,
    keys of the polynomial's arity, and the same polynomial as the
    constructor makes of its Fractions."""
    assert_lowest_terms(p._table, p._den)
    assert p.terms == {decode(k, p.arity): Fraction(n, p._den)
                       for k, n in p._table.items()}
    assert all(p.terms.values())
    rebuilt = Polynomial(p.arity, p.terms)
    assert rebuilt._table == p._table and rebuilt._den == p._den


def assert_canonical_series(s):
    assert all(s.coeffs.values())
    assert all(sum(p) <= s.order for p in s.coeffs)
    assert TruncatedSeries(s.dims, s.order, s.coeffs).coeffs == s.coeffs
    for c in s.coeffs.values():
        if isinstance(c, Polynomial):
            # a constant coefficient reads as a Fraction
            assert c.degree() > 0
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
    """Integer numerators over a positive denominator, in lowest terms, keyed
    by t-exponents of degree <= order."""
    assert_lowest_terms(s._table, s._den)
    assert all(sum(decode_series(p, s.dims, s._arity)[0]) <= s.order
               for p in s._table)


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
        (a + b, ref_add(fa, fb)),
        (a - b, ref_add(fa, negated(fb))),
        (-a, negated(fa)),
        (a * b, cut(ref_mul(fa, fb), r)),
        (a.scale(scalar), {p: c * scalar for p, c in fa.items()}
         if scalar else {}),
        (a * scalar, {p: c * scalar for p, c in fa.items()} if scalar else {}),
        (a.derive(index), ref_derivative(fa, index)),
        (a.restrict(lower), {p: c for p, c in fa.items() if sum(p) <= lower}),
        (a.zero_extended(r + 2), fa),
        (a ** 3, cut(ref_pow(fa, 3, d), r)),
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
    assert cut(ref_mul(inverse.coeffs, unit.coeffs), r) == {zero: 1}


def assert_flat_form(s, arity):
    """One integer table over Q[a_1..a_arity]: each key a t-exponent then
    an a-exponent, cut on the t-degree, numerators over a positive
    denominator in lowest terms."""
    assert s._arity == arity
    assert_lowest_terms(s._table, s._den)
    assert all(sum(decode_series(key, s.dims, arity)[0]) <= s.order
               for key in s._table)


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
        (a + g, ref_add(fa, fg)),
        (g + a, ref_add(fg, fa)),
        (a - g, ref_add(fa, negated(fg))),
        (a * g, cut(ref_mul(fa, fg), r)),
        (g * a, cut(ref_mul(fg, fa), r)),
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
            assert_flat_form(result, poly.arity)


# -- series over Q[a_1..a_k]: one flat table ------------------------------------

# The reference arithmetic works on dicts from t-exponents to Polynomial
# coefficients and never sees the flat table.

def as_polynomials(table, arity, order):
    """The coefficient dict a series makes of a table: Polynomials of one
    arity, nothing above the order, no zero."""
    out = {}
    for p, c in table.items():
        if sum(p) <= order:
            out[p] = out.get(p, 0) + c
    return {p: c if isinstance(c, Polynomial) else Polynomial.const(c, arity)
            for p, c in out.items() if c}


def cut(table, order):
    return {p: c for p, c in table.items() if sum(p) <= order and c}


def ref_compose(f, components, dims, order):
    """f(components) on coefficient dicts, truncated."""
    total = {}
    for e, c in f.terms.items():
        term = {(0,) * dims: c}
        for comp, k in zip(components, e):
            term = cut(ref_mul(term, ref_pow(comp, k, dims)), order)
        total = ref_add(total, term)
    return total


@st.composite
def flat_operands(draw):
    dims = draw(st.integers(1, 2))
    order = draw(st.integers(0, 3))
    arity = draw(st.integers(1, 3))
    coeffs = st.one_of(rationals, polynomials(arity, top=1))
    tables = [draw(st.dictionaries(exponents(dims, order), coeffs,
                                   max_size=5)) for _ in range(2)]
    tables.append(draw(st.dictionaries(exponents(dims, order), rationals,
                                       max_size=5)))
    return (dims, order, arity, tables, draw(rationals),
            draw(polynomials(arity, top=1)), draw(st.integers(0, dims - 1)),
            draw(st.integers(0, order)), draw(rationals.filter(bool)))


@SETTINGS
@given(flat_operands())
def test_flat_form_matches_polynomial_coefficients(operands):
    dims, order, arity, tables, scalar, poly, index, lower, c0 = operands
    g, h, a = (TruncatedSeries(dims, order, t) for t in tables)
    fg, fh, fa = (as_polynomials(t, arity, order) for t in tables)
    zero = (0,) * dims
    expected = [
        (g + h, ref_add(fg, fh)),
        (g + a, ref_add(fg, fa)),
        (a + g, ref_add(fa, fg)),
        (g - h, ref_add(fg, negated(fh))),
        (a - g, ref_add(fa, negated(fg))),
        (-g, negated(fg)),
        (g * h, cut(ref_mul(fg, fh), order)),
        (a * g, cut(ref_mul(fa, fg), order)),
        (g * a, cut(ref_mul(fg, fa), order)),
        (g.scale(scalar), {p: c * scalar for p, c in fg.items() if scalar}),
        (g * scalar, {p: c * scalar for p, c in fg.items() if scalar}),
        (g.scale(poly), {p: c * poly for p, c in fg.items() if poly}),
        (a.scale(poly), {p: c * poly for p, c in fa.items() if poly}),
        (poly * g, {p: c * poly for p, c in fg.items() if poly}),
        (g ** 0, {zero: Polynomial.const(1, arity)}),
        (g ** 3, cut(ref_pow(fg, 3, dims), order)),
        (g.restrict(lower), cut(fg, lower)),
        (g.derive(index), ref_derivative(fg, index)),
        (g.zero_extended(order + 1), fg),
        (series_compose(Polynomial(2, {(1, 1): 2, (2, 0): Fraction(-1, 3),
                                       (0, 0): 5}), JetPoint([g, a])),
         ref_compose(Polynomial(2, {(1, 1): 2, (2, 0): Fraction(-1, 3),
                                    (0, 0): 5}), [fg, fa], dims, order)),
    ]
    for result, terms in expected:
        assert result.coeffs == terms
        if result._arity:
            assert_flat_form(result, arity)
        else:
            assert_integer_form(result)
            assert all(not isinstance(c, Polynomial) or c.degree() <= 0
                       for c in terms.values())
        assert_canonical_series(result)
        for p, c in terms.items():
            assert result.coefficient(p) == c
        assert result.homogeneous(lower) == {
            p: c for p, c in terms.items() if sum(p) == lower}
    # a unit: rational constant term, any higher terms
    unit_terms = {p: c for p, c in fg.items() if any(p)}
    unit_terms[zero] = Polynomial.const(c0, arity)
    unit = TruncatedSeries(dims, order, unit_terms)
    inverse = unit.invert_unit()
    assert cut(ref_mul(inverse.coeffs, unit_terms), order) == {
        zero: Polynomial.const(1, arity)}
    # equality and hashing do not depend on the stored form
    # fa holds the rational coefficients as constant polynomials
    lifted = TruncatedSeries(dims, order, fa)
    assert lifted._arity == (arity if fa else 0)
    for left, right in ((g + h, h + g), (g * h, h * g), (a, lifted),
                        ((g + a) - g, a), (g - g, TruncatedSeries.zero(
                            dims, order)),
                        (TruncatedSeries(dims, order, fg), g)):
        assert left == right and right == left
        assert hash(left) == hash(right)
    assert (g == a) == (fg == fa)


# -- linear combinations: one integer table, reduced once ---------------------

def reference_combination(dims, order, pairs):
    """sum c * a through `scale`, `*` and `+`, one term at a time."""
    total = TruncatedSeries.zero(dims, order)
    for c, a in pairs:
        total = total + (c * a if isinstance(c, TruncatedSeries)
                         else a.scale(c))
    return total


def assert_stored_form(s):
    assert_canonical_series(s)
    if s._arity:
        assert_flat_form(s, s._arity)
    else:
        assert_integer_form(s)


@st.composite
def combination_operands(draw):
    dims = draw(st.integers(1, 2))
    order = draw(st.integers(0, 3))
    # rational series only, or mixed with series over Q[a_1, a_2]
    coeffs = st.one_of(rationals, polynomials(2, top=1)) \
        if draw(st.booleans()) else rationals
    operand = series(dims, order, coeffs)
    coefficient = st.one_of(rationals, st.integers(-2, 2),
                            polynomials(2, top=1), operand)
    pairs = draw(st.lists(st.tuples(coefficient, operand), max_size=5))
    return dims, order, pairs


@SETTINGS
@given(combination_operands())
def test_combination_matches_scale_and_add(operands):
    dims, order, pairs = operands
    result = TruncatedSeries.combination(dims, order, pairs)
    assert result == reference_combination(dims, order, pairs)
    assert_stored_form(result)
    # the same terms again, negated, cancel to zero
    cancelled = TruncatedSeries.combination(
        dims, order, pairs + [(-c, a) for c, a in pairs])
    assert cancelled == TruncatedSeries.zero(dims, order)
    assert cancelled._table == {} and cancelled._den == 1
    assert cancelled._arity == 0
    for _, a in pairs:
        parts = a.graded_parts()
        assert len(parts) == order + 1
        for degree, part in enumerate(parts):
            assert_stored_form(part)
            assert all(sum(p) == degree for p in part.coeffs)
        assert TruncatedSeries.combination(
            dims, order, [(1, part) for part in parts]) == a


def test_combination_of_nothing_and_of_zeros_is_zero():
    zero = TruncatedSeries.zero(2, 3)
    x = TruncatedSeries(2, 3, {(1, 0): Fraction(1, 2)})
    g = TruncatedSeries(2, 3, {(0, 1): Polynomial.variable(0, 2)})
    assert TruncatedSeries.combination(2, 3, []) == zero
    for pairs in ([(0, x)], [(Fraction(0), g)], [(Polynomial.zero(2), x)],
                  [(zero, g)], [(x, zero)], [(3, zero), (0, g)]):
        result = TruncatedSeries.combination(2, 3, pairs)
        assert result == zero
        assert (result._table, result._den, result._arity) == ({}, 1, 0)


def test_combination_cuts_products_at_the_order():
    t = TruncatedSeries(1, 2, {(1,): Fraction(1, 3), (2,): 1})
    result = TruncatedSeries.combination(1, 2, [(t, t), (Fraction(3), t)])
    assert result.coeffs == {(1,): 1, (2,): Fraction(28, 9)}
    assert_integer_form(result)


def test_combination_refuses_what_it_cannot_combine():
    x = TruncatedSeries(1, 2, {(1,): Polynomial.variable(0, 2)})
    y = TruncatedSeries(1, 2, {(0,): Polynomial.variable(0, 3)})
    other_order = TruncatedSeries(1, 3, {(1,): 1})
    for pairs in ([(1, x), (1, y)], [(x, y)],
                  [(Polynomial.variable(0, 3), x)]):
        with pytest.raises(ArityMismatch):
            TruncatedSeries.combination(1, 2, pairs)
    for pairs in ([(1, other_order)], [(other_order, x)]):
        with pytest.raises(DimensionMismatch):
            TruncatedSeries.combination(1, 2, pairs)
    with pytest.raises(TypeError):
        TruncatedSeries.combination(1, 2, [(1.5, x)])


def test_scale_and_combination_take_coefficients_by_one_rule():
    # a coefficient that is not an int, a Fraction, a Polynomial or a
    # series is refused by both, whatever its truth value and whatever the
    # series it multiplies; a bool is an int
    x = TruncatedSeries(1, 2, {(1,): Fraction(1, 2), (2,): 3})
    g = TruncatedSeries(1, 2, {(1,): Polynomial.variable(0, 2)})
    zero = TruncatedSeries.zero(1, 2)
    for c in (0.0, None, 1.5, 1.0, "", [], 0j):
        for a in (x, g, zero):
            for make in (lambda: a.scale(c), lambda: a * c,
                         lambda: TruncatedSeries.combination(1, 2, [(c, a)])):
                with pytest.raises(TypeError):
                    make()
    for a in (x, g):
        for c, value in ((True, a), (False, zero)):
            assert stored(a.scale(c)) == stored(value)
            assert stored(TruncatedSeries.combination(1, 2, [(c, a)])) \
                == stored(value)
        # a series coefficient multiplies, as `*` does
        assert stored(a.scale(x)) == stored(a * x)


def random_table(rng, dims, arity, top, size):
    """A packed integer table of at most `size` terms, exponents up to
    `top`: series keys over Q[a_1..a_arity] in `dims` t-variables."""
    table = {}
    for _ in range(size):
        n = rng.randint(-4, 4)
        if n:
            t = encode([rng.randint(0, top) for _ in range(dims)])
            a = encode([rng.randint(0, top) for _ in range(arity)])
            table[t << BITS * (arity + 1) | a if arity else t] = n
    return table


def series_limit(max_degree, dims, arity):
    """The key limit of a cut at t-degree `max_degree`, None for no cut."""
    if max_degree is None:
        return None
    return max_degree + 1 << BITS * (dims + (arity + 1 if arity else 0))


def test_mul_terms_factor_scales_the_product():
    rng = random.Random(19)
    for case in range(60):
        dims = rng.randint(1, 3)
        # cut on the whole key (a rational series) or on its t-part
        arity = (0, 2)[case // 4 % 2]
        a = random_table(rng, dims, arity, 3, rng.randint(0, 6))
        b = random_table(rng, dims, arity, 3, rng.randint(0, 6))
        limit = series_limit((None, 0, 2, 4)[case % 4], dims, arity)
        for k in (1, -1, 3, -6):
            product = mul_terms(a, b, limit)
            scaled = mul_terms(a, b, limit, factor=k)
            assert scaled == {p: k * n for p, n in product.items()}
            # added into a shared table: k times the product cancels
            # against -k times it, term by term
            out = {p: -k * n for p, n in product.items()}
            assert mul_terms(a, b, limit, out, k) is out
            assert out == {}
            base = random_table(rng, dims, arity, 3, 4)
            out = dict(base)
            mul_terms(a, b, limit, out, k)
            assert out == ref_add(base, scaled)
            assert all(out.values())


def random_member(rng, kind, dims, order, arity, unit=False):
    """A coefficient of the kind, or a series of shape (dims, order) with
    coefficients over Q[a_1..a_arity] (Q when arity is 0), with random
    denominators and, one time in six, zero; a `unit` series has a nonzero
    constant term."""
    if rng.random() < 1 / 6:
        return {"int": 0, "Fraction": Fraction(0),
                "Polynomial": Polynomial.zero(max(arity, 1)),
                "series": TruncatedSeries.zero(dims, order)}[kind]
    if kind == "int":
        return rng.choice((-3, -1, 1, 2, 5))
    if kind == "Fraction":
        return Fraction(rng.choice((-5, -1, 1, 3)), rng.choice((2, 3, 4, 9)))
    if kind == "Polynomial":
        x = Polynomial.variable(rng.randrange(max(arity, 1)), max(arity, 1))
        return x * Fraction(rng.randint(1, 3), rng.randint(1, 4)) \
            + rng.randint(-1, 1)
    coeffs = {}
    for mono in graded_monomials(dims, order):
        if rng.random() < 0.5:
            c = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))
            if arity and rng.random() < 0.5:
                c = c + Polynomial.variable(rng.randrange(arity), arity)
            coeffs[mono] = c
    if unit:
        coeffs[(0,) * dims] = Fraction(rng.choice((-2, 1, 3)), 2)
    return TruncatedSeries(dims, order, coeffs)


def stored(s):
    return s._table, s._den, s._arity


def ring_of(c):
    """The number of coefficient variables a member of a pair brings in: a
    Polynomial's, a series' stored ones, none for a rational."""
    return c.arity if isinstance(c, Polynomial) else getattr(c, "_arity", 0)


def test_combination_stored_form_matches_the_reference(monkeypatch):
    # the expected coefficients come from the Fraction references on
    # `.coeffs`, apart from the kernel that `scale`, `*` and `+` share with
    # `combination`; the stored form in lowest terms is then fixed by the
    # value and the ring, which a term brings in when its product survives
    products = []
    original = series_module.mul_terms

    def recording(a, b, limit=None, out=None, factor=1):
        products.append((a, b, factor))
        return original(a, b, limit, out, factor)

    monkeypatch.setattr(series_module, "mul_terms", recording)
    rng = random.Random(23)
    kinds = ("int", "Fraction", "Polynomial", "series")
    seen = set()
    swapped = 0
    for case in range(240):
        dims, order = rng.randint(1, 2), rng.randint(0, 3)
        # Polynomial coefficients bring in Q[a_1, a_2]
        arity = 2 if case % 3 == 0 else 0
        pairs = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(kinds if arity else kinds[:2] + kinds[3:])
            pairs.append((random_member(rng, kind, dims, order, arity),
                          random_member(rng, "series", dims, order, arity)))
            seen.add(kind)
        # a one-term series coefficient on a longer series, next to a term
        # of another denominator: the product's share of the common
        # denominator is not 1 and the coefficient is the smaller table
        if case % 5 == 0:
            a = random_member(rng, "series", dims, order, 0)
            if len(a._table) > 1:
                c = TruncatedSeries(dims, order,
                                    {(0,) * dims: Fraction(2, 7)})
                pairs += [(c, a), (Fraction(1, 5), a)]
        del products[:]
        result = TruncatedSeries.combination(dims, order, pairs)
        expected, ring = {}, 0
        for c, a in pairs:
            product = cut(ref_mul(c.coeffs if isinstance(c, TruncatedSeries)
                                  else {(0,) * dims: c}, a.coeffs), order)
            expected = ref_add(expected, product)
            if product:
                ring = max(ring, ring_of(c), ring_of(a))
        assert result.coeffs == expected, case
        assert_stored_form(result)
        assert result._arity == (ring if expected else 0), case
        swapped += any(factor != 1 and any(
            type(c) is TruncatedSeries and first is c._table
            and len(c._table) < len(a._table) for c, a in pairs)
            for first, _, factor in products)
        # the same terms negated cancel to zero, over whatever denominator
        cancelled = TruncatedSeries.combination(
            dims, order, pairs + [(-c, a) for c, a in pairs])
        assert stored(cancelled) == ({}, 1, 0)
    assert seen == set(kinds) and swapped
    assert stored(TruncatedSeries.combination(2, 1, [])) == ({}, 1, 0)
    assert stored(TruncatedSeries.combination(2, 1, iter([]))) == ({}, 1, 0)
    # a full cancellation over the denominator 6
    x = TruncatedSeries(1, 2, {(1,): Fraction(1, 6), (2,): Fraction(5, 2)})
    half = TruncatedSeries(1, 2, {(0,): Fraction(1, 2)})
    assert x._den == 6
    for pairs in ([(1, x), (Fraction(-1), x)],
                  [(half, x), (Fraction(-1, 2), x)],
                  [(2, x), (-1, x), (Fraction(-1, 1), x)]):
        assert stored(TruncatedSeries.combination(1, 2, pairs)) \
            == ({}, 1, 0)


def test_a_product_cut_to_nothing_brings_no_ring():
    """A term over Q[a_1, a_2] whose product is cut at the order adds
    nothing, so the sum of the rational terms stays rational, as `*` then
    `+` leaves it."""
    a1 = Polynomial.variable(0, 2)
    c = TruncatedSeries(1, 3, {(1,): Fraction(-1, 3), (2,): 2 + a1})
    a = TruncatedSeries(1, 3, {(3,): Fraction(-1, 6)})
    b = TruncatedSeries(1, 3, {(0,): Fraction(-3, 2), (2,): Fraction(-3, 2)})
    pairs = [(c, a), (TruncatedSeries.const(Fraction(2, 7), 1, 3), b),
             (Fraction(1, 5), b)]
    result = TruncatedSeries.combination(1, 3, pairs)
    decoded = {decode(p, 1): n for p, n in result._table.items()}
    assert (decoded, result._den, result._arity) == (
        {(0,): -51, (2,): -51}, 70, 0)
    assert stored(result) == stored(reference_combination(1, 3, pairs))
    # a product that survives keeps the ring
    kept = TruncatedSeries.combination(1, 3, pairs + [(c, b)])
    assert kept._arity == 2
    assert kept == reference_combination(1, 3, pairs + [(c, b)])


def generic_series(rng, dims, order, lowest):
    """A series over Q[a_1, a_2] with terms of t-degree lowest..order only,
    one of them with a non-constant coefficient."""
    a = [Polynomial.variable(i, 2) for i in range(2)]
    monos = [p for p in graded_monomials(dims, order) if sum(p) >= lowest]
    coeffs = {p: Fraction(rng.randint(-4, 4), rng.randint(1, 6))
              + rng.randint(-2, 2) * rng.choice(a) for p in monos}
    coeffs[rng.choice(monos)] = rng.choice(a) * Fraction(
        rng.choice((-3, 1, 2)), rng.randint(1, 5)) + rng.randint(-1, 1)
    return TruncatedSeries(dims, order, coeffs)


def test_every_zero_result_is_stored_as_the_rational_zero():
    """A zero series is rational whatever route made it, so that a later
    sum with a rational series pads nothing: the stored form of every zero
    result over Q[a_1, a_2] is ({}, 1, 0)."""
    rng = random.Random(37)
    zero_poly = Polynomial.zero(2)
    for _ in range(30):
        dims, order = rng.randint(1, 2), rng.randint(1, 4)
        lowest = rng.randint(1, order)
        g = generic_series(rng, dims, order, lowest)
        assert g._arity == 2
        constant = generic_series(rng, dims, 0, 0).zero_extended(order)
        p = Polynomial.variable(rng.randrange(2), 2) + Fraction(1, 3)
        zeros = [g - g, g + (-g), g.scale(0), g.scale(Fraction(0)), g * 0,
                 g * TruncatedSeries.zero(dims, order), g.scale(zero_poly),
                 g.restrict(lowest - 1),
                 *(constant.derive(i) for i in range(dims)),
                 TruncatedSeries.combination(dims, order,
                                             [(p, g), (-p, g)]),
                 TruncatedSeries.combination(dims, order,
                                             [(g, g), (-1, g * g)])]
        if 2 * lowest > order:
            zeros += [g ** 2, g * g]
        for z in zeros:
            assert z.dims == dims
            assert stored(z) == ({}, 1, 0)
            # and a sum with a rational series stays rational
            x = TruncatedSeries(dims, z.order, {(0,) * dims: Fraction(1, 2)})
            assert stored(z + x) == stored(x)


def test_generic_operands_of_different_arities_do_not_mix():
    x = TruncatedSeries(1, 2, {(1,): Polynomial.variable(0, 2)})
    y = TruncatedSeries(1, 2, {(0,): Polynomial.variable(0, 3)})
    for op in (lambda: x + y, lambda: x * y, lambda: x.scale(
            Polynomial.variable(1, 3))):
        with pytest.raises(ArityMismatch):
            op()
    with pytest.raises(ArityMismatch):
        TruncatedSeries(1, 2, {(0,): Polynomial.variable(0, 2),
                               (1,): Polynomial.variable(0, 3)})
    assert x != y


def test_direct_jet_expansion_makes_no_polynomial_product(monkeypatch):
    cubic = Polynomial(3, {q: Fraction(len(q) + sum(q), 1 + q[0])
                           for q in graded_monomials(3, 3)})
    sigma = generic_jet(3, 2, 4)
    products = []
    for name in ("__mul__", "__rmul__"):
        original = getattr(Polynomial, name)

        def counting(self, other, original=original):
            products.append(other)
            return original(self, other)

        monkeypatch.setattr(Polynomial, name, counting)
    expansion = series_compose(cubic, sigma)
    assert products == []
    assert expansion._arity == 3 * 15


def test_sparse_product_at_high_order():
    a = TruncatedSeries(2, 400, {(0, 0): 1, (7, 0): Fraction(1, 3)})
    b = TruncatedSeries(2, 400, {(0, 0): 2, (0, 390): Fraction(-5, 2)})
    product = a * b
    assert product.coeffs == {(0, 0): 2, (0, 390): Fraction(-5, 2),
                              (7, 0): Fraction(2, 3),
                              (7, 390): Fraction(-5, 6)}
    assert_integer_form(product)


def test_constant_coefficients_read_as_fractions():
    x = Polynomial.variable(0, 2)
    s = TruncatedSeries(1, 2, {(0,): Fraction(1, 2), (1,): x,
                               (2,): Polynomial.const(3, 2)})
    assert s._arity == 2
    for c in (s.constant_term(), s.coefficient((2,)), s.coeffs[(0,)],
              s.homogeneous(2)[(2,)], (s * s).constant_term()):
        assert type(c) is Fraction
    assert s.coefficient((1,)) == x
    assert JetPoint([s]).basepoint() == (Fraction(1, 2),)
    assert s.to_string() == "1/2 + 1*x1^1 * t1^1 + 3 * t1^2"
    assert s * s.invert_unit() == TruncatedSeries.one(1, 2)
    assert isinstance((s + x).constant_term(), Polynomial)
    with pytest.raises(NotAUnit):
        (s + x).invert_unit()


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
    assert squared.coeffs == cut(ref_pow(fs, 2, 2), 3)
    assert_integer_form(squared)
    assert text == ref_text(fs, ["t1", "t2"], " * ")
    assert composed == ref_evaluate_in(fs, list(jet.offsets()),
                                       TruncatedSeries.one(1, 3))


def test_mixed_rational_and_generic_arithmetic_keeps_no_fractions():
    terms = {(0,): Fraction(1, 3), (1,): 2}
    a = TruncatedSeries(1, 3, terms)
    poly = Polynomial.variable(0, 2) + Fraction(1, 2)
    g = TruncatedSeries(1, 3, {(0,): poly, (2,): Fraction(3, 4)})
    fa = {p: Fraction(c) for p, c in terms.items()}
    # the same coefficients as constant polynomials: a generic series
    lifted = TruncatedSeries(1, 3, {p: Polynomial.const(c, 2)
                                    for p, c in fa.items()})
    left, right, total = a * g, g * a, a + g
    unequal, equal = a == g, a == lifted
    assert not hasattr(a, "_coeffs")
    assert left == right
    assert left.coeffs == cut(ref_mul(fa, g.coeffs), 3)
    assert total.coeffs == ref_add(fa, g.coeffs)
    assert not unequal and equal


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


def ref_evaluate_in(a, values, one):
    """sum c * prod(values[i] ** e) over any ring with identity `one`."""
    total = one * 0
    for p, c in a.items():
        term = one * c
        for x, e in zip(values, p):
            for _ in range(e):
                term = term * x
        total = total + term
    return total


def ref_text(a, names, times):
    """Canonical text: terms by ascending `monomial_key`, 'c<times>x^e*...'
    joined by ' + ', or '0'."""
    parts = []
    for p in sorted(a, key=monomial_key):
        c = a[p].to_string() if isinstance(a[p], Polynomial) else str(a[p])
        factors = "*".join(f"{n}^{e}" for n, e in zip(names, p) if e)
        parts.append(f"{c}{times}{factors}" if factors else c)
    return " + ".join(parts) or "0"


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
        (Polynomial.from_string(a.to_string(), default_names(a.arity, "x")),
         a),
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


def decoded_poly(p):
    return {decode(k, p.arity): n for k, n in p._table.items()}, p._den


def test_product_with_a_scalar_scales_the_stored_form():
    p = Polynomial(2, {(1, 0): Fraction(2, 3), (0, 0): 4})
    assert decoded_poly(p) == ({(1, 0): 2, (0, 0): 12}, 3)
    assert decoded_poly(p * 3) == ({(1, 0): 2, (0, 0): 12}, 1)
    half = p * Fraction(1, 2)
    assert decoded_poly(half) == ({(1, 0): 1, (0, 0): 6}, 3)
    assert (p * 0).is_zero() and (p * 0)._den == 1


# -- the packed kernel against a tuple-keyed reference ---------------------------

def pack_entry(entry, arity):
    """The series key of (t-exponent, a-exponent) over Q[a_1..a_arity]."""
    t, a = entry
    return encode(t) << BITS * (arity + 1) | encode(a) if arity else encode(t)


def ref_entry_mul(a, b, order=None):
    """The product of tables keyed by (t-exponent, a-exponent), without the
    terms of t-degree above `order` (none cut when it is None)."""
    out = {}
    for (t, e), c in a.items():
        for (u, f), d in b.items():
            tu = tuple(x + y for x, y in zip(t, u))
            if order is None or sum(tu) <= order:
                key = (tu, tuple(x + y for x, y in zip(e, f)))
                out[key] = out.get(key, 0) + c * d
    return {k: n for k, n in out.items() if n}


@st.composite
def packed_operands(draw):
    dims = draw(st.integers(1, 2))
    arity = draw(st.integers(0, 2))
    order = draw(st.integers(0, 3))
    # t-exponents reach the order, so some products land exactly on it
    entry = st.tuples(exponents(dims, order), exponents(arity, 2))
    tables = [draw(st.dictionaries(entry, st.integers(-3, 3).filter(bool),
                                   max_size=5)) for _ in range(3)]
    target = draw(st.integers(1, 3))
    index_map = draw(st.lists(st.integers(0, target - 1),
                              min_size=dims + arity, max_size=dims + arity))
    return (dims, arity, order, tables, draw(st.sampled_from((1, -1, 3))),
            draw(st.integers(0, 3)), draw(st.integers(0, dims - 1)),
            draw(st.integers(0, order)), target, index_map)


@SETTINGS
@given(packed_operands())
def test_packed_kernel_matches_the_tuple_reference(operands):
    (dims, arity, order, tables, factor, power, index, lower, target,
     index_map) = operands
    a, b, c = tables
    pa, pb, pc = ({pack_entry(k, arity): n for k, n in t.items()}
                  for t in tables)

    def unpacked(table):
        return {decode_series(k, dims, arity): n for k, n in table.items()}

    # products cut on the whole key (arity 0) or on its t-part only
    limit = series_limit(order, dims, arity)
    assert unpacked(mul_terms(pa, pb, limit)) == ref_entry_mul(a, b, order)
    assert unpacked(mul_terms(pa, pb)) == ref_entry_mul(a, b)
    scaled = {k: factor * n for k, n in ref_entry_mul(a, b, order).items()}
    out = dict(pc)
    assert mul_terms(pa, pb, limit, out, factor) is out
    assert unpacked(out) == ref_add(c, scaled)
    expected = {((0,) * dims, (0,) * arity): 1}
    for _ in range(power):
        expected = ref_entry_mul(expected, a, order)
    assert unpacked(pow_terms(pa, power, limit)) == expected
    assert unpacked(derive_terms(pa, index, dims, BITS * (arity + 1)
                                 if arity else 0)) == {
        (t[:index] + (t[index] - 1,) + t[index + 1:], e): n * t[index]
        for (t, e), n in a.items() if t[index]}

    # the same table as a polynomial in dims + arity variables
    terms = {t + e: Fraction(n, 2) for (t, e), n in a.items()}
    poly = Polynomial(dims + arity, terms)
    assert_canonical_poly(poly)
    assert poly.terms == terms
    assert poly.to_string() == ref_text(
        terms, default_names(dims + arity, "x"), "*")
    if terms:
        top = max(terms, key=monomial_key)
        assert poly.leading() == (top, terms[top])
        assert poly.degree() == sum(top)
    # every monomial up to degree 2: ties in the top degree
    mons = graded_monomials(dims + arity, 2)
    full = Polynomial(dims + arity, {q: i + 1 for i, q in enumerate(mons)})
    assert full.leading() == (mons[-1], len(mons))
    assert full.to_string() == ref_text(
        full.terms, default_names(dims + arity, "x"), "*")
    renamed = poly.rename_into(target, index_map)
    assert_canonical_poly(renamed)
    assert renamed.terms == ref_rename(terms, target, index_map)

    # and as a series over Q[a_1..a_arity], cut at the order
    coeffs = {}
    for (t, e), n in a.items():
        if sum(t) <= order:
            coeffs[t] = coeffs.get(t, 0) + (
                Polynomial(arity, {e: n}) if arity else Fraction(n))
    s = TruncatedSeries(dims, order, coeffs)
    assert_stored_form(s)
    reference = as_polynomials(coeffs, arity, order) if arity else cut(
        coeffs, order)
    assert s.coeffs == reference
    parts = s.graded_parts()
    for degree, part in enumerate(parts):
        assert_stored_form(part)
        assert part.coeffs == {p: x for p, x in reference.items()
                               if sum(p) == degree}
    assert s.restrict(lower).coeffs == cut(reference, lower)
    assert_stored_form(s.restrict(lower))
    # a rational series padded to Q[a_1..a_arity] by the sum, and lifted
    rational = TruncatedSeries(dims, order, {t: Fraction(n, 3)
                                             for (t, _), n in b.items()})
    total = rational + s
    assert total.coeffs == ref_add(rational.coeffs, reference)
    assert_stored_form(total)
    if arity:
        lifted = TruncatedSeries(dims, order, {
            p: Polynomial.const(x, arity) for p, x in rational.coeffs.items()})
        assert lifted == rational and hash(lifted) == hash(rational)
        assert all(decode_series(k, dims, arity)[1] == (0,) * arity
                   for k in lifted._table)
    assert s.to_string() == ref_text(reference, default_names(dims, "t"),
                                     " * ")
