import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import jetforge.poly as poly_module
import jetforge.ratfunc as ratfunc
from jetforge import linalg
from jetforge.errors import ArityMismatch, InputError
from jetforge.poly import (BITS, BOUND, Polynomial, graded_monomials,
                          monomial_key, taylor_shift, univ_lcm)
from jetforge.ratfunc import RationalFunction
from jetforge.series import TruncatedSeries


def rand_poly(rng, arity, degree):
    terms = {}
    for mono in graded_monomials(arity, degree):
        if rng.random() < 0.6:
            terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(arity, terms)


def test_zero_pruning():
    p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): 2})
    assert p.terms == {(0, 1): Fraction(2)}


def test_arithmetic_basics():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1


def test_ring_axioms_randomized():
    rng = random.Random(9)
    for _ in range(30):
        arity = rng.randint(1, 3)
        a, b, c = (rand_poly(rng, arity, 2) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c


def test_derivative():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    p = x ** 2 * y + 3 * y
    assert p.derivative(0) == 2 * x * y
    assert p.derivative(1) == x ** 2 + 3


def test_evaluate():
    p = Polynomial(2, {(2, 0): 1, (0, 1): -1})
    assert p.evaluate((Fraction(3), Fraction(4))) == 5
    with pytest.raises(ArityMismatch):
        p.evaluate((1,))


def rational_points(rng, arity):
    """Points with zero, negative and non-integer coordinates."""
    return [tuple(rng.choice((0, rng.randint(-3, 3),
                              Fraction(rng.randint(-5, 5), rng.randint(2, 4))))
                  for _ in range(arity)) for _ in range(6)]


def test_evaluate_sums_in_integers_as_evaluate_in_does_over_fractions():
    rng = random.Random(17)
    for case in range(60):
        arity = 1 + case % 3
        p = rand_poly(rng, arity, rng.randint(0, 4))
        for point in rational_points(rng, arity):
            value = p.evaluate(point)
            assert type(value) is Fraction
            assert value == p.evaluate_in([Fraction(x) for x in point],
                                          Fraction(1)), (p, point)
    with pytest.raises(TypeError):
        Polynomial.variable(0, 1).evaluate((0.5,))


def test_a_rational_function_over_one_is_its_numerator_value():
    p = Polynomial(2, {(2, 0): Fraction(1, 3), (0, 1): -1})
    assert RationalFunction(p).evaluate((Fraction(1, 2), 2)) \
        == p.evaluate((Fraction(1, 2), 2)) == Fraction(-23, 12)


def taylor_reference(f, point, order):
    """The Taylor coefficients of f at the point through the order, as
    partials over factorials: the reference for `taylor_shift`."""
    out = {}
    for b in graded_monomials(f.arity, order):
        g = f
        for i, e in enumerate(b):
            for _ in range(e):
                g = g.derivative(i)
        c = g.evaluate(point) / math.prod(map(math.factorial, b))
        if c:
            out[b] = c
    return out


def test_taylor_shift_gives_the_taylor_coefficients_of_products():
    rng = random.Random(29)
    for case in range(40):
        arity = 1 + case % 3
        factors = [rand_poly(rng, arity, rng.randint(0, 3))
                   for _ in range(rng.randint(0, 3))]
        factors = [f for f in factors if f]
        single = rand_poly(rng, arity, 4) or Polynomial.const(1, arity)
        # a repeated factor is shifted once and counted twice
        products = [factors, (single,), (single, *factors, single)]
        for point in rational_points(rng, arity)[:3]:
            order = rng.randint(0, 4)
            den, tables = taylor_shift(products, point, order)
            assert den > 0 and all(map(all, (t.values() for t in tables)))
            assert math.gcd(den, *(c for t in tables
                                   for c in t.values())) == 1
            for factors_k, table in zip(products, tables):
                product = math.prod(factors_k,
                                    start=Polynomial.const(1, arity))
                assert {b: Fraction(c, den) for b, c in table.items()} \
                    == taylor_reference(product, point, order)
    assert taylor_shift([()], (Fraction(1, 2),), 3) == (1, [{(0,): 1}])


def test_normalized_clears_denominators_and_content():
    p = Polynomial(1, {(2,): Fraction(-4), (1,): Fraction(4), (0,): Fraction(-8)})
    n = p.normalized()
    assert n == Polynomial(1, {(2,): 1, (1,): -1, (0,): 2})
    q = Polynomial(1, {(1,): Fraction(1, 2), (0,): Fraction(-1, 4)})
    assert q.normalized() == Polynomial(1, {(1,): 2, (0,): -1})
    assert Polynomial.zero(3).normalized().is_zero()


def test_normalized_is_scale_invariant():
    rng = random.Random(13)
    for _ in range(25):
        p = rand_poly(rng, 2, 3)
        if p.is_zero():
            continue
        scale = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        assert (p * scale).normalized() == p.normalized()
        assert (p * -scale).normalized() == p.normalized()


def test_monomial_key_order():
    mons = graded_monomials(2, 2)
    assert mons == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert monomial_key((1, 0)) < monomial_key((0, 1))


def test_graded_monomials_are_all_exponents_within_the_degree():
    for arity in range(4):
        for degree in range(5):
            box = [p for p in itertools.product(range(degree + 1),
                                                repeat=arity)
                   if sum(p) <= degree]
            assert graded_monomials(arity, degree) == \
                sorted(box, key=monomial_key)
    # the list follows the output: C(14, 2) exponents, not 3^12
    assert len(graded_monomials(12, 2)) == math.comb(14, 2)


def test_string_round_trip():
    rng = random.Random(21)
    names = ["x", "y", "z"]
    for _ in range(25):
        arity = rng.randint(1, 3)
        p = rand_poly(rng, arity, 3)
        text = p.to_string(names[:arity])
        assert Polynomial.from_string(text, names[:arity]) == p


def test_tolerant_parsing():
    p = Polynomial.from_string("x^2 + y^2 - 1", ["x", "y"])
    assert p == Polynomial(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    q = Polynomial.from_string("2*x*y - 3/4", ["x", "y"])
    assert q == Polynomial(2, {(1, 1): 2, (0, 0): Fraction(-3, 4)})


def test_parse_errors():
    with pytest.raises(InputError):
        Polynomial.from_string("w + 1", ["x"])
    with pytest.raises(InputError):
        Polynomial.from_string("1/0", ["x"])


def test_rename_into():
    p = Polynomial(2, {(1, 1): 2, (2, 0): 1})
    q = p.rename_into(4, [3, 1])
    assert q == Polynomial(4, {(0, 1, 0, 1): 2, (0, 0, 0, 2): 1})


def test_variable_name_ending_in_e():
    names = ["xe", "y"]
    p = Polynomial.from_string("xe-y", names)
    assert p == Polynomial(2, {(1, 0): 1, (0, 1): -1})
    assert Polynomial.from_string(p.to_string(names), names) == p


def test_decimal_exponent_in_coefficient():
    p = Polynomial.from_string("1e-3*x - 2.5E+1", ["x"])
    assert p == Polynomial(1, {(1,): Fraction(1, 1000), (0,): -25})


@pytest.mark.parametrize("text", ["x^2.5", "x^", "x^-2", "x -", "2x", "x y",
                                  "(x)", "x**2", 5])
def test_malformed_text(text):
    with pytest.raises(InputError):
        Polynomial.from_string(text, ["x", "y"])


def test_repeated_variable_names():
    with pytest.raises(InputError):
        Polynomial.from_string("x^2 - 1", ["x", "x"])


def test_float_exponent_is_refused():
    with pytest.raises(TypeError):
        Polynomial(1, {(1.5,): 1})
    with pytest.raises(TypeError):
        TruncatedSeries(1, 3, {(1.0,): 1})


def test_negation_keeps_the_reduced_pair(monkeypatch):
    rng = random.Random(17)
    functions = []
    for arity in (1, 1, 1, 2, 2, 3):
        for _ in range(6):
            den = rand_poly(rng, arity, 2)
            if not den.is_zero():
                functions.append(RationalFunction(rand_poly(rng, arity, 3),
                                                  den))
    assert any(f.arity == 1 and f.den.degree() > 0 for f in functions)

    def refuse(a, b):
        raise AssertionError("negation took a gcd")

    expected = [RationalFunction(-f.num, f.den) for f in functions]
    monkeypatch.setattr(ratfunc, "_univ_gcd", refuse)
    for f, want in zip(functions, expected):
        neg = -f
        assert (neg.num, neg.den) == (want.num, want.den)


def test_constant_one_denominator_is_not_normalized(monkeypatch):
    rng = random.Random(23)
    numerators = [rand_poly(rng, arity, 3) for arity in (1, 2, 3)
                  for _ in range(8)]
    # the pair the general normalization makes of (num, 1)
    expected = []
    for num in numerators:
        one = Polynomial.const(1, num.arity)
        dnorm = one.normalized()
        expected.append((num * (dnorm.leading()[1] / one.leading()[1]),
                         dnorm))

    def refuse(self):
        raise AssertionError("a constant-1 denominator was normalized")

    monkeypatch.setattr(Polynomial, "normalized", refuse)
    for num, want in zip(numerators, expected):
        for f in (RationalFunction(num),
                  RationalFunction(num, Polynomial.const(1, num.arity))):
            assert (f.num, f.den) == want
            assert f.num._table == want[0]._table
            assert f.num._den == want[0]._den


def count_products(monkeypatch):
    """Count the calls of `Polynomial.__mul__` from now on."""
    calls = []
    original = Polynomial.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    return calls


def test_constant_one_denominators_make_no_products(monkeypatch):
    # the 2x2 determinant of symbolic initial data: over Polynomials it
    # makes two products, and lifted to rational functions, whose
    # denominators are all 1, it makes no more
    x = [Polynomial.variable(i, 4) for i in range(4)]
    lifted = [[RationalFunction(x[0]), RationalFunction(x[1])],
              [RationalFunction(x[2]), RationalFunction(x[3])]]
    calls = count_products(monkeypatch)
    result = linalg.det(lifted)
    assert len(calls) == 2
    assert result.num == x[0] * x[3] - x[1] * x[2]
    assert result.den == Polynomial.const(1, 4)


rational_coefficients = st.builds(Fraction, st.integers(-4, 4),
                                  st.integers(1, 3))


@st.composite
def rational_function_pairs(draw):
    arity = draw(st.integers(1, 2))

    def poly(top):
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, top)] * arity),
                                     rational_coefficients, max_size=4))
        return Polynomial(arity, terms)

    def function():
        num = poly(2)
        den = poly(1) if draw(st.booleans()) else Polynomial.const(1, arity)
        return RationalFunction(num, den if den else
                                Polynomial.const(1, arity))

    return function(), function()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(rational_function_pairs())
def test_constant_one_denominators_give_the_general_result(pair):
    # the general path multiplies by every denominator, 1 or not
    a, b = pair

    def general_sum(f, g):
        return RationalFunction(f.num * g.den + g.num * f.den, f.den * g.den)

    general_product = RationalFunction(a.num * b.num, a.den * b.den)
    for result, want in ((a + b, general_sum(a, b)),
                         (a - b, general_sum(a, -b)),
                         (a * b, general_product)):
        assert (result.num, result.den) == (want.num, want.den)
        assert result.num._den == want.num._den
        assert result.den._den == want.den._den


def test_equality_is_the_cross_multiplied_comparison(monkeypatch):
    # equal denominators compare numerators with no product; other pairs,
    # such as one value in two multivariate forms, which no gcd reduces,
    # still cross-multiply
    rng = random.Random(31)
    pairs = []
    for _ in range(60):
        arity = rng.randint(1, 3)
        num, other = rand_poly(rng, arity, 2), rand_poly(rng, arity, 2)
        den = rand_poly(rng, arity, 1) or Polynomial.const(1, arity)
        factor = rand_poly(rng, arity, 1) or Polynomial.const(2, arity)
        f = RationalFunction(num, den)
        pairs += [(f, RationalFunction(num * factor, den * factor)),
                  (f, RationalFunction(num, den)),
                  (f, RationalFunction(num + other, den)),
                  (f, RationalFunction(other, den * factor)),
                  (f, f.num.constant_term()), (f, f.num)]
    expected = [f.num * g.den == g.num * f.den for f, g in
                ((f, f._coerce(g)) for f, g in pairs)]
    assert any(expected) and not all(expected)
    assert any(want and f.den != g.den and f.arity > 1 for (f, g), want
               in zip(pairs, expected) if isinstance(g, RationalFunction))
    calls = count_products(monkeypatch)
    for (f, g), want in zip(pairs, expected):
        del calls[:]
        assert (f == g) is want and (g == f) is want
        if f.den == f._coerce(g).den:
            assert not calls


class TestExponentBound:
    """Every total degree, and so every exponent, stays below BOUND: below
    it arithmetic is exact, and input or a result that reaches it raises
    InputError rather than carrying into the next field of a packed key."""

    HALF = BOUND // 2

    def test_the_bound_leaves_a_field_room_for_a_sum(self):
        assert BOUND == 2 ** 19 == 1 << BITS - 1
        assert 200000 < BOUND

    def test_products_just_below_the_bound_are_exact(self):
        x = Polynomial(2, {(self.HALF, 0): 3, (0, 1): 1})
        y = Polynomial(2, {(self.HALF - 1, 0): 2})
        assert (x * y).terms == {(BOUND - 1, 0): 6, (self.HALF - 1, 1): 2}
        assert Polynomial(1, {(self.HALF - 1,): 1}) ** 2 == Polynomial(
            1, {(BOUND - 2,): 1})
        # a full field next to another: no carry between them
        z = Polynomial(2, {(BOUND - 2, 1): 1}).derivative(1)
        assert z.terms == {(BOUND - 2, 0): 1}
        assert Polynomial(2, {(BOUND - 1, 0): 1}).rename_into(
            3, [2, 0]).terms == {(0, 0, BOUND - 1): 1}
        series = TruncatedSeries(1, 2, {(1,): Polynomial(1, {(
            self.HALF,): 1})})
        other = TruncatedSeries(1, 2, {(1,): Polynomial(1, {(
            self.HALF - 1,): 1})})
        assert (series * other).coeffs == {
            (2,): Polynomial(1, {(BOUND - 1,): 1})}
        assert series.scale(Polynomial(1, {(self.HALF - 1,): 1})).coeffs \
            == {(1,): Polynomial(1, {(BOUND - 1,): 1})}

    def test_products_and_powers_at_the_bound_raise(self):
        x = Polynomial(2, {(self.HALF, 0): 1, (0, 0): 1})
        with pytest.raises(InputError):
            x * x
        with pytest.raises(InputError):
            x ** 2
        with pytest.raises(InputError):
            x * Polynomial(2, {(0, self.HALF): 1})
        a = Polynomial(1, {(self.HALF,): 1})
        series = TruncatedSeries(1, 2, {(0,): a, (1,): 1})
        for make in (lambda: series * series, lambda: series ** 2,
                     lambda: series.scale(a), lambda: a * series,
                     lambda: TruncatedSeries.combination(
                         1, 2, [(series, series)]),
                     lambda: TruncatedSeries.combination(1, 2, [(a, series)])):
            with pytest.raises(InputError):
                make()

    def test_input_at_the_bound_raises(self):
        for terms in ({(BOUND,): 1}, {(BOUND, 0): 1},
                      {(self.HALF, self.HALF): 1}):
            with pytest.raises(InputError):
                Polynomial(len(next(iter(terms))), terms)
        with pytest.raises(InputError):
            Polynomial.from_string(f"x1^{BOUND} - 1", ["x1"])
        with pytest.raises(InputError):
            Polynomial.from_string(f"x1^{self.HALF}*x1^{self.HALF}", ["x1"])
        with pytest.raises(InputError):
            TruncatedSeries(1, 2, {(BOUND,): 1})
        assert Polynomial.from_string(f"x1^{BOUND - 1}", ["x1"]).degree() \
            == BOUND - 1

    def test_series_orders_stay_below_the_bound(self):
        # every t-degree is at most the order, so a product of two terms
        # below it cannot carry out of the t-degree field
        top = TruncatedSeries(1, BOUND - 1, {(self.HALF,): 1})
        assert (top * top).coeffs == {}
        low = TruncatedSeries(1, BOUND - 1, {(self.HALF - 1,): 1})
        assert (low ** 2).coeffs == {(BOUND - 2,): 1}
        assert (low ** 2).homogeneous(BOUND - 2) == {(BOUND - 2,): 1}
        for make in (lambda: TruncatedSeries(1, BOUND, {(1,): 1}),
                     lambda: TruncatedSeries.zero(1, BOUND),
                     lambda: TruncatedSeries.const(1, 1, BOUND),
                     lambda: TruncatedSeries.variable(0, 1, BOUND),
                     lambda: TruncatedSeries.from_string("t1", 1, BOUND),
                     lambda: TruncatedSeries.combination(1, BOUND, []),
                     lambda: low.zero_extended(BOUND),
                     lambda: TruncatedSeries(1, 2 ** 21, {(400000,): 1})):
            with pytest.raises(InputError):
                make()


# -- polynomial text ----------------------------------------------------------

NAME_SETS = [["x", "y", "z"], ["xe", "ye", "e"], ["x1", "x2", "x3"],
             ["lambda", "mu_e", "nu"]]
BLANKS = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def number_text(draw, value):
    """Text of the Fraction |value| >= 0 as one or two number factors:
    p/q, a decimal point or a decimal exponent, times 10^k/q or 1/q where
    that form needs it."""
    p, q = abs(value.numerator), value.denominator
    form = draw(st.sampled_from(["fraction", "decimal", "exponent"]))
    k = draw(st.integers(1, 3))
    if form == "fraction":
        return str(p) if q == 1 and draw(st.booleans()) else f"{p}/{q}"
    if form == "decimal":
        whole, part = divmod(p, 10 ** k)
        lead = "" if not whole and draw(st.booleans()) else str(whole)
        return f"{lead}.{part:0{k}d}*{10 ** k}/{q}"
    e = draw(st.sampled_from("eE"))
    if draw(st.booleans()):
        return f"{p}{e}{draw(st.sampled_from(['', '+']))}{k}*1/{q * 10 ** k}"
    return f"{p}{e}-{k}*{10 ** k}/{q}"


@st.composite
def term_text(draw, expo, value, names):
    """One term's factors in any order: its number (left out when it is 1
    and a variable follows) and each variable as 'x^e', 'x' for x^1, or
    split into repeated factors."""
    factors = []
    for name, e in zip(names, expo):
        while e:
            part = draw(st.integers(1, e))
            factors.append(name if part == 1 and draw(st.booleans())
                           else f"{name}^{part}")
            e -= part
    if abs(value) != 1 or not factors or draw(st.booleans()):
        factors.append(draw(number_text(value)))
    factors = draw(st.permutations(factors))
    return "".join(f + draw(BLANKS) + "*" + draw(BLANKS)
                   for f in factors[:-1]) + factors[-1]


@st.composite
def rendered_terms(draw):
    """(names, terms, text): a term list in 1-3 variables, repeats and
    zero coefficients allowed, and one rendering of it."""
    arity = draw(st.integers(1, 3))
    names = draw(st.sampled_from(NAME_SETS))[:arity]
    terms = draw(st.lists(st.tuples(
        st.tuples(*[st.integers(0, 3)] * arity),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 8))),
        max_size=5))
    if terms and draw(st.booleans()):
        terms.append(terms[0])
    text = draw(BLANKS)
    for k, (expo, value) in enumerate(terms):
        body = draw(term_text(expo, value, names))
        if value < 0:
            sep = draw(st.sampled_from(["-", "+ -", "+-"]))
        else:
            sep = "+" if k else draw(st.sampled_from(["", "+"]))
        text += sep + draw(BLANKS) + body + draw(BLANKS)
    return names, terms, text


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rendered_terms())
def test_every_rendering_parses_to_the_stored_form(case):
    names, terms, text = case
    summed = {}
    for expo, value in terms:
        summed[expo] = summed.get(expo, 0) + value
    want = Polynomial(len(names), summed)
    for source in (text, want.to_string(names)):
        got = Polynomial.from_string(source, names)
        assert (got.arity, got._table, got._den) == \
            (want.arity, want._table, want._den)


# the messages of refused text; the first of several errors is, in rank, an
# unexpected character, an empty term or factor, a bad factor or an exponent
# wider than a key's field, a degree at the bound
REFUSED = [
    ("x^2.5", "bad factor 'x^2.5'"),
    ("x^", "bad factor 'x^'"),
    ("x^-2", "bad factor 'x^'"),
    ("x -", "a '-' is not followed by a term"),
    ("2x", "bad coefficient '2x'"),
    ("x y", "bad factor 'xy'"),
    ("(x)", "unexpected character '('"),
    ("x**2", "empty factor in term 'x**2'"),
    (5, "expected polynomial text, got int"),
    ("1/0", "bad coefficient '1/0'"),
    ("w + 1", "unknown variable 'w'"),
    ("+ -", "a '-' is not followed by a term"),
    ("x*", "empty factor in term 'x*'"),
    ("x^3/4", "bad factor 'x^3/4'"),
    (f"x^{BOUND}", f"the total degree of ({BOUND}, 0) reaches the exponent "
                   "bound 2^19"),
    (f"x^{BOUND // 2}*y^{BOUND // 2}", f"the total degree of ({BOUND // 2}, "
                                       f"{BOUND // 2}) reaches the exponent "
                                       "bound 2^19"),
    ("1e1000000 * x", "the decimal exponent of '1e1000000' reaches the "
                      "exponent bound 2^19"),
    ("2x + y**2 + @", "unexpected character '@'"),
    ("x^2.5 + y**2", "empty factor in term 'y**2'"),
    (f"x^{BOUND} + 2x", "bad coefficient '2x'"),
    # more digits than int() reads: a traceback before
    ("x^" + "1" * 5000, "an exponent of 'x' reaches the exponent bound 2^19"),
    # exponents whose total has more digits than str() writes: a ValueError
    # while the message of the total degree was formatted
    ("x^" + "9" * 4300 + "*x^" + "9" * 4300,
     "an exponent of 'x' reaches the exponent bound 2^19"),
    (f"x^{1 << BITS} + 2x", "an exponent of 'x' reaches the exponent bound "
                           "2^19"),
    (f"x^{(1 << BITS) - 1}", f"the total degree of ({(1 << BITS) - 1}, 0) "
                             "reaches the exponent bound 2^19"),
]


@pytest.mark.parametrize("text, message", REFUSED)
def test_refused_text_keeps_its_message(text, message):
    with pytest.raises(InputError) as info:
        Polynomial.from_string(text, ["x", "y"])
    assert str(info.value) == message


def test_decimal_exponents_stay_below_the_bound():
    # the exponent is refused before Fraction forms 10^exponent
    for text in (f"1e{BOUND}", f"1E-{BOUND}", "2.5e+1_000_000",
                 "3.e" + "9" * 5000):
        with pytest.raises(InputError, match="exponent bound"):
            Polynomial.from_string(text, ["x"])
    assert Polynomial.from_string(f"1e{BOUND - 1}*x", ["x"]) == \
        Polynomial(1, {(1,): 10 ** (BOUND - 1)})
    assert Polynomial.from_string("1e-3 + 2.5E+1*x + .5e1_0", ["x"]) == \
        Polynomial(1, {(0,): Fraction(1, 1000) + 5 * 10 ** 9, (1,): 25})


# -- univariate division and gcd ----------------------------------------------

X = sympy.Symbol("x")


def to_sympy(p):
    return sympy.Poly(p.to_string(["x"]).replace("^", "**"), X, domain="QQ")


def from_sympy(p):
    return Polynomial(1, {(e,): Fraction(int(c.p), int(c.q)) for (e,), c in
                          p.as_dict().items()})


def univariate(coeffs):
    return Polynomial(1, {(e,): c for e, c in enumerate(coeffs)})


fractions_q = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
dense = st.lists(fractions_q, max_size=5)


@st.composite
def univariate_pairs(draw):
    """(a, b) in Q[x] with a planted common factor, at times zero or
    constant operands and negative leading coefficients."""
    common = univariate(draw(dense))
    pair = []
    for _ in range(2):
        kind = draw(st.sampled_from(["product", "product", "zero",
                                     "constant", "negated"]))
        f = univariate(draw(dense)) * common
        if kind == "zero":
            f = Polynomial.zero(1)
        elif kind == "constant":
            f = Polynomial.const(draw(fractions_q), 1)
        elif kind == "negated" and f:
            f = -f.normalized() * Fraction(draw(st.integers(1, 9)), 4)
        pair.append(f)
    return tuple(pair)


def is_stored_form(p):
    return p._den > 0 and math.gcd(p._den, *p._table.values()) == 1


@settings(derandomize=True, deadline=None, max_examples=300)
@given(univariate_pairs())
def test_univariate_gcd_is_the_primitive_form_of_sympys(pair):
    a, b = pair
    g = sympy.gcd(to_sympy(a), to_sympy(b))
    if g.is_zero:
        want = Polynomial.zero(1)
    else:
        want = from_sympy(g).normalized()
    got = ratfunc._univ_gcd(a, b)
    assert (got._table, got._den) == (want._table, want._den)
    assert not got or got.leading()[1] > 0


@settings(derandomize=True, deadline=None, max_examples=300)
@given(univariate_pairs())
def test_univariate_divmod_is_division_over_q(pair):
    a, b = pair
    if not b:
        with pytest.raises(ZeroDivisionError):
            ratfunc._univ_divmod(a, b)
        return
    q, r = ratfunc._univ_divmod(a, b)
    assert q * b + r == a
    assert r.degree() < b.degree() or (r.is_zero() and b.degree() == 0)
    assert is_stored_form(q) and is_stored_form(r)
    sq, sr = sympy.div(to_sympy(a), to_sympy(b))
    assert (q, r) == (from_sympy(sq), from_sympy(sr))


def test_univariate_lcm_is_the_primitive_form_of_sympys(monkeypatch):
    """Denominators as rational functions keep them (primitive, with a
    positive leading coefficient) have one lcm in that form, whatever the
    order they come in; one that divides the lcm so far takes no gcd."""
    rng = random.Random(41)
    x = Polynomial.variable(0, 1)
    factors = [x, x - 1, 2 * x + 3, x ** 2 + 1, 3 * x ** 2 - x + 5]
    calls = []
    original = poly_module.univ_gcd

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(poly_module, "univ_gcd", counting)
    for _ in range(40):
        dens = [RationalFunction(x, math.prod(
            rng.sample(factors, rng.randint(0, 3)), start=x ** 0)).den
            for _ in range(rng.randint(1, 4))]
        want = from_sympy(functools.reduce(
            sympy.Poly.lcm, [to_sympy(d) for d in dens]))
        for order in (dens, dens[::-1]):
            got = univ_lcm(order)
            assert got == want.normalized() and is_stored_form(got)
            assert got._den == 1 and got.leading()[1] > 0
    del calls[:]
    assert univ_lcm([x - 1, (x - 1) * (x ** 2 + 1), x ** 0]) \
        == (x - 1) * (x ** 2 + 1)
    assert calls == []


def test_division_by_a_negative_leading_coefficient():
    # each quotient step divides by lc(b) < 0: no sign is left in the
    # scale of the remainder
    x = Polynomial.variable(0, 1)
    a = 3 * x ** 4 - x ** 3 + Fraction(1, 2)
    for b in (-2 * x + 1, Fraction(-3, 5) * x ** 2 + x, -x ** 3 - 7):
        q, r = ratfunc._univ_divmod(a, b)
        assert q * b + r == a and r.degree() < b.degree()
        assert is_stored_form(q) and is_stored_form(r)
    g = ratfunc._univ_gcd(-(x - 1) * (x + 2), Fraction(-1, 3) * (x - 1))
    assert g == x - 1


def test_equal_rational_functions_hash_alike():
    # f g / (h g) and f / h are one value in two stored pairs when no gcd
    # reduces them (two variables and more); their hashes agree, so sets
    # and dicts find either by the other
    rng = random.Random(41)
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    one = Polynomial.const(1, 2)
    pairs = [(RationalFunction(x * y, x * y * y), RationalFunction(one, y))]
    for case in range(120):
        arity = 1 + case % 3
        f = rand_poly(rng, arity, 2)
        h = rand_poly(rng, arity, 1) or Polynomial.const(3, arity)
        g = rand_poly(rng, arity, 1) or Polynomial.const(-2, arity)
        pairs.append((RationalFunction(f * g, h * g), RationalFunction(f, h)))
    distinct = 0
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)
        assert left in {right} and {left: 1}[right] == 1
        distinct += (left.num, left.den) != (right.num, right.den)
    # the multivariate pairs do differ in their stored forms
    assert distinct >= 40
    assert len({f for pair in pairs for f in pair}) == len(set(
        right for _, right in pairs))
    zero = RationalFunction(Polynomial.zero(2))
    assert hash(zero) == hash(RationalFunction(Polynomial.zero(2), x + 1))


def test_hash_agrees_with_eq_across_types():
    # ints, Fractions, polynomials and rational functions that are equal
    # under `==` hash alike, so each finds the others in a set or a dict
    rng = random.Random(53)
    values = []
    for case in range(60):
        arity = case % 4
        c = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        f = rand_poly(rng, arity, rng.choice([0, 1, 2]))
        g = rand_poly(rng, arity, 1) or Polynomial.const(2, arity)
        values += [c, int(c), f, Polynomial.const(c, arity),
                   RationalFunction(f), RationalFunction(f * g, g),
                   RationalFunction(Polynomial.const(c, arity) * g, g)]
    for arity in (1, 2, 3):
        x = Polynomial.variable(0, arity)
        values += [x, RationalFunction(x), RationalFunction(x * (x + 1),
                                                            x + 1)]
    equal = crossed = 0
    for a, b in itertools.product(values, repeat=2):
        if a == b:
            equal += 1
            crossed += type(a) is not type(b)
            assert hash(a) == hash(b), (a, b)
            assert a in {b} and {b: 1}[a] == 1
    assert crossed >= 500 and equal > crossed
    assert 5 in {Polynomial.const(5, 1)}
    assert 5 in {RationalFunction(Polynomial.const(5, 1))}
    x = Polynomial.variable(0, 1)
    assert x in {RationalFunction(x)} and RationalFunction(x) in {x}
    assert Polynomial.zero(2) in {0} and RationalFunction.zero(3) in {0}
    # values of different rings hash alike but stay unequal
    assert len({RationalFunction.const(5, arity) for arity in (1, 2, 3)}) == 3
