import itertools
import math
import random
from fractions import Fraction

import pytest

from jetforge.errors import ArityMismatch, InputError
from jetforge.poly import Polynomial, graded_monomials, monomial_key
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
