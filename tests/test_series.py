import math
import random
from fractions import Fraction

import pytest

from jetforge.errors import (ArityMismatch, DimensionMismatch,
                             IndexOutOfRange, NotAUnit, OrderIncrease)
from jetforge.poly import Polynomial, graded_monomials
from jetforge.scheme import generic_jet
from jetforge.series import (JetPoint, TruncatedSeries, same_form,
                             series_compose, series_compose_all,
                             taylor_weights)
from test_kernel import ref_evaluate_in


def S(dims, order, coeffs):
    return TruncatedSeries(dims, order, coeffs)


def rand_series(rng, d, r, num=5, den=3):
    coeffs = {}
    for mono in graded_monomials(d, r):
        if rng.random() < 0.7:
            coeffs[mono] = Fraction(rng.randint(-num, num), rng.randint(1, den))
    return TruncatedSeries(d, r, coeffs)


class TestAdd:
    def test_cancellation(self):
        a = S(1, 1, {(0,): 1, (1,): 1})
        b = S(1, 1, {(0,): 1, (1,): -1})
        assert a + b == S(1, 1, {(0,): 2})

    def test_identity(self):
        a = S(1, 2, {(0,): 3, (2,): Fraction(1, 2)})
        assert a + TruncatedSeries.zero(1, 2) == a

    def test_direct_sum(self):
        a = S(2, 2, {(1, 0): 1, (0, 2): 1})
        b = S(2, 2, {(0, 2): 1})
        assert a + b == S(2, 2, {(1, 0): 1, (0, 2): 2})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            S(1, 1, {}) + S(2, 1, {})
        with pytest.raises(DimensionMismatch):
            S(1, 1, {}) + S(1, 2, {})


class TestMul:
    def test_truncation_forced(self):
        a = S(1, 1, {(0,): 1, (1,): 1})
        assert a * a == S(1, 1, {(0,): 1, (1,): 2})

    def test_cross_variable(self):
        t1 = TruncatedSeries.variable(0, 2, 2)
        t2 = TruncatedSeries.variable(1, 2, 2)
        assert t1 * t2 == S(2, 2, {(1, 1): 1})

    def test_telescoping(self):
        a = S(1, 2, {(0,): 1, (1,): 1, (2,): 1})
        b = S(1, 2, {(0,): 1, (1,): -1})
        assert a * b == TruncatedSeries.one(1, 2)


class TestDerive:
    def test_power(self):
        assert S(1, 2, {(2,): 1}).derive(0) == S(1, 2, {(1,): 2})

    def test_missing_variable(self):
        assert S(2, 2, {(1, 0): 1}).derive(1).is_zero()

    def test_mixed(self):
        a = S(2, 3, {(1, 1): 3, (2, 1): 1})
        assert a.derive(0) == S(2, 3, {(0, 1): 3, (1, 1): 2})

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            S(2, 1, {}).derive(2)


class TestInvert:
    def test_geometric(self):
        a = S(1, 2, {(0,): 1, (1,): -1})
        assert a.invert_unit() == S(1, 2, {(0,): 1, (1,): 1, (2,): 1})

    def test_constant(self):
        assert S(1, 3, {(0,): 2}).invert_unit() == \
            S(1, 3, {(0,): Fraction(1, 2)})

    def test_two_variables(self):
        a = S(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        inv = a.invert_unit()
        expected = S(2, 2, {(0, 0): 1, (1, 0): -1, (0, 1): -1,
                            (2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert inv == expected
        assert a * inv == TruncatedSeries.one(2, 2)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            S(1, 2, {(1,): 1}).invert_unit()

    def test_randomized_inverse(self):
        rng = random.Random(47)
        for _ in range(25):
            d = rng.randint(1, 2)
            r = rng.randint(0, 4)
            raw = rand_series(rng, d, r)
            unit = raw - TruncatedSeries.const(raw.constant_term(), d, r) \
                + TruncatedSeries.const(Fraction(rng.randint(1, 4),
                                                 rng.randint(1, 3)), d, r)
            assert unit * unit.invert_unit() == TruncatedSeries.one(d, r)


class TestCompose:
    def test_square(self):
        f = Polynomial(1, {(2,): 1})
        j = JetPoint([S(1, 1, {(0,): 2, (1,): 3})])
        assert series_compose(f, j) == S(1, 1, {(0,): 4, (1,): 12})

    def test_sum(self):
        f = Polynomial(2, {(1, 0): 1, (0, 1): 1})
        j = JetPoint([TruncatedSeries.variable(0, 2, 2),
                      TruncatedSeries.variable(1, 2, 2)])
        assert series_compose(f, j) == S(2, 2, {(1, 0): 1, (0, 1): 1})

    def test_product_minus_one(self):
        f = Polynomial(2, {(1, 1): 1, (0, 0): -1})
        j = JetPoint([S(1, 2, {(0,): 1, (1,): 1}),
                      S(1, 2, {(0,): 1, (1,): -1, (2,): 1})])
        assert series_compose(f, j).is_zero()

    def test_arity_mismatch(self):
        f = Polynomial(2, {(1, 1): 1})
        with pytest.raises(ArityMismatch):
            series_compose(f, JetPoint([S(1, 1, {})]))

    def test_series_argument_uses_offsets(self):
        # f as a series in one variable, evaluated on the offset part
        f = S(1, 2, {(0,): 5, (1,): 1, (2,): 1})
        j = JetPoint([S(1, 2, {(0,): 7, (1,): 1})])
        assert series_compose(f, j) == S(1, 2, {(0,): 5, (1,): 1, (2,): 1})

    def test_batch_matches_the_power_products_and_single_calls(self):
        # `series_compose_all` and `evaluate_in` share the monomial table of
        # `poly`, so both are checked against `ref_evaluate_in`, which
        # multiplies each term out factor by factor, over rational and Q[a]
        # jets alike
        rng = random.Random(47)
        for case in range(60):
            n, d, r = rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 4)
            jet = generic_jet(n, d, r // 2) if case % 2 else \
                JetPoint([rand_series(rng, d, r) for _ in range(n)])
            polys = [Polynomial.zero(n), Polynomial.const(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)), n)]
            polys += [Polynomial(n, {
                p: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for p in rng.sample(graded_monomials(n, 3), 4)})
                for _ in range(3)]
            rng.shuffle(polys)
            one = TruncatedSeries.one(jet.dims, jet.order)
            batch = series_compose_all(polys, jet)
            assert len(batch) == len(polys)
            for f, s in zip(polys, batch):
                reference = ref_evaluate_in(f.terms, jet.series, one)
                assert s == reference and same_form(s, reference)
                assert same_form(f.evaluate_in(jet.series, one), reference)
                assert same_form(s, series_compose(f, jet))

    def test_evaluate_in_polynomials_and_rationals_matches_the_reference(self):
        # polynomial and rational values, the zero polynomial and arity 0
        rng = random.Random(59)
        for case in range(80):
            n, m = case % 4, rng.randint(0, 3)
            f = Polynomial.zero(n) if case % 5 == 0 else Polynomial(n, {
                p: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for p in rng.sample(graded_monomials(n, 3),
                                    min(4, math.comb(n + 3, 3)))})
            values = [Polynomial(m, {
                p: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for p in rng.sample(graded_monomials(m, 2),
                                    min(3, math.comb(m + 2, 2)))})
                for _ in range(n)]
            one = Polynomial.const(1, m)
            value = f.evaluate_in(values, one)
            reference = ref_evaluate_in(f.terms, values, one)
            assert value == reference
            assert (value.arity, value._table, value._den) == \
                (reference.arity, reference._table, reference._den)
            point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(n)]
            value = f.evaluate_in(point, Fraction(1))
            assert type(value) is Fraction
            assert value == ref_evaluate_in(f.terms, point, Fraction(1))

    def test_batch_mixes_polynomials_and_series(self):
        # a series is evaluated on the offsets, a polynomial on the jet
        j = JetPoint([S(1, 2, {(0,): 7, (1,): 1})])
        f = S(1, 2, {(0,): 5, (1,): 1, (2,): 1})
        g = Polynomial(1, {(1,): 1})
        assert series_compose_all([f, g, f], j) == [
            series_compose(f, j), S(1, 2, {(0,): 7, (1,): 1}),
            series_compose(f, j)]
        assert series_compose_all([], j) == []

    def test_exponent_in_the_thousands_needs_no_recursion(self):
        # the monomial table is built by a loop: a chain of 5000 products
        # would overflow the interpreter's stack as a recursion
        f = Polynomial(1, {(5000,): 1, (0,): -1})
        j = JetPoint([S(1, 1, {(0,): 2, (1,): 1})])
        assert series_compose(f, j) == S(1, 1, {(0,): 2 ** 5000 - 1,
                                                (1,): 5000 * 2 ** 4999})
        x = Polynomial.variable(0, 2)
        assert series_compose(x ** 3000, generic_jet(2, 1, 1)).coefficient(
            (1,)) == 3000 * Polynomial.variable(0, 4) ** 2999 \
            * Polynomial.variable(1, 4)


class TestTaylorWeights:
    def test_weights_are_the_scaled_products_of_powers(self):
        # read in reverse graded order, so that most weights walk down to
        # a lower one first
        rng = random.Random(41)
        for case in range(8):
            n, d, r = rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 4)
            jet = generic_jet(n, d, r) if case % 2 else JetPoint(
                [rand_series(rng, d, r) for _ in range(n)])
            offsets = jet.offsets()
            weight = taylor_weights(offsets)
            for q in reversed(graded_monomials(n, r)):
                expected = TruncatedSeries.one(d, r)
                for s, e in zip(offsets, q):
                    if e:
                        expected = expected * s ** e
                expected = expected.scale(Fraction(
                    1, math.prod(map(math.factorial, q))))
                assert same_form(weight(q), expected)
            assert len(weight.table) == math.comb(n + r, r)

    def test_only_the_weights_read_and_their_chain_are_formed(self):
        weight = taylor_weights(generic_jet(2, 1, 6).offsets())
        weight((0, 3))
        assert sorted(weight.table) == [(0, 0), (0, 1), (0, 2), (0, 3)]
        weight((2, 1))
        assert sorted(weight.table) == [(0, 0), (0, 1), (0, 2), (0, 3),
                                        (1, 1), (2, 1)]


class TestRestrict:
    def test_drop_top(self):
        a = S(1, 2, {(0,): 1, (1,): 1, (2,): 1})
        assert a.restrict(1) == S(1, 1, {(0,): 1, (1,): 1})

    def test_identity(self):
        a = S(1, 2, {(1,): 4})
        assert a.restrict(2) == a

    def test_tower_functoriality(self):
        rng = random.Random(5)
        for _ in range(25):
            a = rand_series(rng, rng.randint(1, 2), 2)
            assert a.restrict(1).restrict(0) == a.restrict(0)

    def test_order_increase_rejected(self):
        with pytest.raises(OrderIncrease):
            S(1, 1, {}).restrict(2)

    def test_jet_restriction(self):
        j = JetPoint([S(1, 2, {(0,): 1, (1,): 2, (2,): 3})])
        assert j.restrict(1) == JetPoint([S(1, 1, {(0,): 1, (1,): 2})])


class TestRingAxioms:
    def test_randomized_axioms(self):
        rng = random.Random(17)
        for _ in range(40):
            d = rng.randint(1, 2)
            r = rng.randint(0, 4)
            a, b, c = (rand_series(rng, d, r) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_leibniz(self):
        rng = random.Random(23)
        for _ in range(30):
            d = rng.randint(1, 2)
            r = rng.randint(1, 4)
            i = rng.randrange(d)
            a, b = rand_series(rng, d, r), rand_series(rng, d, r)
            left = (a * b).derive(i).restrict(r - 1)
            right = (a.derive(i) * b + a * b.derive(i)).restrict(r - 1)
            assert left == right

    def test_restrict_is_ring_hom(self):
        rng = random.Random(31)
        for _ in range(30):
            d = rng.randint(1, 2)
            r = rng.randint(1, 4)
            rp = rng.randint(0, r)
            a, b = rand_series(rng, d, r), rand_series(rng, d, r)
            assert (a * b).restrict(rp) == a.restrict(rp) * b.restrict(rp)
            assert (a + b).restrict(rp) == a.restrict(rp) + b.restrict(rp)

    def test_restrict_commutes_with_derive(self):
        rng = random.Random(37)
        for _ in range(30):
            d = rng.randint(1, 2)
            r = rng.randint(2, 4)
            rp = rng.randint(1, r)
            i = rng.randrange(d)
            a = rand_series(rng, d, r)
            assert a.derive(i).restrict(rp - 1) == \
                a.restrict(rp).derive(i).restrict(rp - 1)


class TestEquality:
    def test_hash_agrees_with_equality_across_coefficient_types(self):
        symbolic = S(1, 2, {(0,): Polynomial.const(3, 2)})
        rational = S(1, 2, {(0,): 3})
        assert symbolic == rational
        assert hash(symbolic) == hash(rational)
        assert len({symbolic, rational}) == 1

    def test_equal_values_from_different_routes(self):
        a = S(2, 3, {(0, 0): Fraction(1, 6), (1, 2): Fraction(-4, 9)})
        b = (a.scale(Fraction(3)) + a.scale(Fraction(-2))) * \
            TruncatedSeries.one(2, 3)
        assert a == b and hash(a) == hash(b)
        assert a != a.zero_extended(4)


class TestMonomialCounts:
    @pytest.mark.parametrize("d,r", [(1, 0), (1, 4), (2, 2), (2, 3), (3, 2)])
    def test_count(self, d, r):
        assert len(graded_monomials(d, r)) == math.comb(r + d, d)

    def test_d2_r2_is_six(self):
        assert len(graded_monomials(2, 2)) == 6


class TestCanonicalText:
    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(25):
            d = rng.randint(1, 3)
            r = rng.randint(0, 3)
            a = rand_series(rng, d, r)
            assert TruncatedSeries.from_string(a.to_string(), d, r) == a

    def test_sorted_graded_lex(self):
        a = S(2, 2, {(0, 1): 1, (1, 0): 1, (0, 0): 1, (1, 1): 1})
        assert a.to_string() == "1 + 1 * t1^1 + 1 * t2^1 + 1 * t1^1*t2^1"
