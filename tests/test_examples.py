import random
from fractions import Fraction

import pytest

import jetforge.linalg as la
from jetforge.connection import (beta, matrixjet_invert, period_system,
                                 scalar_ode, series_oracle)
from jetforge.errors import SingularPoint
from jetforge.examples import (builtin_examples, exponential_chart,
                               exponential_reference,
                               gauss_series_coefficients, hypergeometric_jet,
                               legendre_chart, legendre_scalar_coefficients,
                               nilpotent_chart, nilpotent_reference)
from jetforge.flags import HodgeData
from jetforge.poly import Polynomial
from jetforge.ratfunc import _univ_divmod
from jetforge.series import JetPoint, TruncatedSeries
from jetforge.verify import random_invertible, random_jet
from symbolic_xi import is_integrable

Y_NAMES = ["y0", "y1"]


def line_jet(base, r):
    return JetPoint([TruncatedSeries(1, r, {(0,): Fraction(base), (1,): 1})])


def pole_multiplicities(poly):
    """Multiplicity of the roots 0 and 1 of a univariate polynomial, plus
    whatever factor remains."""
    t = Polynomial.variable(0, 1)
    out = {0: 0, 1: 0}
    for root, shift in ((0, t), (1, t - 1)):
        while not poly.is_zero() and poly.evaluate((Fraction(root),)) == 0:
            poly = _univ_divmod(poly, shift)[0]
            out[root] += 1
    return out, poly


class TestLegendreChart:
    def test_pole_locus_is_exactly_zero_and_one(self):
        chart = legendre_chart()
        seen = {0: 0, 1: 0}
        for i in range(2):
            for j in range(2):
                den = chart.coeffs[i][j][0].den
                mults, rest = pole_multiplicities(den)
                # every denominator factors completely over {0, 1}
                assert rest.degree() <= 0
                for root in (0, 1):
                    seen[root] += mults[root]
        assert seen[0] > 0 and seen[1] > 0

    def test_elimination_recovers_the_scalar_equation(self):
        from jetforge.connection import normalize_poly_triple
        from jetforge.ratfunc import RationalFunction
        computed = scalar_ode(legendre_chart())
        reference = normalize_poly_triple(
            *(RationalFunction(p) for p in legendre_scalar_coefficients()))
        assert computed == reference

    def test_hodge_data_is_well_formed(self):
        chart = legendre_chart()
        hodge = HodgeData.of_chart(chart)
        assert hodge.filtration_dims == (2, 1)
        assert hodge.weight == 1

    def test_pairing_is_parallel(self):
        assert legendre_chart().pairing_is_flat()

    def test_basepoints_avoid_poles(self):
        example = builtin_examples()["legendre"]
        for point in example.basepoints:
            example.chart.assert_regular((point,))


class TestHypergeometricJet:
    def test_order_one_is_initial_data(self):
        jet = hypergeometric_jet(Fraction(1, 2), 1)
        assert jet.coefficient((0,)) == Polynomial.variable(0, 2)
        assert jet.coefficient((1,)) == Polynomial.variable(1, 2)

    def test_order_two_coefficient_at_one_half(self):
        jet = hypergeometric_jet(Fraction(1, 2), 2)
        y0 = Polynomial.variable(0, 2)
        assert jet.coefficient((2,)) == y0 * Fraction(1, 2)

    def test_order_three_coefficient_at_one_half(self):
        jet = hypergeometric_jet(Fraction(1, 2), 3)
        y1 = Polynomial.variable(1, 2)
        assert jet.coefficient((3,)) == y1 * Fraction(3, 2)

    def test_singular_points_rejected(self):
        with pytest.raises(SingularPoint):
            hypergeometric_jet(Fraction(0), 2)
        with pytest.raises(SingularPoint):
            hypergeometric_jet(Fraction(1), 2)

    def test_solves_the_scalar_equation(self):
        # substitute the symbolic jet into the shifted equation and check all
        # reliably-computed orders vanish
        lam0, r = Fraction(1, 4), 6
        jet = hypergeometric_jet(lam0, r)
        p2, p1, p0 = legendre_scalar_coefficients()
        a = [Fraction(0)] * 3
        shifted_p2 = {0: lam0 - lam0 ** 2, 1: 1 - 2 * lam0, 2: Fraction(-1)}
        shifted_p1 = {0: 1 - 2 * lam0, 1: Fraction(-2)}
        lhs = TruncatedSeries.zero(1, r)
        d1 = jet.derive(0)
        d2 = d1.derive(0)
        a_series = TruncatedSeries(1, r, {(k,): v
                                          for k, v in shifted_p2.items()})
        b_series = TruncatedSeries(1, r, {(k,): v
                                          for k, v in shifted_p1.items()})
        lhs = a_series * d2 + b_series * d1 + jet.scale(Fraction(-1, 4))
        assert lhs.restrict(r - 2).is_zero()


class TestGaussCoefficients:
    def test_first_values(self):
        assert gauss_series_coefficients(4) == [
            Fraction(1), Fraction(1, 4), Fraction(9, 64), Fraction(25, 256)]

    def test_truncation_annihilated_by_the_operator(self):
        # apply the scalar operator to the degree-T truncation; everything
        # below the boundary must cancel exactly
        T = 9
        coeffs = gauss_series_coefficients(T)
        y = Polynomial(1, {(k,): c for k, c in enumerate(coeffs)})
        t = Polynomial.variable(0, 1)
        p2, p1, p0 = legendre_scalar_coefficients()
        y1 = y.derivative(0)
        y2 = y1.derivative(0)
        residual = p2 * y2 + p1 * y1 + p0 * y
        for mono, c in residual.terms.items():
            assert mono[0] >= T - 1, (mono, c)


class TestEndToEnd:
    @pytest.mark.parametrize("lam0", [Fraction(1, 2), Fraction(1, 4),
                                      Fraction(2)])
    def test_symbolic_frames_match_the_recursion(self, lam0):
        r = 6
        chart = legendre_chart()
        dual = period_system(chart)
        symbols = [[Polynomial.variable(2 * j + k, 4) for k in range(2)]
                   for j in range(2)]
        sigma = line_jet(lam0, r)
        frame = beta(dual, sigma, symbols)
        jet = hypergeometric_jet(lam0, r)
        c_at = [[chart.coeffs[i][j][0].evaluate((lam0,)) for j in range(2)]
                for i in range(2)]
        one = Polynomial.const(1, 4)
        for k in range(2):
            value = symbols[0][k]
            slope = c_at[0][0] * symbols[0][k] + c_at[0][1] * symbols[1][k]
            expected = TruncatedSeries(1, r, {
                p: c.evaluate_in([value, slope], one)
                for p, c in jet.coeffs.items()})
            assert frame.entry(0, k) == expected

    @pytest.mark.parametrize("lam0", [Fraction(1, 2), Fraction(1, 4),
                                      Fraction(2)])
    def test_elimination_map_links_the_two_systems(self, lam0):
        r = 6
        chart = legendre_chart()
        dual = period_system(chart)
        sigma = line_jet(lam0, r)
        initial = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        left = matrixjet_invert(beta(chart, sigma, initial)).transpose()
        right = beta(dual, sigma, la.transpose(la.invert(initial)))
        assert left == right

    def test_oracle_agrees_with_the_recursion_symbolically(self):
        # the independent degree-by-degree solver reproduces the symbolic
        # scalar recursion at order four
        lam0, r = Fraction(1, 2), 4
        chart = legendre_chart()
        dual = period_system(chart)
        symbols = [[Polynomial.variable(2 * j + k, 4) for k in range(2)]
                   for j in range(2)]
        sigma = line_jet(lam0, r)
        frame = series_oracle(dual, sigma, symbols)
        assert frame == beta(dual, sigma, symbols)


class TestSyntheticCharts:
    def test_exponential_reference(self):
        rng = random.Random(31)
        chart = exponential_chart()
        for _ in range(5):
            sigma = random_jet(rng, chart, rng.randint(1, 2), rng.randint(0, 4))
            initial = [[Fraction(rng.randint(1, 5))]]
            reference = exponential_reference(sigma, initial)
            assert beta(chart, sigma, initial) == reference
            assert series_oracle(chart, sigma, initial) == reference

    def test_nilpotent_reference(self):
        rng = random.Random(37)
        chart = nilpotent_chart()
        for _ in range(5):
            sigma = random_jet(rng, chart, rng.randint(1, 2), rng.randint(0, 4))
            initial = random_invertible(rng, 2)
            reference = nilpotent_reference(sigma, initial)
            assert beta(chart, sigma, initial) == reference
            assert series_oracle(chart, sigma, initial) == reference

    def test_registry_charts_validate(self):
        examples = builtin_examples()
        for name, example in examples.items():
            assert is_integrable(example.chart), name
            for point in example.basepoints:
                pt = point if isinstance(point, tuple) else (point,)
                example.chart.assert_regular(pt)
        # the polarized fixtures carry a parallel pairing; the rank-one
        # exponential chart cannot (its pairing would be transcendental)
        assert examples["legendre"].chart.pairing_is_flat()
        assert examples["nilpotent"].chart.pairing_is_flat()
        assert not examples["exponential"].chart.pairing_is_flat()
