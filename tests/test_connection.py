import json
import pathlib
import random
from fractions import Fraction

import pytest

import jetforge.connection as connection
import jetforge.linalg as la
from jetforge.connection import (ConnectionChart, MatrixJet, beta, build_xi,
                                 check_flatness, check_right_equivariance,
                                 matrixjet_invert, period_system, scalar_ode,
                                 series_oracle)
from jetforge.errors import NonIntegrable, SingularInitial, SingularPoint
from jetforge.examples import exponential_chart, legendre_chart, \
    nilpotent_chart
from jetforge.poly import Polynomial, graded_monomials
from jetforge.ratfunc import RationalFunction
from jetforge.series import JetPoint, TruncatedSeries, series_compose
from jetforge.verify import (random_flat_chart, random_invertible, random_jet,
                             random_n1_chart, run_frame_corpus)
from symbolic_xi import entry, gamma, is_integrable, word_gamma


@pytest.fixture(scope="module")
def corpus99():
    return run_frame_corpus(seed=99, count=25)


def linear_coefficient_chart():
    """m = 1, one variable, coefficient z: derivatives follow the
    differentiate-and-substitute recursion."""
    cz = RationalFunction(Polynomial.variable(0, 1))
    return ConnectionChart(1, 1, [[[cz]]], 0, (1,),
                           [[RationalFunction.one(1)]], [[1]])


def non_integrable_chart():
    """m = 1, n = 2 with A_1 = z2 and A_2 = 0: d_2 A_1 != d_1 A_2."""
    zero = RationalFunction.zero(2)
    coeffs = [[[RationalFunction(-Polynomial.variable(1, 2)), zero]]]
    return ConnectionChart(2, 1, coeffs, 0, (1,),
                           [[RationalFunction.one(2)]], [[1]])


def line_jet(base, r, d=1):
    coeffs = {(0,) * d: Fraction(base)}
    coeffs[tuple(1 if i == 0 else 0 for i in range(d))] = Fraction(1)
    return JetPoint([TruncatedSeries(d, r, coeffs)])


class TestXiTable:
    def test_empty_word_is_the_symbol(self):
        chart = linear_coefficient_chart()
        assert entry(chart, (0,), 0, 0) == {(0, 0): RationalFunction.one(1)}

    def test_first_and_second_derivative_forms(self):
        chart = linear_coefficient_chart()
        z = Polynomial.variable(0, 1)
        assert gamma(chart, (1,))[0][0] == RationalFunction(-z)
        assert gamma(chart, (2,))[0][0] == RationalFunction(z * z - 1)

    def test_entries_are_linear_forms(self):
        rng = random.Random(4)
        rc = random_flat_chart(rng, 3, 2)
        checked = 0
        for q in graded_monomials(rc.chart.n, 3):
            for j in range(3):
                for k in range(3):
                    form = entry(rc.chart, q, j, k)
                    assert all(key[1] == k for key in form)
            checked += 1
        assert checked == 10

    def test_substitution_invariant(self):
        rng = random.Random(11)
        rc = random_flat_chart(rng, 2, 2)
        chart = rc.chart
        checked = 0
        for q in graded_monomials(chart.n, 3):
            checked += 1
            for l in range(chart.n):
                bumped = tuple(e + 1 if i == l else e for i, e in enumerate(q))
                if sum(bumped) > 3:
                    continue
                form = gamma(chart, q)
                derived = [[rf.derivative(l) for rf in row] for row in form]
                expected = la.mat_add(derived,
                                      la.mat_mul(form, chart.a_matrix(l)))
                assert la.mat_eq(gamma(chart, bumped), expected)
        assert checked == 10

    def test_word_order_independence_on_integrable_charts(self):
        rng = random.Random(19)
        for _ in range(6):
            rc = random_flat_chart(rng, rng.randint(1, 3), 2)
            assert is_integrable(rc.chart)
            word = [rng.randrange(2) for _ in range(rng.randint(1, 3))]
            degree = (word.count(0), word.count(1))
            assert la.mat_eq(word_gamma(rc.chart, word),
                             gamma(rc.chart, degree))

    def test_local_values_match_the_symbolic_forms(self):
        def check(table, point):
            for q in graded_monomials(table.chart.n, table.order):
                symbolic = [[rf.evaluate(point) for rf in row]
                            for row in gamma(table.chart, q)]
                assert table.gamma_at(q, point) == symbolic, (q, point)

        rng = random.Random(31)
        for _ in range(6):
            rc = random_flat_chart(rng, rng.randint(1, 3), rng.randint(1, 2))
            table = build_xi(rc.chart, 4)
            for _ in range(2):
                while True:
                    point = tuple(Fraction(rng.randint(-5, 5),
                                           rng.randint(1, 3))
                                  for _ in range(rc.chart.n))
                    try:
                        rc.chart.assert_regular(point)
                        break
                    except SingularPoint:
                        continue
                check(table, point)
        table = build_xi(legendre_chart(), 8)
        for x in (Fraction(1, 2), Fraction(1, 4), Fraction(2)):
            check(table, (x,))

    def test_shared_table_builds_each_point_once(self, monkeypatch):
        builds = []
        original = connection._local_gammas

        def counting(chart, order, point):
            builds.append(point)
            return original(chart, order, point)

        monkeypatch.setattr(connection, "_local_gammas", counting)
        rng = random.Random(8)
        rc = random_flat_chart(rng, 2, 2)
        table = build_xi(rc.chart, 3)
        for _ in range(2):
            sigma = random_jet(rng, rc.chart, 2, 3)
            initial = random_invertible(rng, 2)
            beta(rc.chart, sigma, initial, table=table)
            assert check_right_equivariance(
                rc.chart, sigma, initial, random_invertible(rng, 2),
                table=table)
            assert builds.count(sigma.basepoint()) == 1
        assert len(builds) == len(set(builds)) == 2


class TestEvalOnJet:
    def test_polynomial_function_is_not_inverted(self, monkeypatch):
        f = RationalFunction(Polynomial(1, {(2,): Fraction(1, 2), (0,): 3}))
        sigma = line_jet(Fraction(2, 3), 4)
        expected = series_compose(f.num, sigma)

        def refuse(self):
            raise AssertionError("inverted a constant denominator")

        monkeypatch.setattr(TruncatedSeries, "invert_unit", refuse)
        assert f.eval_on_jet(sigma) == expected

    def test_denominator_is_inverted(self):
        f = RationalFunction(Polynomial.const(1, 1),
                             Polynomial(1, {(1,): 1, (0,): -1}))
        sigma = line_jet(3, 3)
        series = f.eval_on_jet(sigma)
        den = series_compose(f.den, sigma)
        assert series * den == TruncatedSeries.one(1, 3)
        with pytest.raises(SingularPoint):
            f.eval_on_jet(line_jet(1, 3))


class TestBeta:
    def test_order_zero_is_the_initial_matrix(self):
        chart = exponential_chart()
        sigma = JetPoint([TruncatedSeries.const(Fraction(3), 1, 0)])
        frame = beta(chart, sigma, [[Fraction(2)]])
        assert frame.entry(0, 0) == TruncatedSeries.const(Fraction(2), 1, 0)

    def test_constant_jet_gives_constant_frame(self):
        rng = random.Random(2)
        rc = random_flat_chart(rng, 2, 2)
        sigma = JetPoint.constant((Fraction(1, 2), Fraction(-1)), 2, 4)
        initial = random_invertible(rng, 2)
        frame = beta(rc.chart, sigma, initial)
        assert frame == MatrixJet.from_constant(initial, 2, 4)

    def test_exponential_taylor(self):
        chart = exponential_chart()
        frame = beta(chart, line_jet(0, 3), [[Fraction(1)]])
        assert frame.entry(0, 0) == TruncatedSeries(1, 3, {
            (0,): 1, (1,): -1, (2,): Fraction(1, 2), (3,): Fraction(-1, 6)})

    def test_pole_is_rejected(self):
        with pytest.raises(SingularPoint):
            beta(legendre_chart(), line_jet(0, 2), la.identity(2))

    def test_singular_initial_rejected(self):
        with pytest.raises(SingularInitial):
            beta(legendre_chart(), line_jet(Fraction(1, 2), 2),
                 [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])

    def test_non_integrable_chart_is_refused(self):
        # beta used to return 1 here while series_oracle returns
        # 1 - 1/2 t1 t2
        chart = non_integrable_chart()
        sigma = JetPoint([TruncatedSeries.variable(0, 2, 2),
                          TruncatedSeries.variable(1, 2, 2)])
        with pytest.raises(NonIntegrable):
            beta(chart, sigma, [[Fraction(1)]])

    def test_non_integrable_chart_below_order_two(self):
        # orders 0 and 1 read no mixed partial, so the frame is defined
        chart = non_integrable_chart()
        for r in (0, 1):
            sigma = JetPoint([TruncatedSeries.variable(0, 2, r),
                              TruncatedSeries.variable(1, 2, r)])
            frame = beta(chart, sigma, [[Fraction(1)]])
            assert frame == series_oracle(chart, sigma, [[Fraction(1)]])
            assert frame == MatrixJet.identity(1, 2, r)

    def test_restriction_compatibility(self):
        rng = random.Random(6)
        for _ in range(8):
            rc = random_flat_chart(rng, rng.randint(1, 3), rng.randint(1, 2))
            d, r = rng.randint(1, 2), rng.randint(1, 4)
            sigma = random_jet(rng, rc.chart, d, r)
            initial = random_invertible(rng, rc.chart.m)
            rp = rng.randint(0, r)
            full = beta(rc.chart, sigma, initial)
            assert full.restrict(rp) == beta(rc.chart, sigma.restrict(rp),
                                             initial)


class TestOracleAgreement:
    def test_exponential_routes_agree(self):
        chart = exponential_chart()
        sigma = line_jet(Fraction(1, 3), 4)
        initial = [[Fraction(5)]]
        assert beta(chart, sigma, initial) == series_oracle(chart, sigma,
                                                            initial)

    def test_corpus_smoke(self, corpus99):
        for rep in corpus99.values():
            assert rep.ok, [c.name for c in rep.failures]

    def test_corpus_draw_order_matches_golden(self, corpus99):
        # the case names carry every shape the corpus draws, so a change in
        # the order or number of random draws per case shows up here
        golden = pathlib.Path(__file__).parent / "golden" / \
            "frame_corpus_seed99.json"
        names = {suite: [c.name for c in rep.cases]
                 for suite, rep in corpus99.items()}
        assert names == json.loads(golden.read_text())

    def test_action_is_right_sided_not_left_sided(self):
        # left multiplication by the initial matrix is not the frame action
        chart = nilpotent_chart()
        sigma = line_jet(0, 2)
        m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        frame = beta(chart, sigma, m)
        base = beta(chart, sigma, la.identity(2))
        assert frame == base * m
        assert frame != MatrixJet(la.mat_mul(m, base.entries),
                                  require_invertible=False)

    def test_oracle_is_linear_in_the_initial_matrix(self):
        rng = random.Random(14)
        for _ in range(6):
            rc = random_flat_chart(rng, 2, 2)
            sigma = random_jet(rng, rc.chart, rng.randint(1, 2),
                               rng.randint(0, 3))
            m1 = random_invertible(rng, 2)
            m2 = random_invertible(rng, 2)
            a, b = Fraction(3, 2), Fraction(-2)
            mixed = [[a * m1[i][j] + b * m2[i][j] for j in range(2)]
                     for i in range(2)]
            left = series_oracle(rc.chart, sigma, mixed,
                                 require_invertible=False)
            f1 = series_oracle(rc.chart, sigma, m1)
            f2 = series_oracle(rc.chart, sigma, m2)
            for j in range(2):
                for k in range(2):
                    assert left.entry(j, k) == \
                        f1.entry(j, k).scale(a) + f2.entry(j, k).scale(b)

    def test_oracle_cuts_products_at_the_degree_it_reads(self, monkeypatch):
        orders = []
        original = la.mat_mul

        def recording(a, b):
            orders.append((a[0][0].order, b[0][0].order))
            return original(a, b)

        rng = random.Random(16)
        rc = random_flat_chart(rng, 2, 2)
        sigma = random_jet(rng, rc.chart, 2, 4)
        initial = random_invertible(rng, 2)
        expected = series_oracle(rc.chart, sigma, initial)
        monkeypatch.setattr(la, "mat_mul", recording)
        assert series_oracle(rc.chart, sigma, initial) == expected
        assert orders == [(k, k) for k in range(4) for _ in range(2)]

    def test_flatness_of_oracle_output(self):
        rng = random.Random(15)
        rc = random_n1_chart(rng, 3)
        sigma = random_jet(rng, rc.chart, 2, 4)
        initial = random_invertible(rng, 3)
        frame = series_oracle(rc.chart, sigma, initial)
        assert check_flatness(rc.chart, sigma, frame)


class TestEquivariance:
    def test_identity_action(self):
        chart = exponential_chart()
        sigma = line_jet(1, 3)
        assert check_right_equivariance(chart, sigma, [[Fraction(2)]],
                                        [[Fraction(1)]])

    def test_scalar_action(self):
        chart = nilpotent_chart()
        sigma = line_jet(0, 3)
        initial = la.identity(2)
        doubled = [[Fraction(2), 0], [0, Fraction(2)]]
        assert check_right_equivariance(chart, sigma, initial, doubled)

    def test_randomized(self):
        rng = random.Random(42)
        for _ in range(10):
            rc = random_flat_chart(rng, rng.randint(1, 3), rng.randint(1, 2))
            sigma = random_jet(rng, rc.chart, rng.randint(1, 2),
                               rng.randint(0, 4))
            assert check_right_equivariance(
                rc.chart, sigma, random_invertible(rng, rc.chart.m),
                random_invertible(rng, rc.chart.m))


class TestMatrixJetInversion:
    def test_constant(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        jet = MatrixJet.from_constant(m, 1, 2)
        assert matrixjet_invert(jet) == MatrixJet.from_constant(
            la.invert(m), 1, 2)

    def test_geometric(self):
        jet = MatrixJet([[TruncatedSeries(1, 2, {(0,): 1, (1,): -1})]])
        assert matrixjet_invert(jet).entry(0, 0) == \
            TruncatedSeries(1, 2, {(0,): 1, (1,): 1, (2,): 1})

    def test_product_is_identity(self):
        rng = random.Random(23)
        for _ in range(6):
            m = rng.randint(1, 3)
            entries = [[TruncatedSeries(2, 4, {
                mono: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for mono in graded_monomials(2, 4)})
                for _ in range(m)] for _ in range(m)]
            for i in range(m):
                entries[i][i] = entries[i][i] + TruncatedSeries.const(
                    Fraction(5), 2, 4)
            jet = MatrixJet(entries)
            assert (jet * matrixjet_invert(jet)) == MatrixJet.identity(m, 2, 4)

    def test_involution(self):
        jet = MatrixJet([[TruncatedSeries(1, 3, {(0,): 2, (1,): 1}),
                          TruncatedSeries(1, 3, {(2,): 3})],
                         [TruncatedSeries(1, 3, {(1,): -1}),
                          TruncatedSeries(1, 3, {(0,): 1, (3,): 1})]])
        assert matrixjet_invert(matrixjet_invert(jet)) == jet

    def test_singular_initial(self):
        jet = MatrixJet([[TruncatedSeries(1, 1, {(1,): 1})]],
                        require_invertible=False)
        with pytest.raises(SingularInitial):
            matrixjet_invert(jet)


class TestScalarElimination:
    def test_legendre_recovers_the_classical_equation(self):
        p2, p1, p0 = scalar_ode(legendre_chart())
        assert p2 == Polynomial(1, {(2,): 4, (1,): -4})
        assert p1 == Polynomial(1, {(1,): 8, (0,): -4})
        assert p0 == Polynomial(1, {(0,): 1})

    def test_period_system_inverts_frames(self):
        chart = legendre_chart()
        dual = period_system(chart)
        sigma = line_jet(Fraction(1, 2), 4)
        initial = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        left = matrixjet_invert(beta(chart, sigma, initial)).transpose()
        right = beta(dual, sigma, la.transpose(la.invert(initial)))
        assert left == right

    def test_period_system_is_involutive_on_coefficients(self):
        chart = legendre_chart()
        again = period_system(period_system(chart))
        for i in range(2):
            for j in range(2):
                assert again.coeffs[i][j][0] == chart.coeffs[i][j][0]

    def test_period_system_keeps_the_pairing_parallel(self):
        rng = random.Random(51)
        charts = [legendre_chart(), nilpotent_chart(),
                  random_flat_chart(rng, 2, 2).chart,
                  random_flat_chart(rng, 3, 1).chart]
        for chart in charts:
            assert chart.pairing_is_flat()
            assert period_system(chart).pairing_is_flat()
