import json
import math
import pathlib
import random
import sys
import threading
from fractions import Fraction

import pytest

import jetforge.connection as connection
import jetforge.flags as flags
import jetforge.linalg as la
import jetforge.series as series_module
from jetforge.connection import (ConnectionChart, HodgeData, MatrixJet, beta,
                                 build_xi,
                                 check_flatness, check_right_equivariance,
                                 matrixjet_invert, period_system, scalar_ode,
                                 series_oracle)
from jetforge.errors import (ArityMismatch, DimensionMismatch, NonIntegrable,
                             SingularInitial, SingularPoint)
from jetforge.examples import exponential_chart, legendre_chart, \
    nilpotent_chart, nilpotent_reference
from jetforge.flags import alpha, eta_chartlocal, flag_of_matrix
from jetforge.poly import Polynomial, graded_monomials
from jetforge.ratfunc import RationalFunction
from jetforge.series import (JetPoint, TruncatedSeries, euler_solve,
                             same_form, series_compose)
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


def threshold_chart(k, c):
    """m = 1, n = 2 with A_1 = -z2^k (z1 + c) and A_2 = 0: the curvature
    d_1 A_2 - d_2 A_1 is k z2^(k - 1) (z1 + c)."""
    z1, z2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    coeffs = [[[RationalFunction(z2 ** k * (z1 + c)), RationalFunction.zero(2)]]]
    return ConnectionChart(2, 1, coeffs, 0, (1,),
                           [[RationalFunction.one(2)]], [[1]])


def with_monomial(chart, rng):
    """The chart with c z^mu, |mu| = 2 or 3, added to one coefficient: it is
    flat no longer, and the curvature's first nonzero Taylor degree
    depends on the point."""
    n, m = chart.n, chart.m
    mu = [0] * n
    for _ in range(rng.randint(2, 3)):
        mu[rng.randrange(n)] += 1
    coeffs = [[list(entry) for entry in row] for row in chart.coeffs]
    i, j, l = rng.randrange(m), rng.randrange(m), rng.randrange(n)
    coeffs[i][j][l] = coeffs[i][j][l] + RationalFunction(
        Polynomial(n, {tuple(mu): Fraction(rng.choice((-2, -1, 1, 2)))}))
    hodge = chart.hodge
    return ConnectionChart(n, m, coeffs, hodge.weight, hodge.filtration_dims,
                           chart.gram, hodge.polarization)


def reference_local_gammas(chart, order, point):
    """The xi values at a point by the recursion G_q = d_l G_p + G_p A_l
    over Taylor series of the A_l at the point, with the mixed-partial
    comparison through order `order - 2`: the values and verdicts the
    integer recursion of `connection._local_gammas` must reproduce."""
    m, n = chart.m, chart.n
    jet = JetPoint([TruncatedSeries.const(x, n, order)
                    + TruncatedSeries.variable(i, n, order)
                    for i, x in enumerate(point)])
    zero = TruncatedSeries.zero(n, order)
    a_series = [[[rf.eval_on_jet(jet) if rf else zero for rf in row]
                 for row in chart.a_matrix(l)] for l in range(n)]

    def step(gamma, l, k):
        """d_l gamma + gamma A_l at order k."""
        a_low = [[s.restrict(k) for s in row] for row in a_series[l]]
        derived = [[s.derive(l).restrict(k) for s in row] for row in gamma]
        low = [[s.restrict(k) for s in row] for row in gamma]
        return la.mat_add(derived, la.mat_mul(low, a_low))

    one = TruncatedSeries.one(n, order)
    gammas = {(0,) * n: [[one if i == j else zero for i in range(m)]
                         for j in range(m)]}
    for q in graded_monomials(n, order)[1:]:
        l = next(i for i, e in enumerate(q) if e)
        prev = q[:l] + (q[l] - 1,) + q[l + 1:]
        gammas[q] = step(gammas[prev], l, order - sum(q))
    for a in range(n):
        for b in range(a + 1, n) if order >= 2 else ():
            mixed = tuple(int(i in (a, b)) for i in range(n))
            if not la.mat_eq(gammas[mixed], step(a_series[a], b, order - 2)):
                raise NonIntegrable("mixed partials differ")
    return {q: [[s.constant_term() for s in row] for row in gamma]
            for q, gamma in gammas.items()}


def line_jet(base, r, d=1):
    coeffs = {(0,) * d: Fraction(base)}
    coeffs[tuple(1 if i == 0 else 0 for i in range(d))] = Fraction(1)
    return JetPoint([TruncatedSeries(d, r, coeffs)])


def count_builds(monkeypatch):
    """Record the (order, point) of every `_local_gammas` call."""
    builds = []
    original = connection._local_gammas

    def counting(chart, order, point):
        builds.append((order, point))
        return original(chart, order, point)

    monkeypatch.setattr(connection, "_local_gammas", counting)
    return builds


def count_weights(monkeypatch):
    """Record the offsets of every `taylor_weights` call, one per Taylor
    part formed."""
    weights = []
    original = connection.taylor_weights

    def counting(offsets):
        weights.append(offsets)
        return original(offsets)

    monkeypatch.setattr(connection, "taylor_weights", counting)
    return weights


def record_weight_reads(monkeypatch, module):
    """Record the q of every read of the `taylor_weights` maps that the
    module forms, in the order read."""
    reads = []
    original = module.taylor_weights

    def recording(offsets):
        weight = original(offsets)

        def read(q):
            reads.append(q)
            return weight(q)
        return read

    monkeypatch.setattr(module, "taylor_weights", recording)
    return reads


def count_evaluations(monkeypatch, polys):
    """Count `Polynomial.evaluate` calls on the given polynomials."""
    calls = []
    watched = {id(p) for p in polys}
    original = Polynomial.evaluate

    def counting(self, point):
        if id(self) in watched:
            calls.append(tuple(point))
        return original(self, point)

    monkeypatch.setattr(Polynomial, "evaluate", counting)
    return calls


def gauged_chart(rng, n):
    """m = 2 with A_l = d_l g adj(g) / det g for a polynomial g of degree
    one whose determinant is not constant: the flat frames are g times
    constants, and every coefficient has the multivariate denominator
    det g (up to its content)."""
    while True:
        g = [[random_poly(rng, n) + int(i == j) for j in range(2)]
             for i in range(2)]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if det.degree() > 0:
            break
    adj = [[g[1][1], -g[0][1]], [-g[1][0], g[0][0]]]
    coeffs = [[[None] * n for _ in range(2)] for _ in range(2)]
    for l in range(n):
        a = la.mat_mul([[p.derivative(l) for p in row] for row in g], adj)
        for i in range(2):
            for j in range(2):
                coeffs[i][j][l] = RationalFunction(-a[j][i], det)
    q = [[0, 1], [-1, 0]]
    gram = [[RationalFunction.const(x, n) for x in row] for row in q]
    return ConnectionChart(n, 2, coeffs, 1, (2, 1), gram, q)


def random_poly(rng, n):
    """A random polynomial of degree at most one in n variables."""
    return Polynomial(n, {mono: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for mono in graded_monomials(n, 1)})


def regular_point(rng, chart):
    while True:
        point = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(chart.n))
        try:
            chart.assert_regular(point)
            return point
        except SingularPoint:
            continue


def fresh_copy(chart):
    """The same chart, with no point records."""
    hodge = chart.hodge
    return ConnectionChart(chart.n, chart.m, chart.coeffs, hodge.weight,
                           hodge.filtration_dims, chart.gram,
                           hodge.polarization, chart.variables)


def stored_forms(matrix):
    """The shape, table, denominator and arity of each entry of a series
    matrix."""
    if isinstance(matrix, MatrixJet):
        matrix = matrix.entries
    return [[(s.dims, s.order, s._table, s._den, s._arity) for s in row]
            for row in matrix]


def reference_oracle(chart, sigma, initial):
    """The flat frame along sigma by the earlier oracle loop: full products
    of the pulled-back multipliers G_a with the frame cut at order k - 1,
    of which degree k reads only the degree k - 1 part, kept as dicts of
    coefficients."""
    d, r, m = sigma.dims, sigma.order, chart.m
    dsigma = [[s.derive(a) for a in range(d)] for s in sigma.series]
    along = [[[rf.eval_on_jet(sigma) if rf else None for rf in row]
              for row in chart.a_matrix(l)] if any(dsigma[l]) else None
             for l in range(chart.n)]
    pulled = []
    for a in range(d):
        g = [[TruncatedSeries.zero(d, r) for _ in range(m)] for _ in range(m)]
        for l in range(chart.n):
            ds = dsigma[l][a]
            if ds.is_zero():
                continue
            for j in range(m):
                for i in range(m):
                    if along[l][j][i] is not None:
                        g[j][i] = g[j][i] + along[l][j][i] * ds
        pulled.append(g)
    parts = [[{(0,) * d: initial[j][k]} if initial[j][k] else {}
              for k in range(m)] for j in range(m)]
    for degree in range(1, r + 1):
        low = degree - 1
        current = [[TruncatedSeries(d, low, parts[j][k]) for k in range(m)]
                   for j in range(m)]
        for a in range(d):
            prod = la.mat_mul([[s.restrict(low) for s in row]
                               for row in pulled[a]], current)
            for j in range(m):
                for k in range(m):
                    for p, c in prod[j][k].homogeneous(low).items():
                        shifted = tuple(e + 1 if i == a else e
                                        for i, e in enumerate(p))
                        val = c * Fraction(1, degree)
                        parts[j][k][shifted] = parts[j][k].get(shifted, 0) \
                            + val
    return MatrixJet([[TruncatedSeries(d, r, parts[j][k]) for k in range(m)]
                      for j in range(m)])


def reference_flatness(chart, sigma, frame_jet):
    """The flatness check at the full order r: the pulled-back forms and
    every product of the system are formed at order r through `la.mat_mul`,
    and only the sum is cut to order r - 1."""
    d, r = sigma.dims, sigma.order
    if r == 0:
        return True
    zero = TruncatedSeries.zero(d, r)
    jacobian = [[s.derive(a) for a in range(d)] for s in sigma.series]
    forms = [[la.mat_mul([[rf.eval_on_jet(sigma) if rf else zero
                           for rf in entry]], jacobian)[0]
              for entry in row] for row in chart.coeffs]
    frame = frame_jet.entries
    for a in range(d):
        pulled_t = [[row[j][a] for row in forms] for j in range(chart.m)]
        lhs = la.mat_add([[s.derive(a) for s in row] for row in frame],
                         la.mat_mul(pulled_t, frame))
        if any(s.restrict(r - 1) for row in lhs for s in row):
            return False
    return True


def perturbed(frame, rng, degree, amount=None):
    """The frame with one coefficient of the given degree moved, by
    `amount` or by a random positive rational."""
    d, r, m = frame.dims, frame.order, frame.m
    j, k = rng.randrange(m), rng.randrange(m)
    p = rng.choice([q for q in graded_monomials(d, r) if sum(q) == degree])
    coeffs = dict(frame.entry(j, k).coeffs)
    if amount is None:
        amount = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    coeffs[p] = coeffs.get(p, 0) + amount
    entries = [list(row) for row in frame.entries]
    entries[j][k] = TruncatedSeries(d, r, coeffs)
    return MatrixJet(entries)


def symbolic_initial(rng, m, arity):
    """An m x m matrix of Polynomials in `arity` variables, some constant."""
    x = [Polynomial.variable(i, arity) for i in range(arity)]
    return [[rng.choice(x) * rng.randint(-2, 2) + rng.randint(-2, 2)
             for _ in range(m)] for _ in range(m)]


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
        def check(chart, order, point):
            values = chart.gammas_at(point, order)
            for q in graded_monomials(chart.n, order):
                symbolic = [[rf.evaluate(point) for rf in row]
                            for row in gamma(chart, q)]
                assert values[q] == symbolic, (q, point)

        def regular_point(chart):
            while True:
                point = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(chart.n))
                try:
                    chart.assert_regular(point)
                    return point
                except SingularPoint:
                    continue

        rng = random.Random(31)
        for _ in range(6):
            rc = random_flat_chart(rng, rng.randint(1, 3), rng.randint(1, 2))
            for _ in range(2):
                check(rc.chart, 4, regular_point(rc.chart))
        # three coordinates, and order 5
        for m, n, order in [(m, 3, order) for m in (1, 2, 3)
                            for order in (4, 5)] + [(2, 2, 5), (3, 2, 5)]:
            rc = random_flat_chart(rng, m, n)
            for _ in range(2):
                check(rc.chart, order, regular_point(rc.chart))
        chart = legendre_chart()
        for x in (Fraction(1, 2), Fraction(1, 4), Fraction(2)):
            check(chart, 8, (x,))

    def test_local_values_match_the_series_recursion(self):
        # values and NonIntegrable verdicts, on flat charts and on flat
        # charts with one monomial added, at points with zero coordinates
        # (where the curvature vanishes to higher degree) and without
        rng = random.Random(41)
        thresholds = []
        for case in range(30):
            m, n = rng.randint(1, 3), rng.randint(2, 3)
            chart = random_flat_chart(rng, m, n).chart
            if case % 3:
                chart = with_monomial(chart, rng)
            point = tuple(rng.choice((0, 0, Fraction(rng.randint(-3, 3),
                                                     rng.randint(1, 2))))
                          for _ in range(n))
            for order in range(6):
                try:
                    expected = reference_local_gammas(chart, order, point)
                except NonIntegrable:
                    with pytest.raises(NonIntegrable):
                        connection._local_gammas(chart, order, point)
                    thresholds.append(order)
                    break
                assert connection._local_gammas(chart, order, point) \
                    == expected, (case, order)
        assert set(thresholds) == {2, 3, 4, 5}

    def test_local_values_form_no_series_products(self, monkeypatch):
        # the recurrences for G_q and for the inverse frame's K_q run on
        # integer matrices at the point, from the Taylor coefficients of
        # the chart's polynomial data there: they form no series product,
        # through `*` or the combination kernel, and expand no chart
        # coefficient along a jet
        rng = random.Random(23)
        cases = [(random_flat_chart(rng, 3, 2).chart, 4, (Fraction(1, 2), 2)),
                 (random_flat_chart(rng, 2, 3).chart, 3, (1, Fraction(-1, 3), 0)),
                 (legendre_chart(), 6, (Fraction(1, 3),))]
        builds = (connection._local_gammas, connection._local_inverses)
        expected = [build(*case) for build in builds for case in cases]
        products, expanding, expanded = [], [], []
        original_mul = TruncatedSeries.__mul__
        original_combination = TruncatedSeries.combination
        original_eval = RationalFunction.eval_all_on_jet

        def mul(self, other):
            if not expanding:
                products.append((self, other))
            return original_mul(self, other)

        def combination(cls, dims, order, pairs):
            pairs = list(pairs)
            if not expanding:
                products.extend(pairs)
            return original_combination(dims, order, pairs)

        def eval_all_on_jet(functions, jet):
            expanding.append(jet)
            expanded.append(jet)
            try:
                return original_eval(functions, jet)
            finally:
                expanding.pop()

        monkeypatch.setattr(TruncatedSeries, "__mul__", mul)
        monkeypatch.setattr(TruncatedSeries, "combination",
                            classmethod(combination))
        monkeypatch.setattr(RationalFunction, "eval_all_on_jet",
                            staticmethod(eval_all_on_jet))
        assert [build(*case) for build in builds for case in cases] \
            == expected
        assert not expanded and not products

    def test_shared_table_builds_each_point_once(self, monkeypatch):
        builds = count_builds(monkeypatch)
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
            assert builds.count((3, sigma.basepoint())) == 1
        assert len(builds) == len(set(builds)) == 2
        # a table of order r + 2 passed at order r builds once at r + 2, and
        # later calls there without a table, up to r + 2, build nothing
        del builds[:]
        sigma = random_jet(rng, rc.chart, 2, 5)
        point = sigma.basepoint()
        initial = random_invertible(rng, 2)
        beta(rc.chart, sigma.restrict(3), initial, table=build_xi(rc.chart, 5))
        assert builds == [(5, point)]
        for r in (5, 0, 4, 3):
            jet = sigma.restrict(r)
            assert beta(rc.chart, jet, initial) == series_oracle(
                rc.chart, jet, initial)
            assert check_right_equivariance(rc.chart, jet, initial,
                                            random_invertible(rng, 2))
        assert builds == [(5, point)]



class TestChartDenominator:
    """P and N_l = P A_l, the polynomial data the recurrences read."""

    @staticmethod
    def assert_cleared(chart):
        factors, cofactors = chart.factored()
        den = math.prod(factors, start=Polynomial.const(1, chart.n))
        for l in range(chart.n):
            for a_row in chart.a_matrix(l):
                for rf in a_row:
                    f = math.prod(cofactors.get(rf.den, factors), start=rf.num)
                    assert RationalFunction(f) == rf * den
        return den

    @staticmethod
    def mixed_chart(n=2):
        """Coefficients over distinct denominators, and over 1."""
        z1, z2 = Polynomial.variable(0, n), Polynomial.variable(n - 1, n)
        zero = RationalFunction.zero(n)
        if n == 1:
            coeffs = [[[RationalFunction(z1 + 2, z1 - 1)],
                       [RationalFunction(Polynomial.const(3, 1),
                                         z1 * z1 - z1)]],
                      [[RationalFunction(z1 * z1)], [zero]]]
        else:
            coeffs = [[[RationalFunction(z2, z1 + 1), zero],
                       [RationalFunction(Polynomial.const(1, 2), z1 * z2 - 2),
                        RationalFunction(z1)]],
                      [[zero, RationalFunction(z1, z1 + 1)], [zero, zero]]]
        one = RationalFunction.one(n)
        return ConnectionChart(n, 2, coeffs, 1, (2, 1),
                               [[zero, one], [-one, zero]], [[0, 1], [-1, 0]])

    def test_numerators_are_the_denominator_times_the_coefficients(self):
        rng = random.Random(71)
        assert self.assert_cleared(legendre_chart()) \
            == Polynomial(1, {(2,): 1, (1,): -1})
        assert self.assert_cleared(random_flat_chart(rng, 3, 2).chart) == 1
        chart = gauged_chart(rng, 2)
        (factor,), cofactors = chart.factored()
        assert factor.degree() == 2 and cofactors == {factor: ()}
        self.assert_cleared(chart)
        # distinct multivariate denominators multiply
        chart = self.mixed_chart()
        z1, z2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        assert self.assert_cleared(chart) == (z1 + 1) * (z1 * z2 - 2)
        # in one coordinate they have an lcm; a coefficient over 1 counts
        assert self.assert_cleared(self.mixed_chart(1)) \
            == Polynomial(1, {(2,): 1, (1,): -1})
        with pytest.raises(SingularPoint, match="connection coefficient"):
            chart.assert_regular((Fraction(-1), Fraction(3)))
        with pytest.raises(SingularPoint, match="connection coefficient"):
            chart.assert_regular((Fraction(1, 2), Fraction(4)))
        chart.assert_regular((Fraction(1, 2), Fraction(3)))

    def test_values_over_one_denominator_match_the_series_recursion(self):
        rng = random.Random(73)
        for case in range(6):
            n = 2 + case % 2
            chart = gauged_chart(rng, n)
            point = regular_point(rng, chart)
            for order in range(6 if n == 2 else 5):
                assert connection._local_gammas(chart, order, point) \
                    == reference_local_gammas(chart, order, point)
                TestInverseFrame.assert_leibniz(chart, order, point)
        # the values where they are defined, and the same verdicts past it
        verdicts = []
        for n in (1, 2):
            chart = self.mixed_chart(n)
            for _ in range(3):
                point = regular_point(rng, chart)
                for order in range(6):
                    try:
                        expected = reference_local_gammas(chart, order, point)
                    except NonIntegrable:
                        for build in (connection._local_gammas,
                                      connection._local_inverses):
                            with pytest.raises(NonIntegrable):
                                build(chart, order, point)
                        verdicts.append(order)
                        break
                    assert connection._local_gammas(chart, order, point) \
                        == expected
                    TestInverseFrame.assert_leibniz(chart, order, point)
        assert verdicts == [2, 2, 2]

    def test_beta_matches_the_oracle_at_high_order(self):
        chart = legendre_chart()
        sigma = JetPoint([TruncatedSeries(1, 60, {(0,): Fraction(1, 3),
                                                  (1,): 1, (2,): -2})])
        initial = [[Fraction(1), Fraction(2)], [Fraction(-1), Fraction(1)]]
        assert beta(chart, sigma, initial) \
            == series_oracle(chart, sigma, initial)
        rng = random.Random(79)
        chart = gauged_chart(rng, 2)
        point = regular_point(rng, chart)
        sigma = JetPoint([TruncatedSeries(1, 20, {(0,): point[0], (1,): 1}),
                          TruncatedSeries(1, 20, {(0,): point[1], (1,): -2,
                                                  (2,): 1})])
        initial = random_invertible(rng, 2)
        assert beta(chart, sigma, initial) \
            == series_oracle(chart, sigma, initial)


class TestInverseFrame:
    """K_q(s), the partials at s of the inverse of the frame that is the
    identity at s, from `_local_inverses` and `ConnectionChart.inverses_at`."""

    @staticmethod
    def assert_leibniz(chart, order, point):
        # Phi Phi^-1 = I: sum_{b <= q} C(q, b) G_b K_(q-b) = 0 for q != 0
        gammas = connection._local_gammas(chart, order, point)
        inverses = chart.inverses_at(point, order)
        m = chart.m
        for q in graded_monomials(chart.n, order):
            total = [[Fraction(0)] * m for _ in range(m)]
            for b in graded_monomials(chart.n, sum(q)):
                if all(x <= y for x, y in zip(b, q)):
                    rest = tuple(y - x for x, y in zip(b, q))
                    c = math.prod(map(math.comb, q, b))
                    total = la.mat_add(total, [[c * x for x in row] for row in
                                               la.mat_mul(gammas[b],
                                                          inverses[rest])])
            assert total == (la.identity(m) if not any(q) else
                             [[0] * m for _ in range(m)]), (q, point)

    def test_the_partials_of_the_identity(self):
        rng = random.Random(61)
        for case in range(24):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            rc = random_flat_chart(rng, m, n)
            order = rng.randint(0, 5 if n < 3 else 4)
            point = random_jet(rng, rc.chart, 1, 0).basepoint()
            self.assert_leibniz(rc.chart, order, point)
        chart = legendre_chart()
        for x in (Fraction(1, 2), Fraction(-3), Fraction(5, 7)):
            for order in (0, 3, 8):
                self.assert_leibniz(chart, order, (x,))

    def test_non_integrable_at_the_thresholds_of_the_frame(self):
        # the charts, points and orders of the G_q check above: K_q is
        # refused exactly where G_q is
        rng = random.Random(41)
        thresholds = []
        for case in range(30):
            m, n = rng.randint(1, 3), rng.randint(2, 3)
            chart = random_flat_chart(rng, m, n).chart
            if case % 3:
                chart = with_monomial(chart, rng)
            point = tuple(rng.choice((0, 0, Fraction(rng.randint(-3, 3),
                                                     rng.randint(1, 2))))
                          for _ in range(n))
            for order in range(6):
                try:
                    connection._local_gammas(chart, order, point)
                except NonIntegrable:
                    with pytest.raises(NonIntegrable):
                        connection._local_inverses(chart, order, point)
                    thresholds.append(order)
                    break
                connection._local_inverses(chart, order, point)
        assert set(thresholds) == {2, 3, 4, 5}

    def test_built_once_per_point_at_the_highest_order(self, monkeypatch):
        builds = []
        original = connection._local_inverses

        def counting(chart, order, point):
            builds.append((order, point))
            return original(chart, order, point)

        monkeypatch.setattr(connection, "_local_inverses", counting)
        gamma_builds = count_builds(monkeypatch)
        chart = legendre_chart()
        point = (Fraction(2, 7),)
        fresh = original(legendre_chart(), 6, point)
        for order in (3, 6, 2, 6, 0):
            values = chart.inverses_at(point, order)
            assert all(values[q] == fresh[q]
                       for q in graded_monomials(1, order))
        assert builds == [(3, point), (6, point)]
        assert gamma_builds == []
        record = chart._points[point]
        assert record.inverse_order == 6 and record.gammas is None


class TestPointRecords:
    def test_repeated_calls_at_one_point_build_and_check_once(self,
                                                              monkeypatch):
        chart = legendre_chart()
        dens = [rf.den for row in chart.coeffs for entry in row
                for rf in entry if rf.den.degree() > 0]
        dens += [rf.den for row in chart.gram for rf in row
                 if rf.den.degree() > 0]
        assert len(dens) == 4
        # the regularity check reads the distinct coefficient denominators
        # z - 1 and z (z - 1) of the four
        distinct = chart._denominators
        assert distinct == (Polynomial(1, {(1,): 1, (0,): -1}),
                            Polynomial(1, {(2,): 1, (1,): -1}))
        builds = count_builds(monkeypatch)
        evaluations = count_evaluations(monkeypatch, dens)
        rng = random.Random(12)
        point = (Fraction(1, 3),)
        for r in (4, 2, 4, 3, 0, 4):
            coeffs = {(k,): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for k in range(1, r + 1)}
            sigma = JetPoint([TruncatedSeries(1, r, {(0,): point[0],
                                                     **coeffs})])
            initial = random_invertible(rng, 2)
            assert beta(chart, sigma, initial) == series_oracle(
                chart, sigma, initial)
            eta_chartlocal(chart, sigma)
        assert builds == [(4, point)]
        assert evaluations == [point] * len(distinct)

    def test_higher_order_rebuilds_and_matches_a_fresh_chart(self,
                                                             monkeypatch):
        chart = legendre_chart()
        builds = count_builds(monkeypatch)
        point = Fraction(2, 7)
        initial = [[Fraction(1), Fraction(2)], [Fraction(-1), Fraction(3)]]
        beta(chart, line_jet(point, 2), initial)
        assert builds == [(2, (point,))]
        fresh = beta(legendre_chart(), line_jet(point, 5), initial)
        del builds[:]
        assert beta(chart, line_jet(point, 5), initial) == fresh
        assert builds == [(5, (point,))]
        for r in (3, 5, 0):
            assert beta(chart, line_jet(point, r), initial) \
                == fresh.restrict(r)
        assert builds == [(5, (point,))]

    def test_non_integrable_build_keeps_the_earlier_record(self,
                                                          monkeypatch):
        chart = non_integrable_chart()
        builds = count_builds(monkeypatch)

        def jet(r):
            return JetPoint([TruncatedSeries.variable(0, 2, r),
                             TruncatedSeries.variable(1, 2, r)])

        one = [[Fraction(1)]]
        assert beta(chart, jet(1), one) == MatrixJet.identity(1, 2, 1)
        for _ in range(3):
            with pytest.raises(NonIntegrable):
                beta(chart, jet(2), one)
            assert beta(chart, jet(1), one) == MatrixJet.identity(1, 2, 1)
        assert builds == [(1, (0, 0))] + [(2, (0, 0))] * 3

    def test_gram_pole_is_refused_every_time_and_never_recorded(
            self, monkeypatch):
        z = Polynomial.variable(0, 1)
        gram = RationalFunction(Polynomial.const(1, 1), z - 1)
        chart = ConnectionChart(1, 1, [[[RationalFunction(z)]]], 0, (1,),
                                [[gram]], [[1]])
        evaluations = count_evaluations(monkeypatch, [gram.den])
        builds = count_builds(monkeypatch)
        for r in range(3):
            with pytest.raises(SingularPoint, match="gram"):
                beta(chart, line_jet(1, r), [[Fraction(1)]])
            with pytest.raises(SingularPoint, match="gram"):
                series_oracle(chart, line_jet(1, r), [[Fraction(1)]])
        assert evaluations == [(1,)] * 6
        assert builds == []
        assert chart._points == {}

    def test_records_are_bounded_and_the_oldest_goes_first(self):
        chart = legendre_chart()
        bound = connection._POINT_RECORDS
        points = [(Fraction(k, 97),) for k in range(2, bound + 12)]
        for point in points:
            beta(chart, line_jet(point[0], 1), la.identity(2))
        assert list(chart._points) == points[-bound:]
        for point in points[-bound:]:
            record = chart._points[point]
            assert record.regular and record.order == 1

    def test_threads_sharing_a_chart_get_the_single_threaded_frames(self):
        points = [Fraction(k, 101) for k in range(2, 50)]
        initial = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(2)]]
        action = [[Fraction(2), Fraction(-1)], [Fraction(1), Fraction(3)]]

        def jets(x, r):
            """Two jets above x, which share its record's Taylor part."""
            return (line_jet(x, r), JetPoint([TruncatedSeries(1, r, {
                (0,): x, (1,): Fraction(-2, 3), (2,): Fraction(5)})]))

        reference = legendre_chart()
        expected = {(x, r, k): beta(reference, jet, initial)
                    for x in points for r in range(4)
                    for k, jet in enumerate(jets(x, r))}
        chart = legendre_chart()
        results, errors = [], []

        def work(offset):
            try:
                for i, x in enumerate(points[offset:] + points[:offset]):
                    r = (i + offset) % 4
                    # alternate the two jets, each through beta and the
                    # equivariance check, which reads the kept W
                    for k in (0, 1, 0, 1):
                        jet = jets(x, r)[k]
                        results.append(((x, r, k), beta(chart, jet, initial),
                                        check_right_equivariance(
                                            chart, jet, initial, action)))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * k,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 4 * 4 * len(points)
        assert all(frame == expected[key] and equivariant
                   for key, frame, equivariant in results)
        assert len(chart._points) <= connection._POINT_RECORDS


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

    @staticmethod
    def count_inversions(monkeypatch):
        inversions = []
        original = TruncatedSeries.invert_unit

        def invert_unit(self):
            inversions.append(self)
            return original(self)

        monkeypatch.setattr(TruncatedSeries, "invert_unit", invert_unit)
        return inversions

    def test_legendre_inverts_each_distinct_denominator_once(
            self, monkeypatch):
        # three of the four coefficients share lambda - 1, the fourth has
        # lambda (lambda - 1)
        chart = legendre_chart()
        entries = [rf for row in chart.coeffs for entry in row
                   for rf in entry]
        assert len(entries) == 4 and len({rf.den for rf in entries}) == 2
        sigma = line_jet(Fraction(1, 3), 5)
        expected = [series_compose(rf.num, sigma)
                    * series_compose(rf.den, sigma).invert_unit()
                    for rf in entries]
        inversions = self.count_inversions(monkeypatch)
        batch = RationalFunction.eval_all_on_jet(entries, sigma)
        assert len(inversions) == 2
        assert all(map(same_form, batch, expected))
        del inversions[:]
        assert [rf.eval_on_jet(sigma) for rf in entries] == expected
        assert len(inversions) == 4

    def test_batch_matches_the_quotient_of_compositions(self):
        rng = random.Random(59)
        x = Polynomial.variable(0, 2)
        y = Polynomial.variable(1, 2)
        dens = [Polynomial.const(1, 2), 1 + x, 2 - x * y + y * y, 1 + x]
        for case in range(20):
            d, r = rng.randint(1, 2), rng.randint(0, 4)
            sigma = JetPoint([TruncatedSeries(d, r, {
                p: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for p in graded_monomials(d, r)})
                for _ in range(2)])
            if any(den.evaluate(sigma.basepoint()) == 0 for den in dens):
                continue
            functions = [RationalFunction.zero(2)] + [
                RationalFunction(Polynomial(2, {
                    p: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for p in rng.sample(graded_monomials(2, 2), 3)}),
                    rng.choice(dens)) for _ in range(5)]
            batch = RationalFunction.eval_all_on_jet(functions, sigma)
            for f, s in zip(functions, batch):
                expected = series_compose(f.num, sigma)
                if f.den.degree() > 0:
                    expected *= series_compose(f.den, sigma).invert_unit()
                assert s == expected and same_form(s, expected)

    def test_pole_in_a_shared_denominator(self):
        lam = Polynomial.variable(0, 1)
        shared = lam - 1
        functions = [RationalFunction(Polynomial.const(1, 1), shared),
                     RationalFunction(lam, shared),
                     RationalFunction(Polynomial.const(3, 1), lam * shared),
                     RationalFunction(lam * lam)]
        for base in (1, 0):
            with pytest.raises(SingularPoint):
                RationalFunction.eval_all_on_jet(functions, line_jet(base, 3))
        assert len(RationalFunction.eval_all_on_jet(
            functions, line_jet(2, 3))) == 4


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

    def test_symbolic_initial_data_of_size_three(self):
        # the determinant of Polynomial initial data is taken over rational
        # functions: a zero pivot is swapped away, and a matrix of rank two
        # over Q(x) is refused
        rng = random.Random(12)
        rc = random_flat_chart(rng, 3, 1)
        sigma = random_jet(rng, rc.chart, 1, 2)
        x = [Polynomial.variable(i, 5) for i in range(5)]
        zero, one = Polynomial.zero(5), Polynomial.const(1, 5)
        generic = [[zero, x[0], one], [x[1], one + one, x[2]],
                   [one, x[3], x[4]]]
        assert beta(rc.chart, sigma, generic) == \
            series_oracle(rc.chart, sigma, generic)
        rank_two = generic[:2] + [[a + x[4] * b for a, b in zip(*generic[:2])]]
        with pytest.raises(SingularInitial):
            beta(rc.chart, sigma, rank_two)

    def test_polynomial_initial_data_of_size_four(self):
        # the determinant test mixes ints with the rational functions of
        # the Polynomial entries, past the 3 x 3 of the case above
        rng = random.Random(13)
        rc = random_flat_chart(rng, 4, 1)
        sigma = random_jet(rng, rc.chart, 1, 3)
        initial = [[int(i == j) for j in range(4)] for i in range(4)]
        initial[3][3] = Polynomial.variable(0, 1)
        assert beta(rc.chart, sigma, initial) == \
            series_oracle(rc.chart, sigma, initial)
        assert check_right_equivariance(rc.chart, sigma, initial,
                                        random_invertible(rng, 4))
        initial[3][3] = Polynomial.zero(1)
        with pytest.raises(SingularInitial):
            beta(rc.chart, sigma, initial)

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

    def test_non_integrable_from_the_curvature_degree(self):
        # on a threshold chart the curvature's first nonzero Taylor degree
        # at s is e; an order-r jet reads it through degree r - 2, so beta
        # refuses exactly the orders r >= e + 2 and agrees with the oracle
        # below them
        one = [[Fraction(1)]]
        for k in (1, 2, 3):
            for c in (0, 1):
                for s1, s2 in ((0, 0), (Fraction(1, 2), 0),
                               (0, Fraction(1, 3))):
                    e = (k - 1 if s2 == 0 else 0) + (s1 + c == 0)
                    chart = threshold_chart(k, c)
                    full = JetPoint([
                        TruncatedSeries(2, 6, {(0, 0): Fraction(s1),
                                               (1, 0): Fraction(1),
                                               (0, 1): Fraction(2)}),
                        TruncatedSeries(2, 6, {(0, 0): Fraction(s2),
                                               (0, 1): Fraction(1),
                                               (1, 1): Fraction(-1)})])
                    for r in range(e + 4):
                        sigma = full.restrict(r)
                        if r >= e + 2:
                            with pytest.raises(NonIntegrable):
                                beta(chart, sigma, one)
                        else:
                            assert beta(chart, sigma, one) \
                                == series_oracle(chart, sigma, one), (k, c, r)

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
        assert frame != MatrixJet(la.mat_mul(m, base.entries))

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
            left = series_oracle(rc.chart, sigma, mixed)
            f1 = series_oracle(rc.chart, sigma, m1)
            f2 = series_oracle(rc.chart, sigma, m2)
            for j in range(2):
                for k in range(2):
                    assert left.entry(j, k) == \
                        f1.entry(j, k).scale(a) + f2.entry(j, k).scale(b)

    def test_oracle_forms_only_the_degree_it_reads(self, monkeypatch):
        # every product of series the oracle forms, in the kernel
        # `series._combined`, which `*`, every combination and the Euler
        # solver run, outside the expansion of the chart's coefficients:
        # the pullback multiplies each Euler derivative
        # sum_a t_a d sigma_l / d t_a by A_l along sigma once, and every
        # other product is of two homogeneous parts whose degrees sum to
        # the degree k <= r it makes.  A kernel term (a, da, ka, b, db, kb)
        # is a product when b is a table, read as (c's table, its arity,
        # a's table, its arity) with c = b, c * a.
        rng = random.Random(16)
        rc = random_flat_chart(rng, 2, 2)
        chart, d, r = rc.chart, 2, 4
        sigma = random_jet(rng, chart, d, r)
        initial = random_invertible(rng, 2)
        expected = series_oracle(chart, sigma, initial)
        euler = [sum((TruncatedSeries.variable(a, d, r) * s.derive(a)
                      for a in range(d)), TruncatedSeries.zero(d, r))._table
                 for s in sigma.series]
        along = [rf.eval_on_jet(sigma)._table for l in range(chart.n)
                 for row in chart.a_matrix(l) for rf in row if rf]
        products, expanding = [], []
        original_kernel = series_module._combined
        original_eval = RationalFunction.eval_all_on_jet

        def kernel(dims, order, terms):
            terms = list(terms)
            if not expanding:
                products.extend((b, kb, a, ka)
                                for a, _, ka, b, _, kb in terms
                                if type(b) is not int)
            return original_kernel(dims, order, terms)

        def eval_all_on_jet(functions, jet):
            expanding.append(jet)
            try:
                return original_eval(functions, jet)
            finally:
                expanding.pop()

        monkeypatch.setattr(series_module, "_combined", kernel)
        monkeypatch.setattr(RationalFunction, "eval_all_on_jet",
                            staticmethod(eval_all_on_jet))
        assert series_oracle(chart, sigma, initial) == expected
        pullback = [(c, a) for c, _, a, _ in products if c in euler]
        assert pullback and len(pullback) <= chart.n * chart.m ** 2
        assert all(a in along for _, a in pullback)
        degrees = []
        for c, kc, a, ka in products:
            if c not in euler:
                (e,) = {p >> series_module._shift(d, kc) for p in c}
                (f,) = {p >> series_module._shift(d, ka) for p in a}
                assert e >= 1
                degrees.append(e + f)
        assert set(degrees) == set(range(1, r + 1))

    def test_oracle_matches_the_reference_loop(self):
        rng = random.Random(31)
        for case in range(30):
            m, n, d = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)
            r = rng.randint(0, 5) if case % 3 else 5
            rc = random_flat_chart(rng, m, n) if case % 2 else \
                random_n1_chart(rng, m)
            chart = rc.chart
            sigma = random_jet(rng, chart, d, r)
            initial = random_invertible(rng, m)
            singular = initial[:-1] + [[2 * x for x in initial[0]]] \
                if m > 1 else [[Fraction(0)]]
            symbolic = symbolic_initial(rng, m, 3)
            for matrix in (initial, singular, symbolic):
                assert series_oracle(chart, sigma, matrix) == \
                    reference_oracle(chart, sigma, matrix)
            frame = beta(chart, sigma, symbolic) if la.det(
                [[RationalFunction(x) for x in row] for row in symbolic]) \
                else None
            if frame is not None:
                assert frame == reference_oracle(chart, sigma, symbolic)

    def test_generic_legendre_jet_matches_the_reference_loop(self):
        # the Legendre jet with Polynomial higher coefficients of
        # TestAlpha, with rational and symbolic initial data
        chart = legendre_chart()
        a = [Polynomial.variable(i, 3) for i in range(3)]
        sigma = JetPoint([TruncatedSeries(1, 3, {
            (0,): Fraction(1, 2), (1,): a[0], (2,): a[1] * 2 + 1,
            (3,): a[2]})])
        initial = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
        symbolic = [[a[0], a[1] + 1], [Fraction(3), a[2]]]
        for matrix in (initial, symbolic):
            frame = series_oracle(chart, sigma, matrix)
            assert frame == reference_oracle(chart, sigma, matrix)
            assert frame == beta(chart, sigma, matrix)

    def test_flatness_of_oracle_output(self):
        rng = random.Random(15)
        rc = random_n1_chart(rng, 3)
        sigma = random_jet(rng, rc.chart, 2, 4)
        initial = random_invertible(rng, 3)
        frame = series_oracle(rc.chart, sigma, initial)
        assert check_flatness(rc.chart, sigma, frame)

    def test_changed_coefficient_breaks_flatness(self):
        rng = random.Random(16)
        rc = random_flat_chart(rng, 2, 2)
        sigma = random_jet(rng, rc.chart, 2, 3)
        frame = beta(rc.chart, sigma, random_invertible(rng, 2))
        assert check_flatness(rc.chart, sigma, frame)
        # one degree-1 coefficient moves the t1-derivative in degree 0
        coeffs = dict(frame.entry(1, 0).coeffs)
        coeffs[(1, 0)] = coeffs.get((1, 0), 0) + 1
        entries = [list(row) for row in frame.entries]
        entries[1][0] = TruncatedSeries(2, 3, coeffs)
        assert not check_flatness(rc.chart, sigma, MatrixJet(entries))


    def test_flatness_matches_the_full_order_reference(self):
        # a moved coefficient of degree r changes a derivative in degree
        # r - 1, so a check that cut the frame before differentiating it
        # would miss it
        rng = random.Random(41)
        verdicts = []
        for case in range(24):
            m, n, d = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)
            r = rng.randint(1, 4)
            rc = random_flat_chart(rng, m, n) if case % 3 else \
                random_n1_chart(rng, m)
            chart = rc.chart
            sigma = random_jet(rng, chart, d, r)
            frame = beta(chart, sigma, random_invertible(rng, m))
            assert check_flatness(chart, sigma, frame)
            for degree in range(r + 1):
                moved = perturbed(frame, rng, degree)
                verdict = check_flatness(chart, sigma, moved)
                assert verdict == reference_flatness(chart, sigma, moved)
                verdicts.append(verdict)
                if degree == r:
                    assert not verdict
        assert True in verdicts

    def test_flatness_over_coefficient_variables_matches_the_reference(
            self):
        # frames over Q[a_1..a_3]: from symbolic initial data, and on the
        # generic Legendre jet of the test above with rational and symbolic
        # initial data, each moved at every degree by a rational and by a
        # polynomial in the a-variables
        rng = random.Random(43)
        a = [Polynomial.variable(i, 3) for i in range(3)]
        frames = []
        for case in range(12):
            m, n, d = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)
            r = rng.randint(1, 4)
            chart = (random_flat_chart(rng, m, n) if case % 3 else
                     random_n1_chart(rng, m)).chart
            sigma = random_jet(rng, chart, d, r)
            symbolic = symbolic_initial(rng, m, 3)
            if la.det([[RationalFunction(x) for x in row]
                       for row in symbolic]):
                frames.append((chart, sigma, beta(chart, sigma, symbolic)))
        chart = legendre_chart()
        sigma = JetPoint([TruncatedSeries(1, 3, {
            (0,): Fraction(1, 2), (1,): a[0], (2,): a[1] * 2 + 1,
            (3,): a[2]})])
        for matrix in ([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]],
                       [[a[0], a[1] + 1], [Fraction(3), a[2]]]):
            frames.append((chart, sigma, beta(chart, sigma, matrix)))
        assert len(frames) >= 10
        verdicts = []
        for chart, sigma, frame in frames:
            assert check_flatness(chart, sigma, frame)
            assert reference_flatness(chart, sigma, frame)
            for degree in range(sigma.order + 1):
                for amount in (None, a[rng.randrange(3)] * rng.randint(1, 2)):
                    moved = perturbed(frame, rng, degree, amount)
                    verdict = check_flatness(chart, sigma, moved)
                    assert verdict == reference_flatness(chart, sigma, moved)
                    verdicts.append(verdict)
                    if degree == sigma.order:
                        assert not verdict
        assert True in verdicts

    def test_flatness_forms_nothing_above_order_r_minus_one(self,
                                                            monkeypatch):
        # in the kernel `series._combined`, which `*`, `+`, every
        # combination and the flatness test itself run
        rng = random.Random(16)
        rc = random_flat_chart(rng, 2, 2)
        d, r = 2, 4
        sigma = random_jet(rng, rc.chart, d, r)
        frame = beta(rc.chart, sigma, random_invertible(rng, 2))
        orders = []
        original_kernel = series_module._combined

        def kernel(dims, order, terms):
            orders.append(order)
            return original_kernel(dims, order, terms)

        monkeypatch.setattr(series_module, "_combined", kernel)
        assert check_flatness(rc.chart, sigma, frame)
        assert orders and max(orders) == r - 1

    def test_flatness_takes_no_gcd(self, monkeypatch):
        # a C_a entry and a residual are only summed and tested for
        # emptiness: `is_flat` reduces neither, flat frame or moved one
        rng = random.Random(17)
        rc = random_flat_chart(rng, 2, 2)
        sigma = random_jet(rng, rc.chart, 2, 3)
        frame = beta(rc.chart, sigma, random_invertible(rng, 2))
        moved = perturbed(frame, rng, 2, None)
        inside, reductions = [], []
        original_flat = series_module.is_flat
        original_lowest = series_module.lowest_terms

        def is_flat(forms, jet, entries):
            inside.append(1)
            try:
                return original_flat(forms, jet, entries)
            finally:
                inside.pop()

        def lowest_terms(num, den):
            if inside:
                reductions.append(den)
            return original_lowest(num, den)

        monkeypatch.setattr(connection, "is_flat", is_flat)
        monkeypatch.setattr(series_module, "lowest_terms", lowest_terms)
        assert check_flatness(rc.chart, sigma, frame)
        assert not check_flatness(rc.chart, sigma, moved)
        assert reductions == []


class TestEulerSolve:
    """`series.euler_solve` against the system it solves, read through
    public operations only."""

    def test_solves_the_euler_system_with_the_initial_value(self):
        rng = random.Random(59)
        kinds = set()
        for case in range(30):
            # S over Q, over Q[a_1] or over Q[a_1, a_2]
            arity = case % 3
            m, d, r = rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 4)
            system = []
            for _ in range(m):
                row = []
                for _ in range(m):
                    s = random_series(rng, d, r, arity)
                    # positive valuation: no constant term
                    row.append(s - s.restrict(0).zero_extended(r))
                system.append(row)
            invertible = random_invertible(rng, m)
            singular = invertible[:-1] + [[2 * x for x in invertible[0]]] \
                if m > 1 else [[Fraction(0)]]
            for kind, initial in (("rational", invertible),
                                  ("singular", singular),
                                  ("Polynomial",
                                   symbolic_initial(rng, m, arity or 2))):
                frame = euler_solve(system, initial)
                assert len(frame) == m and all(len(row) == m
                                               for row in frame)
                # E F = S F through order r, E = sum_a t_a d/dt_a
                euler = [[sum((TruncatedSeries.variable(a, d, r) * f.derive(a)
                               for a in range(d)), TruncatedSeries.zero(d, r))
                          for f in row] for row in frame]
                assert euler == la.mat_mul(system, frame)
                # F(0) = F_0
                assert [[f.restrict(0) for f in row] for row in frame] == [
                    [TruncatedSeries.const(x, d, 0) for x in row]
                    for row in initial]
                if r and any(s for row in system for s in row):
                    kinds.add(kind)
        assert kinds == {"rational", "singular", "Polynomial"}

    def test_reduces_each_part_once_and_the_union_never(self, monkeypatch):
        # one gcd per part F_k, k >= 1, of each entry; the union of an
        # entry's parts, in lowest terms with disjoint keys, is in lowest
        # terms already
        rng = random.Random(61)
        original = series_module.lowest_terms
        calls = []

        def lowest_terms(num, den):
            calls.append(den)
            return original(num, den)

        monkeypatch.setattr(series_module, "lowest_terms", lowest_terms)
        for case in range(12):
            arity = case % 3
            m, d, r = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 4)
            system = []
            for _ in range(m):
                row = []
                for _ in range(m):
                    s = random_series(rng, d, r, arity)
                    row.append(s - s.restrict(0).zero_extended(r))
                system.append(row)
            initial = symbolic_initial(rng, m, arity or 2) if case % 2 else \
                [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(m)] for _ in range(m)]
            del calls[:]
            frame = euler_solve(system, initial)
            assert len(calls) == m * m * r
            for row in frame:
                for f in row:
                    assert math.gcd(f._den, *f._table.values()) == 1
                    assert series_module.same_form(
                        f, sum(f.graded_parts(), TruncatedSeries.zero(d, r)))

    def test_refuses_a_constant_term_and_mismatched_shapes(self):
        t = TruncatedSeries.variable(0, 1, 2)
        one = TruncatedSeries.one(1, 2)
        with pytest.raises(ValueError):
            euler_solve([[t + one]], [[1]])
        with pytest.raises(ArityMismatch):
            euler_solve([[t]], [[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatch):
            euler_solve([[t, t], [t, TruncatedSeries.variable(0, 1, 3)]],
                        [[1, 0], [0, 1]])


class TestHodgeData:
    def test_a_polarization_entry_that_is_not_an_exact_integer_is_refused(
            self):
        # each passes the symmetry and degeneracy checks read exactly
        for polarization in ([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]],
                             [[0, 1.5], [-1.5, 0]], [[0, 1.0], [-1.0, 0]]):
            with pytest.raises(ValueError, match="exact integers"):
                HodgeData(2, 1, (2, 1), polarization)

    def test_exact_integers_are_kept_as_ints(self):
        hodge = HodgeData(2, 1, (2, 1), [[0, Fraction(3)], [-3, 0]])
        assert hodge.polarization == ((0, 3), (-3, 0))
        assert all(type(x) is int for row in hodge.polarization
                   for x in row)


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


    def test_matrices_of_the_wrong_size(self):
        chart = legendre_chart()
        sigma = line_jet(Fraction(1, 3), 2)
        for action in ([[1, 2]], [[1]], la.identity(3)):
            with pytest.raises(ArityMismatch,
                               match="acting matrix has the wrong size"):
                check_right_equivariance(chart, sigma, la.identity(2), action)
        # the initial matrix is checked before it is multiplied
        for initial in ([[]], [[1, 2]]):
            with pytest.raises(ArityMismatch,
                               match="initial matrix has the wrong size"):
                check_right_equivariance(chart, sigma, initial,
                                         la.identity(2))

    def test_polynomial_action_of_size_three(self):
        # the action is read over rational functions, as an initial matrix
        # is: its determinant runs Bareiss's division, which polynomials
        # do not have
        rc = random_flat_chart(random.Random(3), 3, 1)
        x = Polynomial.variable(0, 1)
        sigma = random_jet(random.Random(5), rc.chart, 1, 3)
        initial = random_invertible(random.Random(7), 3)
        action = [[x, 1, 0], [0, 1, 0], [0, 0, x + 2]]
        assert check_right_equivariance(rc.chart, sigma, initial, action)
        singular = [[x, 1, 0], [x, 1, 0], [0, 0, x + 2]]
        with pytest.raises(SingularInitial, match="acting matrix is singular"):
            check_right_equivariance(rc.chart, sigma, initial, singular)

    def test_taylor_part_is_formed_once(self, monkeypatch):
        weights = count_weights(monkeypatch)
        rng = random.Random(27)
        rc = random_flat_chart(rng, 2, 2)
        sigma = random_jet(rng, rc.chart, 2, 3)
        assert check_right_equivariance(rc.chart, sigma,
                                        random_invertible(rng, 2),
                                        random_invertible(rng, 2))
        assert len(weights) == 1

    def test_beta_and_the_check_share_one_taylor_part(self, monkeypatch):
        weights = count_weights(monkeypatch)
        rng = random.Random(31)
        rc = random_flat_chart(rng, 2, 2)
        chart = rc.chart
        sigma = random_jet(rng, chart, 2, 3)
        d, r = sigma.dims, sigma.order
        # above the same base point: another jet, the same tables at another
        # order, and a jet over Q[a_1] equal in value to sigma
        other = JetPoint([s + TruncatedSeries.variable(d - 1, d, r)
                          for s in sigma.series])
        generic = JetPoint([TruncatedSeries(d, r, {
            p: Polynomial.const(c, 1) for p, c in s.coeffs.items()})
            for s in sigma.series])
        assert generic == sigma and generic.series[0]._arity == 1
        longer = sigma.zero_extended(r + 1)
        jets = [sigma, longer, other, generic, sigma, generic]
        assert len({j.basepoint() for j in jets}) == 1
        initial = random_invertible(rng, 2)
        action = random_invertible(rng, 2)
        for jet in jets:
            before = len(weights)
            frame = beta(chart, jet, initial)
            assert check_right_equivariance(chart, jet, initial, action)
            w_matrix = connection._taylor_part(chart, jet, None)
            # beta forms W; the check and the later read reuse it
            assert len(weights) == before + 1
            assert stored_forms(frame) == stored_forms(
                beta(fresh_copy(chart), jet, initial))
            assert check_right_equivariance(fresh_copy(chart), jet, initial,
                                            action)
            assert stored_forms(w_matrix) == stored_forms(
                connection._taylor_part(fresh_copy(chart), jet, None))


class TestZeroPartials:
    """`series.taylor_sum` reads no Taylor weight for a zero partial."""

    def test_beta_reads_no_weight_of_a_zero_gamma(self, monkeypatch):
        # the nilpotent chart's frames are linear: G_q = 0 for |q| >= 2
        reads = record_weight_reads(monkeypatch, connection)
        rng = random.Random(43)
        chart = nilpotent_chart()
        for d in (1, 2, 1):
            sigma = random_jet(rng, chart, d, 5)
            initial = random_invertible(rng, 2)
            del reads[:]
            assert beta(chart, sigma, initial) == \
                nilpotent_reference(sigma, initial)
            assert reads == [(0,), (1,)]

    def test_alpha_reads_no_weight_of_a_zero_inverse_partial(self,
                                                             monkeypatch):
        # a gauged chart's inverse frames are polynomial of degree below
        # m, so K_q(s) = 0 past it; the kept values reach past the jet
        # order, where alpha reads nothing either
        reads = record_weight_reads(monkeypatch, flags)
        rng = random.Random(47)
        skipped = beyond = 0
        for case in range(8):
            rc = random_flat_chart(rng, 3 - case % 2, 1 + case % 3 // 2)
            chart, r = rc.chart, (1, 2, 4, 5)[case % 4]
            sigma = random_jet(rng, chart, 1 + case % 2, r)
            values = chart.inverses_at(sigma.basepoint(), r + 2)
            initial = random_invertible(rng, chart.m)
            del reads[:]
            flag = alpha(chart, sigma, initial)
            nonzero = [q for q in graded_monomials(chart.n, r)
                       if any(map(any, values[q]))]
            assert reads == nonzero
            skipped += len(graded_monomials(chart.n, r)) - len(nonzero)
            beyond += sum(sum(q) > r and any(map(any, x))
                          for q, x in values.items())
            assert flag == flag_of_matrix(
                chart.hodge, matrixjet_invert(beta(chart, sigma, initial)))
        assert skipped > 0 and beyond > 0


def random_series(rng, d, r, arity):
    """A series of shape (d, r) with some zero coefficients; the others are
    rational, or in Q[a_1..a_arity] when arity > 0."""
    coeffs = {}
    for mono in graded_monomials(d, r):
        if rng.random() < 0.6:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if arity:
                c = Polynomial.variable(rng.randrange(arity), arity) * c \
                    + rng.randint(-1, 1)
            coeffs[mono] = c
    return TruncatedSeries(d, r, coeffs)


def random_factor(rng, kind, rows, cols, d, r, arity):
    """A rows x cols matrix of ints, Fractions, Polynomials or series."""
    def draw():
        if kind == "int":
            return rng.randint(-2, 2)
        if kind == "Fraction":
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if kind == "Polynomial":
            x = Polynomial.variable(rng.randrange(max(arity, 1)),
                                    max(arity, 1))
            return x * rng.randint(-2, 2) + rng.randint(-2, 2)
        return random_series(rng, d, r, arity)
    return [[draw() for _ in range(cols)] for _ in range(rows)]


class TestSeriesProduct:
    """`series_product` and `MatrixJet.__mul__` against the `la.mat_mul`
    product they replace."""

    KINDS = ("int", "Fraction", "Polynomial", "series")

    def test_matches_the_matrix_product(self):
        rng = random.Random(53)
        checked = set()
        for case in range(96):
            kind = self.KINDS[case % 4]
            # rows over Q, or over Q[a]; Polynomial factors bring in Q[a]
            arity = (case // 4) % 3
            d, r = rng.randint(1, 2), rng.randint(0, 3)
            m, k = rng.randint(1, 3), rng.randint(1, 3)
            cols = k if case % 2 else rng.randint(1, 3)
            rows = [[random_series(rng, d, r, arity) for _ in range(k)]
                    for _ in range(m)]
            other = random_factor(rng, kind, k, cols, d, r, arity)
            assert connection.series_product(rows, other) \
                == la.mat_mul(rows, other), (case, kind)
            if m == k == cols:
                assert MatrixJet(rows) * other \
                    == MatrixJet(la.mat_mul(rows, other))
                if kind == "series":
                    assert MatrixJet(rows) * MatrixJet(other) \
                        == MatrixJet(la.mat_mul(rows, other))
            checked.add((kind, bool(arity), m == k))
        assert len(checked) == 16

    def test_zero_and_identity_factors(self):
        rng = random.Random(7)
        for m, k in ((1, 1), (2, 2), (3, 3), (3, 2), (2, 1)):
            rows = [[random_series(rng, 2, 3, 0) for _ in range(k)]
                    for _ in range(m)]
            assert connection.series_product(rows, la.identity(k)) == rows
            zero = TruncatedSeries.zero(2, 3)
            assert connection.series_product(rows, la.zeros(k, 2)) \
                == [[zero, zero] for _ in range(m)]
            zeros = [[zero] * k for _ in range(m)]
            assert connection.series_product(zeros, la.identity(k)) == zeros

    def test_shape_clashes(self):
        one = TruncatedSeries.one(1, 2)
        rows = [[one, one], [one, one]]
        for other in (la.identity(3), [[1, 0]], [[1, 0], [0]],
                      [[TruncatedSeries.one(1, 3)], [one]],
                      [[TruncatedSeries.one(2, 2)], [one]]):
            with pytest.raises(DimensionMismatch):
                connection.series_product(rows, other)
        with pytest.raises(DimensionMismatch):
            connection.series_product([[one], [one, one]], la.identity(2))


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
        # a matrix jet may have a singular constant term; its inverse may not
        jet = MatrixJet([[TruncatedSeries(1, 1, {(1,): 1})]])
        with pytest.raises(SingularInitial):
            matrixjet_invert(jet)
        ones = MatrixJet.from_constant([[1, 1], [1, 1]], 2, 1)
        assert ones.constant_matrix() == [[1, 1], [1, 1]]
        with pytest.raises(SingularInitial):
            matrixjet_invert(ones)


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
