import random
from fractions import Fraction
from itertools import combinations

import pytest

import jetforge.flags as flags
import jetforge.linalg as la
import jetforge.connection as connection
from jetforge.connection import (ConnectionChart, MatrixJet, beta,
                                 matrixjet_invert, series_oracle)
from jetforge.errors import (ArityMismatch, CongruenceSearchExhausted,
                             JetforgeError, NonIntegrable, NoRationalFvPoint,
                             NoValidChart, SingularInitial, SingularPoint)
from jetforge.examples import legendre_chart, nilpotent_chart
from jetforge.flags import (FlagChart, FlagJet, HodgeData, TorsorPoint,
                            alpha, check_fv, check_hr1, eta_chartlocal,
                            flag_of_matrix)
from jetforge.poly import Polynomial, graded_monomials
from jetforge.ratfunc import RationalFunction
from jetforge.series import JetPoint, TruncatedSeries
from jetforge.verify import (random_flat_chart, random_invertible, random_jet,
                             random_n1_chart)


def weight1_data(m=2):
    return HodgeData(2, 1, (2, 1), [[0, 1], [-1, 0]])


def weight2_data():
    return HodgeData(3, 2, (3, 2, 1), [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def rand_series(rng, d, r, include_const=None):
    coeffs = {mono: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
              for mono in graded_monomials(d, r) if rng.random() < 0.7}
    if include_const is not None:
        coeffs[(0,) * d] = include_const
    return TruncatedSeries(d, r, coeffs)


def subset_scan_chart(hodge, constant_matrix):
    """The chart rule by scanning every pivot set in lexicographic order:
    the reference for `flags.select_chart`."""
    pivot_sets = []
    prev = ()
    for size in hodge.step_sizes():
        chosen = None
        for cand in combinations(range(hodge.m), size):
            if not set(prev) <= set(cand):
                continue
            minor = [[constant_matrix[row][col] for col in range(size)]
                     for row in cand]
            if la.det(minor):
                chosen = cand
                break
        if chosen is None:
            raise NoValidChart("no pivot set has an invertible constant minor")
        pivot_sets.append(chosen)
        prev = chosen
    return FlagChart(pivot_sets)


class TestFlagOfMatrix:
    def test_identity_line(self):
        flag = flag_of_matrix(weight1_data(), la.identity(2))
        assert flag.chart.pivot_sets == ((0,),)
        assert flag.coords == {}

    def test_period_ratio_slot(self):
        tau = Fraction(7, 3)
        flag = flag_of_matrix(weight1_data(), [[1, 0], [tau, 1]])
        assert flag.chart.pivot_sets == ((0,),)
        assert flag.coords == {(1, 0): TruncatedSeries.const(tau, 1, 0)}

    @pytest.mark.parametrize("key", [(1, 5), (0, 0), (1, -1)])
    def test_rejects_coordinates_outside_representative(self, key):
        # the representative of a line in the ((0,),) chart has one column
        # whose pivot row 0 is implicit; only (1, 0) is a coordinate
        one = TruncatedSeries.one(1, 0)
        FlagJet(weight1_data(), FlagChart([(0,)]), {(1, 0): one}, 1, 0)
        with pytest.raises(ValueError, match="echelon representative"):
            FlagJet(weight1_data(), FlagChart([(0,)]), {key: one}, 1, 0)

    @pytest.mark.parametrize("pivot", [2, 5, -1])
    def test_rejects_pivot_rows_outside_the_frame(self, pivot):
        # with no pivot entry the representative is not a flag of the frame
        one = TruncatedSeries.one(1, 0)
        with pytest.raises(ValueError, match="pivot row outside"):
            FlagJet(weight1_data(), FlagChart([(pivot,)]), {(1, 0): one},
                    1, 0)

    def test_pivot_fallback(self):
        flag = flag_of_matrix(weight1_data(), [[0, 1], [1, 0]])
        assert flag.chart.pivot_sets == ((1,),)

    def test_block_unipotent_invariance(self):
        rng = random.Random(3)
        hodge = weight2_data()
        d, r = 1, 3
        for _ in range(8):
            entries = [[rand_series(rng, d, r) for _ in range(3)]
                       for _ in range(3)]
            for i in range(3):
                entries[i][i] = entries[i][i] + TruncatedSeries.const(
                    Fraction(4), d, r)
            jet = MatrixJet(entries)
            # block partition (1, 1, 1) from dims (3, 2, 1): any upper
            # unitriangular jet preserves all leading column blocks
            one = TruncatedSeries.one(d, r)
            zero = TruncatedSeries.zero(d, r)
            u = [[one if i == j else (rand_series(rng, d, r) if j > i else zero)
                  for j in range(3)] for i in range(3)]
            assert flag_of_matrix(hodge, jet * MatrixJet(u)) == \
                flag_of_matrix(hodge, jet)

    def test_nested_pivot_selection_is_lex_smallest(self):
        hodge = weight2_data()
        # first column forces the deepest pivot to row 1
        matrix = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        flag = flag_of_matrix(hodge, matrix)
        assert flag.chart.pivot_sets == ((1,), (0, 1))

    def test_select_chart_matches_the_subset_scan(self):
        rng = random.Random(2026)
        counts = {"chart": 0, "none": 0}
        for _ in range(600):
            m = rng.randint(1, 6)
            levels = rng.sample(range(1, m), rng.randint(0, m - 1))
            hodge = HodgeData(m, 0, (m, *sorted(levels, reverse=True)),
                              [[int(i == j) for j in range(m)]
                               for i in range(m)])
            density = rng.choice([0.2, 0.5, 1.0])
            matrix = [[Fraction(rng.randint(-2, 2))
                       if rng.random() < density else Fraction(0)
                       for _ in range(m)] for _ in range(m)]
            if rng.random() < 0.25:   # dense and of rank below m
                k = rng.randint(1, m)
                matrix = la.mat_mul(
                    [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m)],
                    [[rng.randint(-2, 2) for _ in range(m)] for _ in range(k)])
            try:
                expected = subset_scan_chart(hodge, matrix)
            except NoValidChart:
                with pytest.raises(NoValidChart):
                    flags.select_chart(hodge, matrix)
                counts["none"] += 1
            else:
                assert flags.select_chart(hodge, matrix) == expected
                counts["chart"] += 1
        assert min(counts.values()) > 100, counts

    def test_representative_prefix_spans(self):
        hodge = weight2_data()
        matrix = [[2, 1, 0], [1, 1, 1], [0, 3, 1]]
        flag = flag_of_matrix(hodge, matrix)
        rep = flag.representative()
        # first column proportional to first input column, pivot normalized
        pivots = flag.chart.pivot_sets[0]
        pivot = pivots[0]
        scale = Fraction(matrix[pivot][0])
        for row in range(3):
            assert rep[row][0].constant_term() == Fraction(matrix[row][0]) / scale

    def _assert_canonical(self, hodge, jet):
        from jetforge.connection import invert_series_matrix
        flag = flag_of_matrix(hodge, jet)
        rep = flag.representative()
        d, r = jet.dims, jet.order
        one = TruncatedSeries.one(d, r)
        zero = TruncatedSeries.zero(d, r)
        sizes = hodge.step_sizes()
        # pivot pattern: within a step, each column is a unit vector on the
        # step's pivot rows
        col = 0
        prev = ()
        for i, pivots in enumerate(flag.chart.pivot_sets):
            for row_added in [p for p in pivots if p not in prev]:
                for other in pivots:
                    expected = one if other == row_added else zero
                    assert rep[other][col] == expected
                col += 1
            prev = pivots
        # prefix spans: the first s columns of the representative are an
        # invertible column transform of the first s input columns
        for i, size in enumerate(sizes):
            pivots = flag.chart.pivot_sets[i]
            minor = [[jet.entry(row, c) for c in range(size)]
                     for row in pivots]
            transform = invert_series_matrix(minor)
            target = [[rep[row][c] for c in range(size)] for row in pivots]
            import jetforge.linalg as la_
            t = la_.mat_mul(transform, target)
            recon = la_.mat_mul([[jet.entry(row, c) for c in range(size)]
                                 for row in range(hodge.m)], t)
            for row in range(hodge.m):
                for c in range(size):
                    assert recon[row][c] == rep[row][c]

    def test_canonical_form_on_wide_steps(self):
        # a single filtration step of dimension two: two pivot rows enter at
        # once and the echelon columns must be normalized per pivot row
        rng = random.Random(27)
        hodge = HodgeData(4, 1, (4, 2),
                          [[0, 0, 1, 0], [0, 0, 0, 1],
                           [-1, 0, 0, 0], [0, -1, 0, 0]])
        for _ in range(6):
            entries = [[rand_series(rng, 1, 2) for _ in range(4)]
                       for _ in range(4)]
            for i in range(4):
                entries[i][i] = entries[i][i] + TruncatedSeries.const(
                    Fraction(5), 1, 2)
            self._assert_canonical(hodge, MatrixJet(entries))

    def test_canonical_form_on_nested_steps(self):
        rng = random.Random(33)
        hodge = weight2_data()
        for _ in range(6):
            entries = [[rand_series(rng, 2, 2) for _ in range(3)]
                       for _ in range(3)]
            for i in range(3):
                entries[i][i] = entries[i][i] + TruncatedSeries.const(
                    Fraction(4), 2, 2)
            self._assert_canonical(hodge, MatrixJet(entries))


class TestHr1:
    def test_weight1_line_is_isotropic(self):
        assert check_hr1(weight1_data(), flag_of_matrix(weight1_data(),
                                                        la.identity(2)))

    def test_weight2_violating_flag(self):
        hodge = weight2_data()
        good = flag_of_matrix(hodge, la.identity(3))
        assert check_hr1(hodge, good)
        violating = flag_of_matrix(hodge, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert not check_hr1(hodge, violating)

    def test_pairing_that_fails_first_at_degree_one(self):
        # the line e0 + t e1 pairs with the plane <e0 + t e1, e1> to t
        hodge = weight2_data()
        chart = FlagChart([(0,), (0, 1)])
        slope = TruncatedSeries(1, 1, {(1,): 1})
        assert check_hr1(hodge, FlagJet(hodge, chart,
                                        {(1, 0): slope.restrict(0)}, 1, 0))
        assert not check_hr1(hodge, FlagJet(hodge, chart, {(1, 0): slope},
                                            1, 1))

    def test_alpha_lands_in_hr1_locus(self):
        rng = random.Random(9)
        for _ in range(6):
            rc = random_flat_chart(rng, rng.choice([2, 3]), rng.randint(1, 2),
                                   hodge_aligned=True)
            sigma = random_jet(rng, rc.chart, rng.randint(1, 2),
                               rng.randint(0, 4))
            initial = rc.gauge_at(sigma.basepoint())
            assert check_fv(rc.chart, sigma.basepoint(), initial)
            flag = alpha(rc.chart, sigma, initial)
            assert check_hr1(HodgeData.of_chart(rc.chart), flag)


class TestFv:
    def test_identity_on_matching_gram(self):
        chart = nilpotent_chart()
        assert check_fv(chart, (Fraction(0),), la.identity(2))

    def test_unimodular_preserves_symplectic(self):
        chart = nilpotent_chart()
        m = [[Fraction(2), Fraction(1)], [Fraction(3), Fraction(2)]]  # det 1
        assert check_fv(chart, (Fraction(0),), m)

    def test_scaling_fails(self):
        chart = nilpotent_chart()
        m = [[Fraction(2), 0], [0, Fraction(2)]]
        assert not check_fv(chart, (Fraction(0),), m)

    def test_a_pole_of_the_connection_is_refused(self):
        # the Legendre Gram is constant, so without the check the torsor
        # condition would answer at the poles 0 and 1 of the connection
        chart = legendre_chart()
        base = [[Fraction(1), 0], [0, Fraction(1, 4)]]
        for pole in (0, 1):
            with pytest.raises(SingularPoint, match="pole"):
                check_fv(chart, (Fraction(pole),), base)
        assert check_fv(chart, (Fraction(2),), base)
        assert not check_fv(chart, (Fraction(2),), la.identity(2))

    def test_right_action_preserves_fibre(self):
        rng = random.Random(12)
        chart = legendre_chart()
        point = (Fraction(1, 2),)
        base = [[Fraction(1), 0], [0, Fraction(1, 4)]]
        assert check_fv(chart, point, base)
        for _ in range(8):
            # random integer symplectic from elementary generators
            action = la.identity(2)
            for _ in range(4):
                shear = la.identity(2)
                if rng.random() < 0.5:
                    shear[0][1] = Fraction(rng.randint(-3, 3))
                else:
                    shear[1][0] = Fraction(rng.randint(-3, 3))
                action = la.mat_mul(action, shear)
            assert la.det(action) == 1
            moved = la.mat_mul(base, action)
            assert check_fv(chart, point, moved)


class TestAlpha:
    def test_order_zero_flag_of_inverse(self):
        chart = nilpotent_chart()
        sigma = JetPoint([TruncatedSeries.const(Fraction(0), 1, 0)])
        m = [[Fraction(1), 0], [Fraction(5), Fraction(1)]]
        flag = alpha(chart, sigma, m)
        direct = flag_of_matrix(HodgeData.of_chart(chart), la.invert(m))
        assert flag == direct

    def test_dual_route_equality(self):
        rng = random.Random(15)
        for _ in range(6):
            rc = random_flat_chart(rng, rng.choice([2, 3]), rng.randint(1, 2))
            chart = rc.chart
            sigma = random_jet(rng, chart, rng.randint(1, 2), rng.randint(0, 3))
            initial = random_invertible(rng, chart.m)
            hodge = HodgeData.of_chart(chart)
            via_beta = flag_of_matrix(
                hodge, matrixjet_invert(beta(chart, sigma, initial)))
            via_oracle = flag_of_matrix(
                hodge, matrixjet_invert(series_oracle(chart, sigma, initial)))
            assert via_beta == via_oracle

    def test_symbolic_higher_coefficients_at_a_rational_base_point(self):
        # the base point of such a jet reads as rationals, so the chart's
        # regularity check, both frame routes and alpha all run
        chart = legendre_chart()
        a = [Polynomial.variable(i, 3) for i in range(3)]
        sigma = JetPoint([TruncatedSeries(1, 3, {
            (0,): Fraction(1, 2), (1,): a[0], (2,): a[1] * 2 + 1,
            (3,): a[2]})])
        assert sigma.basepoint() == (Fraction(1, 2),)
        assert type(sigma.basepoint()[0]) is Fraction
        initial = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
        frame = beta(chart, sigma, initial)
        assert frame == series_oracle(chart, sigma, initial)
        hodge = HodgeData.of_chart(chart)
        flag = alpha(chart, sigma, initial)
        assert flag == flag_of_matrix(hodge, matrixjet_invert(frame))
        witness = eta_chartlocal(chart, sigma)
        assert check_hr1(hodge, witness.flag)

    def test_legendre_tau_slot_is_solution_ratio(self):
        chart = legendre_chart()
        sigma = JetPoint([TruncatedSeries(1, 3, {(0,): Fraction(1, 2), (1,): 1})])
        initial = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        flag = alpha(chart, sigma, initial)
        inverse = matrixjet_invert(beta(chart, sigma, initial))
        h11 = inverse.entry(0, 0)
        h21 = inverse.entry(1, 0)
        pivot = flag.chart.pivot_sets[0][0]
        coord = flag.coords[(1 - pivot, 0)]
        if pivot == 0:
            assert coord == h21 * h11.invert_unit()
        else:
            assert coord == h11 * h21.invert_unit()


def fresh_chart(chart):
    """The same chart, with no point records."""
    hodge = chart.hodge
    return ConnectionChart(chart.n, chart.m, chart.coeffs, hodge.weight,
                           hodge.filtration_dims, chart.gram,
                           hodge.polarization, chart.variables)


def outcome(route, *args):
    """What a route answers: its value, or the class and message of the
    library error it raises."""
    try:
        return route(*args)
    except JetforgeError as exc:
        return type(exc), str(exc)


def inverted_frame_flag(chart, sigma, matrix):
    """The flag of the inverse of `beta`'s frame jet: what alpha answers,
    errors included, by inverting the frame."""
    return flag_of_matrix(chart.hodge,
                          matrixjet_invert(beta(chart, sigma, matrix)))


def stored_forms(flag):
    """The chart of a flag jet and the stored form of each coordinate."""
    return flag.chart, {key: (s.dims, s.order, s._table, s._den, s._arity)
                        for key, s in flag.coords.items()}


class TestAlphaFromTheInverseFrame:
    """alpha reads the partials K_q of the inverse frame and no frame jet."""

    def test_matches_the_inverted_oracle_frame(self, monkeypatch):
        rng = random.Random(24)
        cases = []
        for case in range(300):
            m, n = rng.randint(1, 3), rng.randint(1, 2)
            # free charts on a line, and gauged ones, some hodge-aligned
            if n == 1 and case % 3 == 0:
                chart = random_n1_chart(rng, m).chart
            else:
                chart = random_flat_chart(rng, m, n,
                                          hodge_aligned=case % 3 == 1).chart
            sigma = random_jet(rng, chart, rng.randint(1, 2), rng.randint(0, 6))
            cases.append((chart, sigma, random_invertible(rng, m)))
        chart = legendre_chart()
        for r in range(13):
            sigma = JetPoint([TruncatedSeries(1, r, {
                (0,): Fraction(1, 3), (1,): 1, (2,): Fraction(-1, 2)})])
            cases.append((chart, sigma, random_invertible(rng, 2)))
        a = [Polynomial.variable(i, 2) for i in range(2)]
        cases += [(chart, JetPoint([TruncatedSeries(1, r, {
            (0,): Fraction(2, 5), (1,): a[0], (2,): a[1] * 3 - 1,
            (3,): a[0] * a[1]})]), [[Fraction(1), Fraction(2)],
                                     [Fraction(-1), Fraction(1)]])
                  for r in range(5)]
        expected = [stored_forms(flag_of_matrix(chart.hodge, matrixjet_invert(
            series_oracle(chart, sigma, matrix))))
            for chart, sigma, matrix in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("alpha formed the frame jet")

        sizes = []
        watched = flags.invert_series_matrix

        def watching(entries):
            sizes.append((len(entries), m))
            return watched(entries)

        monkeypatch.setattr(connection, "beta", refuse)
        monkeypatch.setattr(flags, "beta", refuse)
        monkeypatch.setattr(connection, "invert_series_matrix", watching)
        monkeypatch.setattr(flags, "invert_series_matrix", watching)
        for (chart, sigma, matrix), want in zip(cases, expected):
            m = chart.m
            assert stored_forms(alpha(fresh_chart(chart), sigma, matrix)) \
                == want
        # only the pivot minors of the flag are inverted
        assert sizes and all(size < m for size, m in sizes)

    def test_errors_keep_their_class_message_and_order(self):
        # a chart that fails the mixed-partial condition and has a pole
        # along z1 = 1: A_1 = z2 / (z1 - 1), A_2 = 0
        z1, z2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        zero = RationalFunction.zero(2)
        chart = ConnectionChart(2, 1, [[[RationalFunction(-z2, z1 - 1), zero]]],
                                0, (1,), [[RationalFunction.one(2)]], [[1]])
        a = Polynomial.variable(0, 2)

        def jet(base, r):
            return JetPoint([TruncatedSeries(2, r, {(0, 0): base, (1, 0): 1}),
                             TruncatedSeries(2, r, {(0, 1): 1})])

        cases = [
            (jet(1, 2), [[Fraction(1), 0]]),             # matrix shape
            (JetPoint([TruncatedSeries(2, 2, {})]), [[0]]),   # jet arity
            (jet(1, 2), [[0]]),                          # singular M
            (jet(1, 2), [[a]]),                          # pole
            (jet(0, 2), [[a]]),                          # curvature, r = 2
            (jet(0, 1), [[a]]),                          # entry not constant
            (jet(0, 1), [[Polynomial.const(3, 2)]]),     # answered
        ]
        seen = set()
        for sigma, matrix in cases:
            want = outcome(inverted_frame_flag, fresh_chart(chart), sigma,
                           matrix)
            assert outcome(alpha, fresh_chart(chart), sigma, matrix) == want
            seen.add(want[0] if isinstance(want, tuple) else None)
        assert seen == {ArityMismatch, SingularInitial, SingularPoint,
                        NonIntegrable, None}

    def test_constant_polynomial_entries_are_read_as_rationals(self):
        chart = legendre_chart()
        sigma = JetPoint([TruncatedSeries(1, 3, {(0,): Fraction(1, 2),
                                                 (1,): 1})])
        half = Polynomial.const(Fraction(1, 2), 2)
        for matrix in ([[Polynomial.const(1, 2), 0],
                        [0, Polynomial.const(Fraction(1, 4), 2)]],
                       [[half, Polynomial.zero(2)], [Fraction(3), half]]):
            rational = [[x.constant_term() if isinstance(x, Polynomial) else x
                         for x in row] for row in matrix]
            flag = alpha(chart, sigma, matrix)
            assert flag == inverted_frame_flag(chart, sigma, matrix)
            assert stored_forms(flag) == stored_forms(
                inverted_frame_flag(chart, sigma, rational))
        with pytest.raises(SingularInitial, match="rational constant terms"):
            alpha(chart, sigma, [[Polynomial.variable(0, 2), 0], [0, 1]])


class TestEta:
    def test_matching_gram_gives_identity(self):
        chart = nilpotent_chart()
        sigma = JetPoint([TruncatedSeries(1, 2, {(1,): 1})])
        witness = eta_chartlocal(chart, sigma)
        assert witness.point.matrix == tuple(
            tuple(row) for row in la.identity(2))
        assert check_hr1(HodgeData.of_chart(chart), witness.flag)

    def test_scaled_symplectic_closed_form(self):
        chart = legendre_chart()
        sigma = JetPoint([TruncatedSeries(1, 3, {(0,): Fraction(1, 2), (1,): 1})])
        witness = eta_chartlocal(chart, sigma)
        mstar = [list(row) for row in witness.point.matrix]
        gram = chart.gram_at((Fraction(1, 2),))
        check = la.mat_mul(la.transpose(mstar), la.mat_mul(gram, mstar))
        assert la.mat_eq(check, [[Fraction(0), Fraction(1)],
                                 [Fraction(-1), Fraction(0)]])
        assert check_hr1(HodgeData.of_chart(chart), witness.flag)

    def test_non_congruent_gram_is_certified(self):
        zero = RationalFunction.zero(1)
        three = RationalFunction.const(3, 1)
        from jetforge.connection import ConnectionChart
        chart = ConnectionChart(
            1, 2, [[[zero], [zero]], [[zero], [zero]]], weight=2,
            filtration_dims=(2, 1), gram=[[three, zero], [zero, three]],
            polarization=[[1, 0], [0, 1]])
        sigma = JetPoint([TruncatedSeries(1, 1, {(1,): 1})])
        with pytest.raises(NoRationalFvPoint) as raised:
            eta_chartlocal(chart, sigma)
        # the size-two decision is complete, so the miss is a proof
        assert not isinstance(raised.value, CongruenceSearchExhausted)

    def test_torsor_point_is_found_once_per_base_point(self, monkeypatch):
        chart = legendre_chart()
        calls = []
        original = flags.solve_congruence

        def counting(g, q, weight):
            calls.append(g)
            return original(g, q, weight)

        monkeypatch.setattr(flags, "solve_congruence", counting)
        witnesses = [eta_chartlocal(chart, JetPoint([TruncatedSeries(
            1, r, {(0,): Fraction(1, 3), (1,): 1})])) for r in range(6)]
        assert len(calls) == 1
        assert len({w.point.matrix for w in witnesses}) == 1
        # a new base point runs the search again
        eta_chartlocal(chart, JetPoint([TruncatedSeries(
            1, 2, {(0,): Fraction(1, 4), (1,): 1})]))
        assert len(calls) == 2

    def test_a_recorded_miss_raises_the_same_error(self, monkeypatch):
        zero = RationalFunction.zero(1)
        three = RationalFunction.const(3, 1)
        from jetforge.connection import ConnectionChart
        chart = ConnectionChart(
            1, 2, [[[zero], [zero]], [[zero], [zero]]], weight=2,
            filtration_dims=(2, 1), gram=[[three, zero], [zero, three]],
            polarization=[[1, 0], [0, 1]])
        sigma = JetPoint([TruncatedSeries(1, 1, {(1,): 1})])
        with pytest.raises(NoRationalFvPoint) as first:
            eta_chartlocal(chart, sigma)

        def refuse(g, q, weight):
            raise AssertionError("the search ran again")

        monkeypatch.setattr(flags, "solve_congruence", refuse)
        with pytest.raises(NoRationalFvPoint) as again:
            eta_chartlocal(chart, sigma)
        assert type(again.value) is type(first.value)
        assert str(again.value) == str(first.value)

    def test_torsor_point_validation(self):
        chart = nilpotent_chart()
        sigma = JetPoint([TruncatedSeries(1, 1, {(1,): 1})])
        TorsorPoint.validated(chart, sigma, la.identity(2))
        with pytest.raises(ValueError):
            TorsorPoint.validated(chart, sigma,
                                  [[Fraction(2), 0], [0, Fraction(2)]])


class TestGramPattern:
    def test_builtin_charts_have_the_pattern(self):
        from jetforge.flags import gram_obeys_first_relation
        assert gram_obeys_first_relation(legendre_chart())
        assert gram_obeys_first_relation(nilpotent_chart())

    def test_identity_gram_breaks_the_pattern_in_weight_two(self):
        from jetforge.connection import ConnectionChart
        from jetforge.flags import gram_obeys_first_relation
        zero = RationalFunction.zero(1)
        one = RationalFunction.one(1)
        gram = [[one if i == j else zero for j in range(3)] for i in range(3)]
        chart = ConnectionChart(
            1, 3, [[[zero] for _ in range(3)] for _ in range(3)], weight=2,
            filtration_dims=(3, 2, 1), gram=gram,
            polarization=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert not gram_obeys_first_relation(chart)
