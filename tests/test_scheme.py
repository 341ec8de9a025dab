import gc
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

import jetforge.scheme as scheme_module
from jetforge.errors import (ArityMismatch, BasepointNotOnScheme,
                             OrderMismatch, OrderTooLow)
from jetforge.poly import Polynomial, graded_monomials
from jetforge.ratfunc import RationalFunction
from jetforge.scheme import (AffineMap, AffineScheme, apply_prolonged,
                             dimension_witness, is_compatible,
                             is_nondegenerate, jet_membership, jet_prolong,
                             jet_prolong_universal, jet_space_equations,
                             jet_space_equations_universal, jet_to_coords,
                             coords_to_jet, tangent_rows)
from jetforge.series import (JetPoint, TruncatedSeries, same_form,
                             series_compose, taylor_weights)
from jetforge.verify import (rand_fraction, rand_poly,
                             run_prolong_functoriality_suite, run_tower_suite,
                             run_universal_route_suite)


def P(arity, terms):
    return Polynomial(arity, terms)


def running_sum_taylor(f, sigma):
    """The Taylor route as a running sum: w_q times d_q f at the symbolic
    base point is scaled and added one multi-degree q at a time."""
    n, r = sigma.n, sigma.order
    ell = len(graded_monomials(sigma.dims, r))
    base_index = [i * ell for i in range(n)]
    weight = taylor_weights(sigma.offsets())
    result = TruncatedSeries.zero(sigma.dims, r)
    for q in graded_monomials(n, r):
        part = f
        for l, e in enumerate(q):
            for _ in range(e):
                part = part.derivative(l)
        if not part.is_zero():
            result = result + weight(q).scale(
                part.rename_into(n * ell, base_index))
    return result


def circle_scheme():
    return AffineScheme(2, [P(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})],
                        names=("x", "y"))


def circle_parametrization():
    # ((1 - u^2)/(1 + u^2), 2u/(1 + u^2)) through (1, 0)
    den = P(1, {(0,): 1, (2,): 1})
    return [RationalFunction(P(1, {(0,): 1, (2,): -1}), den),
            RationalFunction(P(1, {(1,): 2}), den)]


class TestJetSpaceEquations:
    def test_circle_first_order(self):
        system = jet_space_equations(circle_scheme(), 1, 1)
        assert list(system.names) == ["a_x_0", "a_x_1", "a_y_0", "a_y_1"]
        expected = [
            P(4, {(2, 0, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 0): -1}),
            P(4, {(1, 1, 0, 0): 2, (0, 0, 1, 1): 2}),
        ]
        assert list(system.equations) == expected

    def test_affine_space_is_cut_out_by_nothing(self):
        system = jet_space_equations(AffineScheme(2, []), 2, 3)
        assert system.equations == ()

    def test_xy_order_two(self):
        system = jet_space_equations(
            AffineScheme(2, [P(2, {(1, 1): 1})], names=("x", "y")), 1, 2)
        expected = [
            P(6, {(1, 0, 0, 1, 0, 0): 1}),
            P(6, {(1, 0, 0, 0, 1, 0): 1, (0, 1, 0, 1, 0, 0): 1}),
            P(6, {(1, 0, 0, 0, 0, 1): 1, (0, 1, 0, 0, 1, 0): 1,
                  (0, 0, 1, 1, 0, 0): 1}),
        ]
        assert list(system.equations) == expected

    def test_names_must_match_the_dimension(self):
        with pytest.raises(ArityMismatch):
            AffineScheme(2, [], names=("x",))

    def test_order_zero_recovers_generators(self):
        scheme = circle_scheme()
        system = jet_space_equations(scheme, 2, 0)
        assert len(system.equations) == 1
        assert system.equations[0].terms == scheme.equations[0].terms

    def test_equation_count_is_monomials_times_generators(self):
        rng = random.Random(44)
        import math
        for _ in range(6):
            scheme = AffineScheme(2, [rand_poly(rng, 2, 2),
                                      rand_poly(rng, 2, 3)])
            d, r = rng.randint(1, 2), rng.randint(0, 3)
            system = jet_space_equations(scheme, d, r)
            ell = math.comb(r + d, d)
            assert len(system.equations) == ell * len(scheme.equations)
            assert len(system.names) == ell * scheme.n


class TestProlong:
    def test_squaring(self):
        sq = AffineMap(1, 1, [P(1, {(2,): 1})])
        pmap = jet_prolong(sq, 1, 1)
        assert pmap.components[0] == P(2, {(2, 0): 1})
        assert pmap.components[1] == P(2, {(1, 1): 2})

    def test_identity(self):
        ident = jet_prolong(AffineMap.identity(2), 1, 2)
        jet = JetPoint([
            TruncatedSeries(1, 2, {(0,): 1, (1,): 2, (2,): 3}),
            TruncatedSeries(1, 2, {(0,): -1, (2,): Fraction(1, 2)})])
        assert apply_prolonged(ident, jet, 2) == jet

    def test_product_map_on_jet(self):
        prod = AffineMap(2, 1, [P(2, {(1, 1): 1})])
        pmap = jet_prolong(prod, 1, 2)
        jet = JetPoint([TruncatedSeries(1, 2, {(0,): 1, (1,): 1}),
                        TruncatedSeries(1, 2, {(0,): 1, (1,): -1})])
        image = apply_prolonged(pmap, jet, 1)
        assert image == JetPoint([TruncatedSeries(1, 2, {(0,): 1, (2,): -1})])

    def test_apply_checks_the_number_of_coordinates(self):
        with pytest.raises(ArityMismatch):
            jet_prolong(AffineMap.identity(2), 1, 1).apply((1, 2))

    def test_functoriality_suite(self):
        report = run_prolong_functoriality_suite(seed=101, count=12)
        assert report.ok, [c.name for c in report.failures]


class TestUniversalRoutes:
    def test_circle_matches_direct(self):
        direct = jet_space_equations(circle_scheme(), 1, 1)
        universal = jet_space_equations_universal(circle_scheme(), 1, 1)
        assert direct.normalized() == universal.normalized()

    def test_linear_map_exact_at_all_orders(self):
        linear = AffineMap(2, 2, [P(2, {(1, 0): 2, (0, 1): -1}),
                                  P(2, {(0, 1): 3})])
        for r in range(4):
            assert jet_prolong(linear, 1, r) == \
                jet_prolong_universal(linear, 1, r)

    def test_random_dense_cubic(self):
        rng = random.Random(77)
        cubic = AffineScheme(2, [rand_poly(rng, 2, 3, density=1.0)])
        direct = jet_space_equations(cubic, 2, 3)
        universal = jet_space_equations_universal(cubic, 2, 3)
        assert direct.normalized() == universal.normalized()

    def test_randomized_suite(self):
        report = run_universal_route_suite(seed=55, count=16)
        assert report.ok, [c.name for c in report.failures]

    def test_each_taylor_partial_is_one_derivative_of_its_parent(
            self, monkeypatch):
        # 34 monomials q with 0 < |q| <= 4 in 3 variables, one derivative
        # each
        calls = []
        derivative = Polynomial.derivative

        def counted(self, index):
            calls.append(index)
            return derivative(self, index)

        cubic = Polynomial(3, {q: 1 for q in graded_monomials(3, 3)})
        monkeypatch.setattr(Polynomial, "derivative", counted)
        jet_prolong_universal(AffineMap(3, 1, [cubic]), 2, 4)
        assert len(calls) == 34

    def test_taylor_route_matches_the_running_sum(self):
        rng = random.Random(23)
        for _ in range(12):
            n, d, r = rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 3)
            sigma = scheme_module.generic_jet(n, d, r)
            polys = [rand_poly(rng, n, 3) for _ in range(2)]
            for f in polys:
                assert scheme_module._taylor_compose_all(
                    [f], sigma, taylor_weights(sigma.offsets())) == \
                    [running_sum_taylor(f, sigma)]
            amap = AffineMap(n, 2, polys)
            assert list(jet_prolong_universal(amap, d, r).components) == \
                scheme_module._expand_generic(
                    polys, n, d, r, lambda fs, sigma, weight: [
                        running_sum_taylor(f, sigma) for f in fs])

    def test_jet_space_of_a_jet_space(self):
        # J_1(circle) is an affine scheme, so it has jets of its own
        j1 = jet_space_equations(circle_scheme(), 1, 1)
        direct = jet_space_equations(j1, 1, 1)
        universal = jet_space_equations_universal(j1, 1, 1)
        assert direct.normalized() == universal.normalized()
        assert direct.n == 8 and len(direct.equations) == 4
        assert direct.names[:2] == ("a_a_x_0_0", "a_a_x_0_1")


def seeded_shape_cases(seed, count):
    """(n, d, r, polys) with n <= 3, d <= 2, r <= 4 and 1-2 cubics."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n, d, r = rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 4)
        cases.append((n, d, r, [rand_poly(rng, n, 3)
                                for _ in range(rng.randint(1, 2))]))
    return cases


def count_series_products(monkeypatch):
    """Record every `TruncatedSeries` product; the Taylor route forms
    them only in its weights."""
    products = []
    original = TruncatedSeries.__mul__

    def counting(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    monkeypatch.setattr(TruncatedSeries, "__rmul__", counting)
    return products


class TestSharedShapes:
    """The generic jet and Taylor weights kept per shape (n, d, r)."""

    def test_warm_and_cold_calls_give_the_same_stored_forms(self):
        for n, d, r, polys in seeded_shape_cases(5, 14):
            builds = [
                lambda: scheme_module._taylor_compose_all(
                    polys, *scheme_module._generic(n, d, r)),
                lambda: jet_space_equations_universal(
                    AffineScheme(n, polys), d, r).equations,
                lambda: jet_prolong_universal(
                    AffineMap(n, len(polys), polys), d, r).components]
            cold = []
            for build in builds:
                scheme_module._generic.cache_clear()
                cold.append(build())
            warm = [build() for build in builds]
            assert all(map(same_form, cold[0], warm[0]))
            # Polynomial equality compares stored forms
            assert cold[1:] == warm[1:]

    def test_kept_weights_are_the_weights_of_a_fresh_generic_jet(self):
        scheme_module._generic.cache_clear()
        for n, d, r, polys in seeded_shape_cases(9, 8):
            jet_prolong_universal(AffineMap(n, len(polys), polys), d, r)
            kept = scheme_module._generic(n, d, r)[1]
            fresh = taylor_weights(
                scheme_module.generic_jet(n, d, r).offsets())
            assert kept.table
            for q, w in list(kept.table.items()):
                assert same_form(w, fresh(q))

    def test_a_repeated_shape_forms_no_weight(self, monkeypatch):
        scheme_module._generic.cache_clear()
        products = count_series_products(monkeypatch)
        for n, d, r, polys in seeded_shape_cases(13, 6):
            amap = AffineMap(n, len(polys), polys)
            first = jet_prolong_universal(amap, d, r)
            weights = len(scheme_module._generic(n, d, r)[1].table)
            del products[:]
            assert jet_prolong_universal(amap, d, r) == first
            assert jet_space_equations_universal(
                AffineScheme(n, polys), d, r).equations == first.components
            assert products == []
            assert len(scheme_module._generic(n, d, r)[1].table) == weights

    def test_one_shape_call_forms_each_weight_once(self, monkeypatch):
        # the four cubics in 2 variables read w_q for every |q| <= 3: each
        # of the 9 with |q| > 0 is one `*` (by one, returned as is, when
        # |q| = 1), whichever of the four equations reads it first
        scheme_module._generic.cache_clear()
        products = count_series_products(monkeypatch)
        x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        jet_space_equations_universal(
            AffineScheme(2, [x ** 3, x * x * y, x * y * y, y ** 3]), 1, 4)
        assert len(products) == 9
        assert len(scheme_module._generic(2, 1, 4)[1].table) == 10

    def test_weights_stay_lazy_at_high_order(self):
        scheme_module._generic.cache_clear()
        cubic = AffineScheme(1, [P(1, {(3,): 1, (0,): -1})])
        universal = jet_space_equations_universal(cubic, 1, 40)
        assert len(scheme_module._generic(1, 1, 40)[1].table) <= 4
        assert universal == jet_space_equations(cubic, 1, 40)

    def test_a_shape_of_many_coordinates_is_not_kept(self):
        # the 30 shapes of n <= 3, d <= 2, r <= 4 are kept; x1^3 - 1 at
        # d = 1, r = 100 (101 coordinates) reads weights of about 10 MB,
        # which are let go with its result
        assert max(n * math.comb(d + r, d) for n in range(1, 4)
                   for d in range(1, 3) for r in range(5)) \
            == scheme_module._COORDINATES
        scheme_module._generic.cache_clear()
        cubic = AffineScheme(1, [P(1, {(3,): 1, (0,): -1})])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            jet_space_equations_universal(cubic, 1, 100)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 100_000
        assert scheme_module._generic.cache_info().currsize == 0

    def test_the_table_is_bounded(self):
        scheme_module._generic.cache_clear()
        line = AffineScheme(1, [P(1, {(1,): 1})])
        for r in range(scheme_module._SHAPES + 5):
            jet_space_equations_universal(line, 1, r)
        info = scheme_module._generic.cache_info()
        assert info.currsize == info.maxsize == scheme_module._SHAPES

    def test_threads_sharing_shapes_get_the_single_threaded_output(self):
        # shapes whose squared offsets take milliseconds to form, so that
        # threads meet while forming them
        shapes = [(1, 2, 14), (2, 2, 8), (1, 1, 60)]
        rng = random.Random(29)
        cases = [(n, d, r, [rand_poly(rng, n, 3, density=1.0)])
                 for n, d, r in shapes]
        routes = [lambda n, d, r, polys: jet_space_equations_universal(
                      AffineScheme(n, polys), d, r).equations,
                  lambda n, d, r, polys: jet_prolong_universal(
                      AffineMap(n, 1, polys), d, r).components]
        expected = [routes[0](*case) for case in cases]
        assert expected == [routes[1](*case) for case in cases]
        start = threading.Barrier(4, timeout=60)
        results, errors = [], []

        def work():
            try:
                for route in routes:
                    for k, (n, d, r, polys) in enumerate(cases):
                        # one thread clears the table and makes the shape's
                        # entry, with no weight formed; then all start on it
                        if start.wait() == 0:
                            scheme_module._generic.cache_clear()
                            scheme_module._generic(n, d, r)
                        start.wait()
                        results.append((k, route(n, d, r, polys)))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
                start.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 4 * len(routes) * len(cases)
        assert all(result == expected[k] for k, result in results)


class TestMembership:
    def test_trig_jet_on_circle(self):
        jet = JetPoint([
            TruncatedSeries(1, 3, {(0,): 1, (2,): Fraction(-1, 2)}),
            TruncatedSeries(1, 3, {(1,): 1, (3,): Fraction(-1, 6)})])
        assert jet_membership(circle_scheme(), jet)

    def test_basepoint_off_scheme(self):
        jet = JetPoint.constant((Fraction(2), Fraction(0)), 1, 2)
        assert not jet_membership(circle_scheme(), jet)

    def test_affine_space_contains_everything(self):
        jet = JetPoint([TruncatedSeries(2, 2, {(1, 1): 5})])
        assert jet_membership(AffineScheme(1, []), jet)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            jet_membership(circle_scheme(), JetPoint([TruncatedSeries.one(1, 1)]))

    def test_jet_space_contains_exactly_the_member_jets(self):
        # X is cut out by multiples h * (x_n - f(x_1, ..., x_{n-1})), so a
        # jet whose last series is f of the others lies on X, and moving
        # one coefficient of that series mostly takes it off X
        rng = random.Random(61)
        seen = set()
        for _ in range(16):
            n, d, r = rng.randint(2, 3), rng.randint(1, 2), rng.randint(0, 3)
            f = rand_poly(rng, n - 1, 2)
            graph = Polynomial.variable(n - 1, n) \
                - f.rename_into(n, list(range(n - 1)))
            scheme = AffineScheme(n, [rand_poly(rng, n, 1) * graph
                                      for _ in range(rng.randint(1, 2))])
            free = [TruncatedSeries(d, r, {
                p: rand_fraction(rng, 3, 2) for p in graded_monomials(d, r)
                if rng.random() < 0.7}) for _ in range(n - 1)]
            last = series_compose(f, JetPoint(free))
            if rng.random() < 0.5:
                p = rng.choice(graded_monomials(d, r))
                last = last + TruncatedSeries(d, r, {p: 1})
            jet = JetPoint(free + [last])
            member = jet_membership(scheme, jet)
            seen.add(member)
            coords = jet_to_coords(jet)
            assert jet_space_equations(scheme, d, r).contains_point(
                coords) == member
            assert jet_space_equations_universal(scheme, d, r).contains_point(
                coords) == member
        assert seen == {True, False}


class TestNondegeneracy:
    def test_tangent_line(self):
        jet = JetPoint([TruncatedSeries.variable(0, 1, 1),
                        TruncatedSeries.zero(1, 1)])
        assert is_nondegenerate(jet)

    def test_rank_one_pair(self):
        jet = JetPoint([TruncatedSeries(2, 1, {(1, 0): 1, (0, 1): 1}),
                        TruncatedSeries(2, 1, {(1, 0): 2, (0, 1): 2})])
        assert not is_nondegenerate(jet)

    def test_two_by_three_rank(self):
        jet = JetPoint([TruncatedSeries(2, 1, {(1, 0): 1}),
                        TruncatedSeries(2, 1, {(0, 1): 1}),
                        TruncatedSeries(2, 1, {(0, 1): 1})])
        assert is_nondegenerate(jet)

    def test_order_zero_rejected(self):
        with pytest.raises(OrderTooLow):
            is_nondegenerate(JetPoint.constant((1,), 1, 0))

    @staticmethod
    def unit_rows(jet):
        """The tangent rows by their definition: row a reads the
        coefficient of the unit exponent t_a in every component."""
        d = jet.dims
        return [[s.coefficient(tuple(int(i == a) for i in range(d)))
                 for s in jet.series] for a in range(d)]

    def test_tangent_rows_match_their_definition(self):
        rng = random.Random(4)
        d = 300

        def sparse_series(order):
            coeffs = {(0,) * d: Fraction(rng.randint(-3, 3), 2)}
            for _ in range(6):
                expo = [0] * d
                for _ in range(rng.randint(1, order)):
                    expo[rng.randrange(d)] += 1
                coeffs[tuple(expo)] = Fraction(rng.randint(1, 9),
                                               rng.randint(1, 4))
            return TruncatedSeries(d, order, coeffs)

        jets = [
            JetPoint([sparse_series(3) for _ in range(3)]),
            JetPoint([sparse_series(1), sparse_series(1)]),
            # no degree-one term in either component
            JetPoint([TruncatedSeries(d, 2, {(0,) * d: 1}),
                      TruncatedSeries(d, 2, {(2,) + (0,) * (d - 1): 5})]),
            JetPoint([TruncatedSeries(1, 3, {(1,): Fraction(2, 3),
                                             (3,): 1}),
                      TruncatedSeries(1, 3, {(2,): 1})]),
            JetPoint([TruncatedSeries(1, 1, {(0,): 4})]),
        ]
        for jet in jets:
            rows = tangent_rows(jet)
            assert rows == self.unit_rows(jet)
            assert len(rows) == jet.dims
            assert all(len(row) == jet.n for row in rows)
        assert tangent_rows(jets[3]) == [[Fraction(2, 3), 0]]
        assert not any(map(any, tangent_rows(jets[2])))
        assert any(map(any, tangent_rows(jets[1])))


class TestCompatibility:
    def test_restriction_agrees(self):
        hi = JetPoint([TruncatedSeries(1, 2, {(0,): 1, (1,): 1, (2,): 1})])
        lo = JetPoint([TruncatedSeries(1, 1, {(0,): 1, (1,): 1})])
        assert is_compatible(hi, lo)

    def test_equal_orders(self):
        jet = JetPoint([TruncatedSeries(1, 1, {(0,): 1, (1,): 1})])
        assert is_compatible(jet, jet)

    def test_mismatch_detected(self):
        hi = JetPoint([TruncatedSeries(1, 2, {(0,): 1, (1,): 1, (2,): 1})])
        lo = JetPoint([TruncatedSeries(1, 1, {(0,): 1, (1,): 2})])
        assert not is_compatible(hi, lo)

    def test_order_error(self):
        hi = JetPoint([TruncatedSeries(1, 1, {(0,): 1})])
        lo = JetPoint([TruncatedSeries(1, 2, {(0,): 1})])
        with pytest.raises(OrderMismatch):
            is_compatible(hi, lo)

    def test_membership_stable_under_restriction(self):
        report = run_tower_suite(seed=202, count=18)
        assert report.ok, [c.name for c in report.failures]


class TestDimensionWitness:
    def test_circle_with_parametrization(self):
        report = dimension_witness(circle_scheme(), (1, 0), 1, 8,
                                   parametrizations=[circle_parametrization()])
        assert report.found_through() == 8
        for r in range(1, 9):
            jet = report.witnesses[r]
            assert jet_membership(circle_scheme(), jet)
            assert is_nondegenerate(jet)
            assert jet == report.witnesses[8].restrict(r)

    def test_circle_lifting_route(self):
        report = dimension_witness(circle_scheme(), (1, 0), 1, 8)
        assert report.found_through() == 8

    def test_lifted_witness_lifts_once_per_order(self, monkeypatch):
        # orders 1..12 from one order-1 kernel jet: one lift per order
        calls = []
        lift_once = scheme_module._lift_once

        def counted(scheme, jet):
            calls.append(jet.order)
            return lift_once(scheme, jet)

        monkeypatch.setattr(scheme_module, "_lift_once", counted)
        report = dimension_witness(circle_scheme(),
                                   (Fraction(3, 5), Fraction(4, 5)), 1, 12)
        assert calls == list(range(1, 12))
        assert report.found_through() == 12
        for r in range(1, 12):
            assert report.witnesses[r + 1].restrict(r) == report.witnesses[r]

    def test_no_surface_in_a_curve(self):
        report = dimension_witness(circle_scheme(), (1, 0), 2, 1)
        assert report.witnesses[1] is None
        assert report.tangent_dim == 1

    def test_plane_has_plane_witnesses(self):
        report = dimension_witness(AffineScheme(2, []), (0, 0), 2, 3)
        assert report.found_through() == 3

    def test_basepoint_validation(self):
        with pytest.raises(BasepointNotOnScheme):
            dimension_witness(circle_scheme(), (2, 0), 1, 2)


class TestCoordinates:
    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(10):
            d, r, n = rng.randint(1, 2), rng.randint(0, 3), rng.randint(1, 3)
            jet = JetPoint([
                TruncatedSeries(d, r, {
                    mono: Fraction(rng.randint(-3, 3))
                    for mono in graded_monomials(d, r)})
                for _ in range(n)])
            assert coords_to_jet(jet_to_coords(jet), n, d, r) == jet

    def test_prolongation_soundness(self):
        # a polynomial curve inside the parabola scheme: every jet of it is a
        # jet of the scheme
        parabola = AffineScheme(2, [P(2, {(0, 1): 1, (2, 0): -1})])
        curve = AffineMap(1, 2, [P(1, {(1,): 1}), P(1, {(2,): 1})])
        composed = [series_compose(g, JetPoint([TruncatedSeries(1, 3, {
            (0,): Fraction(1, 2), (1,): 1, (3,): 2})]))
            for g in curve.components]
        jet = JetPoint(composed)
        assert jet_membership(parabola, jet)
        for r in range(4):
            assert jet_membership(parabola, jet.restrict(r))
