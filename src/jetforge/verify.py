"""Randomized verification suites, deterministic for a given seed.

The connection suites run on flat charts built by gauging the trivial
connection: a unipotent polynomial frame change g produces a system with
polynomial coefficients whose solutions g M0 exist globally, so the solver
contracts are meaningful on every generated chart.  One-dimensional bases
also admit arbitrary coefficient matrices, and those are mixed in.  Charts
for the flag suites use flag-preserving gauges so the frame pairing keeps
the vanishing pattern between complementary filtration steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .connection import (ConnectionChart, beta, build_xi, check_flatness,
                         check_right_equivariance, series_oracle)
from .errors import (CongruenceSearchExhausted, NoRationalFvPoint,
                     SingularPoint)
from .flags import (alpha, check_fv, check_hr1, eta_chartlocal,
                    gram_obeys_first_relation)
from .poly import Polynomial, graded_monomials
from .ratfunc import RationalFunction
from .scheme import (AffineMap, AffineScheme, apply_prolonged, is_compatible,
                     is_nondegenerate, jet_membership, jet_prolong,
                     jet_prolong_universal, jet_space_equations,
                     jet_space_equations_universal)
from .series import (JetPoint, TruncatedSeries, series_compose,
                     series_compose_all)


@dataclass
class CaseResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    cases: list = field(default_factory=list)
    # names of the cases that could not be checked; `cases` leaves them out
    unchecked: list = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.cases.append(CaseResult(self.suite, name, bool(passed), detail))

    @property
    def total(self):
        return len(self.cases)

    @property
    def failures(self):
        return [c for c in self.cases if not c.passed]

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        out = {"suite": self.suite, "cases": self.total,
               "failed": len(self.failures),
               "failures": [c.name for c in self.failures]}
        if self.unchecked:
            out["unchecked"] = list(self.unchecked)
        return out


# -- random generators -------------------------------------------------------

def rand_fraction(rng, num=4, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_poly(rng, arity, degree, density=0.6):
    terms = {}
    for mono in graded_monomials(arity, degree):
        if rng.random() < density:
            c = rand_fraction(rng, 3, 2)
            if c:
                terms[mono] = c
    return Polynomial(arity, terms)


def random_invertible(rng, m, bound=3):
    while True:
        mat = [[Fraction(rng.randint(-bound, bound)) for _ in range(m)]
               for _ in range(m)]
        if linalg.det(mat):
            return mat


def _hodge_shape(m):
    """(weight, filtration_dims, polarization) with the vanishing pattern of
    the lattice form aligned to the standard flag."""
    if m == 1:
        return 0, (1,), [[1]]
    if m % 2 == 0:
        half = m // 2
        q = [[0] * m for _ in range(m)]
        for i in range(half):
            q[i][half + i] = 1
            q[half + i][i] = -1
        return 1, (m, half), q
    q = [[1 if i + j == m - 1 else 0 for j in range(m)] for i in range(m)]
    dims = tuple(range(m, 0, -1))
    return 2, dims, q


@dataclass
class RandomChart:
    chart: ConnectionChart
    gauge: list  # m x m matrix of Polynomial, evaluated to frame changes
    style: str

    def gauge_at(self, point):
        return [[p.evaluate(point) for p in row] for row in self.gauge]


def random_flat_chart(rng, m, n, hodge_aligned=False):
    """A chart whose flat-frame system has global polynomial solutions.

    The system is gauged from the trivial one; with `hodge_aligned` the gauge
    preserves the standard flag, so the Gram matrix keeps the first-relation
    vanishing pattern and the chart supports the flag suites.
    """
    weight, dims, q = _hodge_shape(m)
    one = Polynomial.const(1, n)
    zero = Polynomial.zero(n)
    if m == 1 and not hodge_aligned and rng.random() < 0.5:
        # one frame vector: coefficients are gradients of a random potential
        potential = rand_poly(rng, n, 3)
        coeffs = [[[RationalFunction(-potential.derivative(l))
                    for l in range(n)]]]
        chart = ConnectionChart(n, 1, coeffs, weight, dims,
                                [[RationalFunction.one(n)]], q)
        return RandomChart(chart, [[one]], "potential")
    n_mat = [[zero for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if (j < i and not hodge_aligned) or (j > i and hodge_aligned):
                n_mat[i][j] = rand_poly(rng, n, 1, density=0.8)
    identity = [[one if i == j else zero for j in range(m)] for i in range(m)]
    g = linalg.mat_add(identity, n_mat)
    ginv = linalg.unipotent_inverse(identity, n_mat, m - 1)
    if not hodge_aligned:
        p = random_invertible(rng, m, 2)
        g = linalg.mat_mul(p, g)
        ginv = linalg.mat_mul(ginv, linalg.invert(p))
    coeffs = [[[None] * n for _ in range(m)] for _ in range(m)]
    for l in range(n):
        dg = [[p.derivative(l) for p in row] for row in g]
        a_l = linalg.mat_mul(dg, ginv)
        for i in range(m):
            for j in range(m):
                coeffs[i][j][l] = RationalFunction(-a_l[j][i])
    gram_poly = linalg.mat_mul(linalg.transpose(ginv),
                               linalg.mat_mul(q, ginv))
    gram = [[RationalFunction(p) for p in row] for row in gram_poly]
    chart = ConnectionChart(n, m, coeffs, weight, dims, gram, q)
    return RandomChart(chart, g, "aligned" if hodge_aligned else "gauged")


def random_n1_chart(rng, m):
    """Arbitrary coefficients on a one-dimensional base (always integrable)."""
    weight, dims, q = _hodge_shape(m)
    coeffs = [[[RationalFunction(rand_poly(rng, 1, 2))] for _ in range(m)]
              for _ in range(m)]
    gram = [[RationalFunction.const(q[i][j], 1) for j in range(m)]
            for i in range(m)]
    chart = ConnectionChart(1, m, coeffs, weight, dims, gram, q)
    one = Polynomial.const(1, 1)
    zero = Polynomial.zero(1)
    return RandomChart(chart, [[one if i == j else zero for j in range(m)]
                               for i in range(m)], "free")


def random_point(rng, chart):
    for _ in range(60):
        point = tuple(rand_fraction(rng, 3, 2) for _ in range(chart.n))
        try:
            chart.assert_regular(point)
            return point
        except SingularPoint:
            continue
    raise RuntimeError("could not find a regular base point")


def random_jet(rng, chart, d, r):
    basepoint = random_point(rng, chart)
    series = []
    for l in range(chart.n):
        coeffs = {(0,) * d: basepoint[l]}
        for mono in graded_monomials(d, r):
            if sum(mono) == 0:
                continue
            if rng.random() < 0.7:
                coeffs[mono] = rand_fraction(rng, 3, 2)
        series.append(TruncatedSeries(d, r, coeffs))
    return JetPoint(series)


# -- connection suites --------------------------------------------------------

def _chart_mix(rng, m_max, n_max):
    m = rng.randint(1, m_max)
    n = rng.randint(1, n_max)
    if n == 1 and rng.random() < 0.5:
        return random_n1_chart(rng, m)
    return random_flat_chart(rng, m, n)


def _frame_suites():
    return {name: SuiteReport(name)
            for name in ("dual_route", "right_equivariance", "flatness")}


def _check_frame_case(rng, chart, d, r, name, suites):
    """Draw a jet, an initial matrix and an action on the chart, record the
    dual-route, equivariance and flatness checks under `name`, and return
    the jet."""
    sigma = random_jet(rng, chart, d, r)
    initial = random_invertible(rng, chart.m)
    table = build_xi(chart, r)
    frame = beta(chart, sigma, initial, table=table)
    suites["dual_route"].add(name, frame == series_oracle(chart, sigma,
                                                          initial))
    action = random_invertible(rng, chart.m)
    suites["right_equivariance"].add(name, check_right_equivariance(
        chart, sigma, initial, action, table=table))
    suites["flatness"].add(name, check_flatness(chart, sigma, frame))
    return sigma


def run_frame_corpus(seed, count=200, m_max=3, n_max=2, d_max=2, r_max=5):
    """Shared corpus driving the dual-route, equivariance and flatness suites.

    Each case draws a flat chart, a jet and an invertible initial matrix;
    the three checks are recorded in separate suite reports.
    """
    rng = random.Random(seed)
    suites = _frame_suites()
    for case in range(count):
        rc = _chart_mix(rng, m_max, n_max)
        chart = rc.chart
        d = rng.randint(1, d_max)
        r = rng.randint(0, r_max)
        name = f"case{case}[m={chart.m},n={chart.n},d={d},r={r},{rc.style}]"
        _check_frame_case(rng, chart, d, r, name, suites)
    return suites


def run_hr1_suite(seed, count=40, r_max=4):
    """Torsor-certified inputs land in the first-relation locus at all orders."""
    rng = random.Random(seed)
    report = SuiteReport("hr1_containment")
    for case in range(count):
        m = rng.choice([2, 2, 3])
        n = rng.randint(1, 2)
        rc = random_flat_chart(rng, m, n, hodge_aligned=True)
        chart = rc.chart
        d = rng.randint(1, 2)
        r = rng.randint(0, r_max)
        sigma = random_jet(rng, chart, d, r)
        point = sigma.basepoint()
        initial = rc.gauge_at(point)
        name = f"case{case}[m={m},n={n},d={d},r={r}]"
        if not check_fv(chart, point, initial):
            report.add(name, False, "generator produced a non-torsor point")
            continue
        flag = alpha(chart, sigma, initial)
        report.add(name, check_hr1(chart.hodge, flag))
    return report


# -- scheme suites -------------------------------------------------------------

def random_scheme(rng, n_max=3, k_max=2, degree=3):
    n = rng.randint(1, n_max)
    k = rng.randint(0, k_max)
    return AffineScheme(n, [rand_poly(rng, n, degree) for _ in range(k)])


def random_affine_map(rng, n_max=3, m_max=3, degree=3):
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    return AffineMap(n, m, [rand_poly(rng, n, degree) for _ in range(m)])


def run_universal_route_suite(seed, count=30):
    """Direct and Taylor-route constructions agree as normalized systems."""
    rng = random.Random(seed)
    report = SuiteReport("universal_route")
    for case in range(count):
        d = rng.randint(1, 2)
        r = rng.randint(0, 3)
        if case % 2 == 0:
            scheme = random_scheme(rng)
            left = jet_space_equations(scheme, d, r).normalized()
            right = jet_space_equations_universal(scheme, d, r).normalized()
            report.add(f"scheme{case}[n={scheme.n},k={len(scheme.equations)},"
                       f"d={d},r={r}]", left == right)
        else:
            gmap = random_affine_map(rng)
            left = jet_prolong(gmap, d, r).normalized()
            right = jet_prolong_universal(gmap, d, r).normalized()
            report.add(f"map{case}[n={gmap.n},m={gmap.m},d={d},r={r}]",
                       left == right)
    return report


def run_tower_suite(seed, count=40):
    """Restriction functoriality, membership stability and non-degeneracy."""
    rng = random.Random(seed)
    report = SuiteReport("jet_tower")
    for case in range(count):
        d = rng.randint(1, 2)
        kind = case % 3
        if kind == 0:
            # restriction functoriality on random series
            r = rng.randint(2, 5)
            mid = rng.randint(1, r - 1)
            low = rng.randint(0, mid)
            coeffs = {mono: rand_fraction(rng)
                      for mono in graded_monomials(d, r)}
            s = TruncatedSeries(d, r, coeffs)
            ok = s.restrict(mid).restrict(low) == s.restrict(low)
            jet = JetPoint([s])
            ok = ok and is_compatible(jet, jet.restrict(low))
            report.add(f"restriction{case}[d={d},r={r}]", ok)
        elif kind == 1:
            # jets on a graph scheme stay members under restriction
            g = rand_poly(rng, 1, 3)
            scheme = AffineScheme(
                2, [Polynomial.variable(1, 2) - g.rename_into(2, [0])])
            r = rng.randint(1, 4)
            u = TruncatedSeries(d, r, {
                mono: rand_fraction(rng) for mono in graded_monomials(d, r)})
            jet = JetPoint([u, series_compose(g, JetPoint([u]))])
            ok = jet_membership(scheme, jet)
            for low in range(r + 1):
                ok = ok and jet_membership(scheme, jet.restrict(low))
            report.add(f"membership{case}[d={d},r={r}]", ok)
        else:
            # constructed tangent ranks
            n = rng.randint(d, 3)
            rows = [[Fraction(1 if i == a else 0) for i in range(n)]
                    for a in range(d)]
            full = JetPoint([
                TruncatedSeries(d, 1, {
                    tuple(1 if b == a else 0 for b in range(d)): rows[a][i]
                    for a in range(d)}) for i in range(n)])
            degenerate = JetPoint([
                TruncatedSeries(d, 1, {
                    tuple(1 if b == a else 0 for b in range(d)): Fraction(i + 1)
                    for a in range(d)}) for i in range(n)])
            ok = is_nondegenerate(full)
            if d > 1:
                ok = ok and not is_nondegenerate(degenerate)
            report.add(f"rank{case}[d={d},n={n}]", ok)
    return report


def run_prolong_functoriality_suite(seed, count=20):
    """Prolongation respects identities and composition, and matches
    series composition on points."""
    rng = random.Random(seed)
    report = SuiteReport("prolong_functoriality")
    for case in range(count):
        d = rng.randint(1, 2)
        r = rng.randint(0, 3)
        inner = random_affine_map(rng, n_max=2, m_max=2, degree=2)
        m_out = rng.randint(1, 2)
        outer = AffineMap(inner.m, m_out,
                          [rand_poly(rng, inner.m, 2) for _ in range(m_out)])
        composed = jet_prolong(outer.compose(inner), d, r)
        chained = jet_prolong(outer, d, r).compose(jet_prolong(inner, d, r))
        ok = composed.normalized() == chained.normalized()
        ident = jet_prolong(AffineMap.identity(inner.n), d, r)
        jet = JetPoint([
            TruncatedSeries(d, r, {mono: rand_fraction(rng)
                                   for mono in graded_monomials(d, r)})
            for _ in range(inner.n)])
        ok = ok and apply_prolonged(ident, jet, inner.n) == jet
        image = apply_prolonged(jet_prolong(inner, d, r), jet, inner.m)
        direct = JetPoint(series_compose_all(inner.components, jet))
        ok = ok and image == direct
        report.add(f"functor{case}[d={d},r={r}]", ok)
    return report


# -- chart-targeted verification (CLI) ----------------------------------------

def verify_connection(chart, max_order=4, seed=0, cases=12):
    """Run the dual-route, equivariance, flatness and first-relation suites
    against one supplied chart; deterministic for a given seed.

    The first-relation suite presumes honest polarized data (a parallel
    pairing whose Gram vanishes on complementary filtration blocks); when
    the chart does not satisfy that hypothesis the suite is reported as
    skipped rather than failed.  A case whose torsor point the bounded
    congruence search could not find is listed under the suite's
    `unchecked` key and not counted.
    """
    rng = random.Random(seed)
    suites = _frame_suites()
    hr1 = SuiteReport("hr1_containment")
    hr1_applicable = chart.pairing_is_flat() and gram_obeys_first_relation(chart)
    for case in range(cases):
        d = rng.randint(1, 2)
        r = rng.randint(0, max_order)
        name = f"case{case}[d={d},r={r}]"
        sigma = _check_frame_case(rng, chart, d, r, name, suites)
        if not hr1_applicable:
            continue
        try:
            witness = eta_chartlocal(chart, sigma)
        except CongruenceSearchExhausted:
            hr1.unchecked.append(name)
            continue
        except NoRationalFvPoint:
            hr1.add(name, True, "no rational torsor point above this base")
            continue
        hr1.add(name, check_hr1(chart.hodge, witness.flag))
    reports = [*suites.values(), hr1]
    report = {
        "seed": seed,
        "max_order": max_order,
        "cases": cases,
        "suites": [s.summary() for s in reports],
        "ok": all(s.ok for s in reports),
    }
    if not hr1_applicable:
        report["hr1_skipped"] = "pairing is not parallel with the " \
            "first-relation vanishing pattern; containment hypothesis not met"
    return report
