"""Acceptance suite: every criterion as its own test, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the printed
per-criterion lines; plain `pytest` reports the same pass/fail via test
outcomes.  All comparisons are exact (rational coefficient equality); there
are no tolerances to calibrate.
"""

import random
import time
from fractions import Fraction

import pytest

import jetforge.linalg as la
import jetforge.verify as verify
from jetforge.connection import (beta, build_xi, check_flatness,
                                 check_right_equivariance, matrixjet_invert,
                                 period_system, series_oracle)
from jetforge.examples import hypergeometric_jet, legendre_chart
from jetforge.flags import alpha, check_fv, check_hr1
from jetforge.poly import Polynomial
from jetforge.ratfunc import RationalFunction
from jetforge.scheme import (AffineScheme, dimension_witness,
                             is_nondegenerate, jet_membership)
from jetforge.series import JetPoint, TruncatedSeries
from jetforge.verify import (random_flat_chart, random_invertible,
                             random_jet, run_frame_corpus, run_hr1_suite,
                             run_prolong_functoriality_suite, run_tower_suite,
                             run_universal_route_suite)

CORPUS_SEED = 20260808
CORPUS_SIZE = 200


def _report(number, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{status}] {title}{suffix}")
    assert ok, f"criterion {number} failed: {title} {detail}"


@pytest.fixture(scope="module")
def frame_corpus():
    start = time.time()
    reports = run_frame_corpus(seed=CORPUS_SEED, count=CORPUS_SIZE,
                               m_max=3, n_max=2, d_max=2, r_max=5)
    reports["elapsed"] = time.time() - start
    return reports


def test_criterion_1_dual_route_agreement(frame_corpus):
    rep = frame_corpus["dual_route"]
    detail = (f"{rep.total} charts, corpus built in "
              f"{frame_corpus['elapsed']:.1f}s")
    ok = rep.ok and rep.total >= 200
    _report(1, "dual-route frame jets agree exactly", ok, detail)


def test_criterion_2_right_equivariance(frame_corpus):
    rep = frame_corpus["right_equivariance"]
    _report(2, "right action commutes with frame jets exactly",
            rep.ok and rep.total >= 200, f"{rep.total} cases")


def test_criterion_3_flatness_identity(frame_corpus):
    rep = frame_corpus["flatness"]
    _report(3, "every frame jet satisfies the pulled-back system",
            rep.ok and rep.total >= 200, f"{rep.total} cases")


def test_criterion_4_universal_route_equivalence():
    rep = run_universal_route_suite(seed=CORPUS_SEED + 1, count=40)
    _report(4, "direct and Taylor-route constructions coincide",
            rep.ok, f"{rep.total} randomized systems and maps")


def test_criterion_5_hr1_containment():
    rep = run_hr1_suite(seed=CORPUS_SEED + 2, count=40, r_max=4)
    _report(5, "torsor-certified inputs land in the first-relation locus",
            rep.ok, f"{rep.total} cases, orders <= 4")


def test_criterion_6_legendre_end_to_end():
    chart = legendre_chart()
    dual = period_system(chart)
    symbols = [[Polynomial.variable(2 * j + k, 4) for k in range(2)]
               for j in range(2)]
    ok = True
    checked = 0
    for lam0 in (Fraction(1, 2), Fraction(1, 4), Fraction(2)):
        for r in range(7):
            sigma = JetPoint([TruncatedSeries(1, r, {(0,): lam0, (1,): 1})])
            frame = beta(dual, sigma, symbols)
            jet = hypergeometric_jet(lam0, r)
            c_at = [[chart.coeffs[i][j][0].evaluate((lam0,))
                     for j in range(2)] for i in range(2)]
            one = Polynomial.const(1, 4)
            for k in range(2):
                value = symbols[0][k]
                slope = c_at[0][0] * symbols[0][k] + c_at[0][1] * symbols[1][k]
                expected = TruncatedSeries(1, r, {
                    p: c.evaluate_in([value, slope], one)
                    for p, c in jet.coeffs.items()})
                ok = ok and frame.entry(0, k) == expected
                checked += 1
            # the elimination map carries frame jets of the chart itself
            # onto the dual system at rational initial data
            initial = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
            left = matrixjet_invert(beta(chart, sigma, initial)).transpose()
            right = beta(dual, sigma, la.transpose(la.invert(initial)))
            ok = ok and left == right
    _report(6, "frame jets reproduce the scalar recursion after elimination",
            ok, f"orders 0..6 at three base points, {checked} series")


def test_criterion_7_jet_tower_coherence():
    tower = run_tower_suite(seed=CORPUS_SEED + 3, count=60)
    functor = run_prolong_functoriality_suite(seed=CORPUS_SEED + 4, count=20)
    ok = tower.ok and functor.ok
    _report(7, "restriction, membership and non-degeneracy tower checks",
            ok, f"{tower.total + functor.total} cases, 100% required")


def test_criterion_8_dimension_witness_on_the_circle():
    circle = AffineScheme(2, [Polynomial(2, {(2, 0): 1, (0, 2): 1,
                                             (0, 0): -1})])
    den = Polynomial(1, {(0,): 1, (2,): 1})
    param = [RationalFunction(Polynomial(1, {(0,): 1, (2,): -1}), den),
             RationalFunction(Polynomial(1, {(1,): 2}), den)]
    with_param = dimension_witness(circle, (1, 0), 1, 8,
                                   parametrizations=[param])
    lifted = dimension_witness(circle, (1, 0), 1, 8)
    ok = with_param.found_through() == 8 and lifted.found_through() == 8
    for report in (with_param, lifted):
        for r in range(1, 9):
            jet = report.witnesses[r]
            ok = ok and jet is not None and jet_membership(circle, jet) \
                and is_nondegenerate(jet)
    surface = dimension_witness(circle, (1, 0), 2, 1)
    ok = ok and surface.witnesses[1] is None
    _report(8, "circle witnesses found through order 8 and none for d=2",
            ok, "parametrized and lifted searches")


def k3_shape(m):
    """Weight 2 with filtration (m, m - 1, 1), as for K3-type families: q
    pairs e_1 with e_m and is <1, -1, 1, ...> on the rest, so the line F^2
    is orthogonal to F^1."""
    q = [[0] * m for _ in range(m)]
    q[0][m - 1] = q[m - 1][0] = 1
    for i in range(1, m - 1):
        q[i][i] = 1 if i % 2 else -1
    return 2, (m, m - 1, 1), q


def calabi_yau_shape(m):
    """Weight m - 1 with filtration (m, m - 1, ..., 1) and q alternating on
    the antidiagonal (m even); at m = 4 the shape of the mirror quintic."""
    q = [[0] * m for _ in range(m)]
    for i in range(m // 2):
        q[i][m - 1 - i], q[m - 1 - i][i] = 1, -1
    return m - 1, tuple(range(m, 0, -1)), q


def test_criterion_9_frame_sizes_of_real_families(monkeypatch):
    # gauged n = 1 charts that keep the standard flag, built by the corpus
    # generator with the lattice form of each shape
    start = time.time()
    ok = True
    for shape, m in ((k3_shape, 22), (calabi_yau_shape, 4)):
        monkeypatch.setattr(verify, "_hodge_shape", shape)
        rng = random.Random(m)
        rc = random_flat_chart(rng, m, 1, hodge_aligned=True)
        chart = rc.chart
        hodge = chart.hodge
        ok = ok and (hodge.weight, hodge.filtration_dims) == shape(m)[:2] \
            and chart.pairing_is_flat()
        for r in (1, 2):
            sigma = random_jet(rng, chart, 1, r)
            point = sigma.basepoint()
            gauge = rc.gauge_at(point)   # a torsor point: M^T Gram M = Q
            table = build_xi(chart, r)
            frame = beta(chart, sigma, gauge, table=table)
            ok = ok and frame == series_oracle(chart, sigma, gauge) \
                and check_flatness(chart, sigma, frame) \
                and check_right_equivariance(chart, sigma, gauge,
                                             random_invertible(rng, m),
                                             table=table) \
                and check_fv(chart, point, gauge) \
                and check_hr1(hodge, alpha(chart, sigma, gauge, table=table))
    elapsed = time.time() - start
    _report(9, "Hodge-shaped frames of size 22 (weight 2) and 4 (weight 3)",
            ok and elapsed < 30, f"orders 1 and 2 in {elapsed:.1f}s, "
            "budget 30s")
