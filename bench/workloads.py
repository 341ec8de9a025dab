"""The benchmark's workloads: seeded inputs and the requests that use them.

A request is one unit of work followed by its check against an independent
route; it returns `(ok, outputs)`, where `outputs` are the values whose
coefficient sizes the traced run reports.  A workload function returns
`PASSES` passes: lists that hold the same kinds of request in the same
proportions, each on inputs of its own, so a pass never repeats the work of
an earlier one unless the workload says so.  Every input comes from the
seed given to the workload function, so one seed always gives the same
passes.  The library is called through module attributes, so the traced run
sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from jetforge import cli, connection, examples, flags, scheme, verify
from jetforge import io as jio
from jetforge.poly import Polynomial, graded_monomials
from jetforge.ratfunc import RationalFunction
from jetforge.series import JetPoint, TruncatedSeries


PASSES = 12


@dataclass(frozen=True)
class Request:
    label: str
    call: Callable[[], tuple]


# -- shared input generators ---------------------------------------------------

def _rand_fraction(rng, num=3, den=2):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _rand_poly(rng, arity, degree):
    """Nonzero coefficients on a random 60% of the monomials, so that the
    term count, and with it the cost, is fixed by the shape."""
    monomials = graded_monomials(arity, degree)
    count = -(-len(monomials) * 3 // 5)
    return Polynomial(arity, {
        mono: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
        for mono in rng.sample(monomials, count)})


def _rand_invertible_2x2(rng):
    while True:
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        if a * d != b * c:
            return [[a, b], [c, d]]


def _matrix_arg(matrix):
    return json.dumps([[str(x) for x in row] for row in matrix])


# -- corpus ----------------------------------------------------------------------

# The acceptance corpus draws m, n, d and r uniformly and, when n = 1, a
# free or a gauged chart with even odds.  A pass holds every shape once
# (n = 2 twice), so the mix of cheap and expensive shapes is the same for
# every seed and pass, and only the charts, jets and matrices vary.
CORPUS_SHAPES = [(m, n, free, d, r)
                 for m in (1, 2, 3)
                 for n, free in ((1, True), (1, False), (2, False), (2, False))
                 for d in (1, 2)
                 for r in range(6)]


def _frame_case(case_seed, m, n, free, d, r):
    """One acceptance-corpus case: the dual-route, equivariance and
    flatness checks on a fresh random flat chart."""
    rng = random.Random(case_seed)
    rc = (verify.random_n1_chart(rng, m) if free
          else verify.random_flat_chart(rng, m, n))
    chart = rc.chart
    sigma = verify.random_jet(rng, chart, d, r)
    initial = verify.random_invertible(rng, chart.m)
    table = connection.build_xi(chart, r)
    frame = connection.beta(chart, sigma, initial, table=table)
    oracle = connection.series_oracle(chart, sigma, initial)
    action = verify.random_invertible(rng, chart.m)
    equivariant = connection.check_right_equivariance(
        chart, sigma, initial, action, table=table)
    flat = connection.check_flatness(chart, sigma, frame)
    return frame == oracle and equivariant and flat, (frame, oracle)


def _corpus_pass(rng):
    requests = []
    for m, n, free, d, r in CORPUS_SHAPES:
        case_seed = rng.getrandbits(63)
        style = "free" if free else "gauged"
        requests.append(Request(
            f"corpus[seed={case_seed},m={m},n={n},{style},d={d},r={r}]",
            partial(_frame_case, case_seed, m, n, free, d, r)))
    rng.shuffle(requests)
    return requests


def corpus(seed, workdir):
    rng = random.Random(seed)
    return [_corpus_pass(rng) for _ in range(PASSES)]


# -- legendre ----------------------------------------------------------------------

LEGENDRE_POINTS = (Fraction(1, 2), Fraction(1, 4), Fraction(2))
# The Legendre Gram matrix is the constant [[0, 4], [-4, 0]], so every 2x2
# matrix of determinant 1/4 satisfies the torsor condition M^T Gram M = Q at
# every base point.
LEGENDRE_TORSOR = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 4)]]
LEGENDRE_TORSORS = (LEGENDRE_TORSOR,
                    [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1, 4)]])
# Random jets per (base point, order) for the chart frame and for eta.
# Latencies cluster by order, so these counts, with the CLI requests, put
# the p50 of a pass in the middle of the order-2 cluster and its p90 in the
# middle of the order-5 cluster, where a short change of host speed does not
# move either percentile into a neighbouring cluster.
LEGENDRE_COPIES = (3, 3, 2, 1, 1, 3)


def _random_line(rng, lam0, r):
    """A one-variable jet at lam0 with a nonzero linear term."""
    coeffs = {(0,): lam0}
    if r >= 1:
        coeffs[(1,)] = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2))
    for k in range(2, r + 1):
        coeffs[(k,)] = _rand_fraction(rng)
    return JetPoint([TruncatedSeries(1, r, coeffs)])


def _dual_case(chart, dual, symbols, line):
    """Frames of the period system with symbolic initial data against the
    recursion of the scalar equation (acceptance criterion 6)."""
    lam0, r = line.basepoint()[0], line.order
    frame = connection.beta(dual, line, symbols)
    jet = examples.hypergeometric_jet(lam0, r)
    c_at = [[chart.coeffs[i][j][0].evaluate((lam0,)) for j in range(2)]
            for i in range(2)]
    one = Polynomial.const(1, 4)
    ok = True
    for k in range(2):
        value = symbols[0][k]
        slope = c_at[0][0] * symbols[0][k] + c_at[0][1] * symbols[1][k]
        expected = TruncatedSeries(1, r, {
            p: c.evaluate_in([value, slope], one)
            for p, c in jet.coeffs.items()})
        ok = ok and frame.entry(0, k) == expected
    return ok, frame


def _chart_beta_case(chart, sigma, initial):
    frame = connection.beta(chart, sigma, initial)
    return frame == connection.series_oracle(chart, sigma, initial), frame


def _eta_case(chart, hodge, sigma):
    witness = flags.eta_chartlocal(chart, sigma)
    ok = flags.check_hr1(hodge, witness.flag) and flags.check_fv(
        chart, sigma.basepoint(), witness.point.matrix)
    return ok, (witness.flag, witness.point.matrix)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def _cli_example(lam0, reference):
    code, out = _run_cli(["example", "--name", "legendre"])
    if code != 0:
        return False, None
    data = json.loads(out)
    parsed = jio.chart_from_json(data)
    points = jio.chart_examples_from_json(data).values()
    return (connection.scalar_ode(parsed) == reference
            and (lam0,) in points), parsed.coeffs


def _jet_arg(sigma):
    return json.dumps(jio.jet_to_json(sigma))


def _cli_beta(chart, path, sigma, jet_arg, initial):
    code, out = _run_cli(["beta", "--connection", path, "--jet", jet_arg,
                          "--init", _matrix_arg(initial)])
    if code != 0:
        return False, None
    frame = jio.matrixjet_from_json(json.loads(out))
    return frame == connection.series_oracle(chart, sigma, initial), frame


def _cli_alpha(chart, hodge, path, sigma, jet_arg):
    code, out = _run_cli(["alpha", "--connection", path, "--jet", jet_arg,
                          "--init", _matrix_arg(LEGENDRE_TORSOR)])
    if code != 0:
        return False, None
    flag = jio.flagjet_from_json(json.loads(out))
    frame = connection.series_oracle(chart, sigma, LEGENDRE_TORSOR)
    expected = flags.flag_of_matrix(hodge, connection.matrixjet_invert(frame))
    return flags.check_hr1(hodge, flag) and flag == expected, flag


def _cli_fv(path, lam0, matrix):
    code, out = _run_cli(["fv", "--connection", path, "--point", str(lam0),
                          "--matrix", _matrix_arg(matrix),
                          "--expect", "true"])
    return code == 0 and json.loads(out) == {"fv": True}, None


def _cli_verify(path, verify_seed):
    code, out = _run_cli(["verify", "--connection", path, "--max-order", "3",
                          "--seed", str(verify_seed), "--cases", "4"])
    if code != 0:
        return False, None
    report = json.loads(out)
    return report["ok"] and all(s["cases"] > 0 for s in report["suites"]), None


def legendre(seed, workdir):
    """Every pass works on the one Legendre chart and its period system;
    the jets and initial matrices are drawn afresh for each pass."""
    rng = random.Random(seed)
    chart = examples.legendre_chart()
    dual = connection.period_system(chart)
    hodge = flags.HodgeData.of_chart(chart)
    symbols = [[Polynomial.variable(2 * j + k, 4) for k in range(2)]
               for j in range(2)]
    reference = connection.normalize_poly_triple(
        *[RationalFunction(p) for p in examples.legendre_scalar_coefficients()])
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "legendre.json"
    points = {f"basepoint{i}": (p,) for i, p in enumerate(LEGENDRE_POINTS)}
    path.write_text(jio.canonical_dumps(jio.chart_to_json(chart, points)))
    return [_legendre_pass(rng, chart, dual, hodge, symbols, reference,
                           str(path)) for _ in range(PASSES)]


def _legendre_pass(rng, chart, dual, hodge, symbols, reference, path):
    """At each base point and order, the period-system frame and random
    jets for the chart frame and for eta; then the CLI."""
    requests = []
    for lam0 in LEGENDRE_POINTS:
        for r, copies in enumerate(LEGENDRE_COPIES):
            line = JetPoint([TruncatedSeries(1, r, {(0,): lam0,
                                                    (1,): Fraction(1)})])
            where = f"{lam0},r={r}"
            requests.append(Request(
                f"legendre.dual[{where}]",
                partial(_dual_case, chart, dual, symbols, line)))
            for copy in range(copies):
                sigma = _random_line(rng, lam0, r)
                initial = _rand_invertible_2x2(rng)
                requests += [
                    Request(f"legendre.beta[{where},{copy}]",
                            partial(_chart_beta_case, chart, sigma, initial)),
                    Request(f"legendre.eta[{where},{copy}]",
                            partial(_eta_case, chart, hodge, sigma)),
                ]
        for r in (2, 5):
            sigma = _random_line(rng, lam0, r)
            initial = _rand_invertible_2x2(rng)
            requests.append(Request(
                f"legendre.cli.beta[{lam0},r={r}]",
                partial(_cli_beta, chart, path, sigma, _jet_arg(sigma),
                        initial)))
        for r in (0, 1, 3):
            sigma = _random_line(rng, lam0, r)
            requests.append(Request(
                f"legendre.cli.alpha[{lam0},r={r}]",
                partial(_cli_alpha, chart, hodge, path, sigma,
                        _jet_arg(sigma))))
        verify_seed = rng.getrandbits(31)
        requests += [
            Request(f"legendre.cli.fv[{lam0},{i}]",
                    partial(_cli_fv, path, lam0, matrix))
            for i, matrix in enumerate(LEGENDRE_TORSORS)]
        requests += [
            Request(f"legendre.cli.verify[{lam0},seed={verify_seed}]",
                    partial(_cli_verify, path, verify_seed)),
            Request(f"legendre.cli.example[{lam0}]",
                    partial(_cli_example, lam0, reference)),
        ]
    rng.shuffle(requests)
    return requests


# -- jetspace ------------------------------------------------------------------------

WITNESS_ORDER = 12
CIRCLE = scheme.AffineScheme(
    2, [Polynomial(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})])


def _scheme_case(system, d, r):
    left = scheme.jet_space_equations(system, d, r).normalized()
    right = scheme.jet_space_equations_universal(system, d, r).normalized()
    return left == right, left


def _map_case(amap, d, r):
    left = scheme.jet_prolong(amap, d, r).normalized()
    right = scheme.jet_prolong_universal(amap, d, r).normalized()
    return left == right, left


def _circle_point(t0):
    """The rational point of the circle at parameter t0, and the
    parametrization u -> ((1 - s^2) / (1 + s^2), 2 s / (1 + s^2)), s = t0 + u,
    which sends u = 0 to it."""
    s = Polynomial(1, {(0,): t0, (1,): Fraction(1)})
    den = 1 + s * s
    param = [RationalFunction(1 - s * s, den), RationalFunction(s * 2, den)]
    point = ((1 - t0 * t0) / (1 + t0 * t0), 2 * t0 / (1 + t0 * t0))
    return point, param


def _witness_case(point, params):
    report = scheme.dimension_witness(CIRCLE, point, 1, WITNESS_ORDER,
                                      parametrizations=params)
    ok = report.found_through() == WITNESS_ORDER and all(
        scheme.jet_membership(CIRCLE, jet) and scheme.is_nondegenerate(jet)
        for jet in report.witnesses.values())
    return ok, report


def jetspace(seed, workdir):
    rng = random.Random(seed)
    return [_jetspace_pass(rng) for _ in range(PASSES)]


def _jetspace_pass(rng):
    requests = []
    for n in (1, 2, 3):
        for d in (1, 2):
            for r in range(5):
                for k in (1, 2):
                    system = scheme.AffineScheme(
                        n, [_rand_poly(rng, n, 3) for _ in range(k)])
                    requests.append(Request(
                        f"jetspace.scheme[n={n},k={k},d={d},r={r}]",
                        partial(_scheme_case, system, d, r)))
                    amap = scheme.AffineMap(
                        n, k, [_rand_poly(rng, n, 3) for _ in range(k)])
                    requests.append(Request(
                        f"jetspace.map[n={n},m={k},d={d},r={r}]",
                        partial(_map_case, amap, d, r)))
    for _ in range(3):
        t0 = _rand_fraction(rng)
        point, param = _circle_point(t0)
        requests += [
            Request(f"jetspace.witness[t0={t0},param]",
                    partial(_witness_case, point, [param])),
            Request(f"jetspace.witness[t0={t0},lifted]",
                    partial(_witness_case, point, [])),
        ]
    rng.shuffle(requests)
    return requests


WORKLOADS = {"corpus": corpus, "legendre": legendre, "jetspace": jetspace}
