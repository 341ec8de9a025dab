"""Batch command line for jetforge.

One subcommand per library operation; canonical JSON on stdout, diagnostics
on stderr.  Exit status: 0 success, 1 mathematical falsity (an --expect
mismatch or a failed verification), 2 malformed input (including a jet of
order r >= 2 given to beta, alpha or verify on a chart that fails the
mixed-partial condition at its base point through order r - 2, a jet with
more than MAX_JET_COEFFICIENTS coefficients for jetspace, prolong, beta,
alpha or verify, a jet with d or r above it for membership or nondeg, and a
flag given to hr1 with other filtration data than the chart's),
3 singular-point or singular-initial data.  beta and alpha
answer what library `beta` answers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import io as jio
from .connection import beta
from .errors import (InputError, JetforgeError, NoRationalFvPoint,
                     SingularInitial, SingularPoint)
from .examples import builtin_examples
from .flags import alpha, check_fv, check_hr1
from .linalg import identity
from .scheme import (is_nondegenerate, jet_membership, jet_prolong,
                     jet_prolong_universal, jet_space_equations,
                     jet_space_equations_universal)
from .verify import verify_connection

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_SINGULAR = 3

# The most coefficients n * C(r + d, d) of a jet (n series in d variables at
# order r) that jetspace, prolong, beta, alpha and verify accept; d and r are
# each held to it as well, also by membership and nondeg, which read only the
# terms they are given.  Larger inputs are refused with exit 2.
MAX_JET_COEFFICIENTS = 10_000


def _load_json_arg(value):
    """Inline JSON, or @path to read a file."""
    if value.startswith("@"):
        path = value[1:]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON in {path}: {exc}") from None
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad inline JSON: {exc}") from None


def _emit(data):
    sys.stdout.write(jio.canonical_dumps(data) + "\n")


def _expected(args, value, key):
    """Apply an --expect flag: exit 1 when the result contradicts it."""
    if args.expect is None:
        return EXIT_OK
    wanted = args.expect == "true"
    if value != wanted:
        print(f"{key}: expected {wanted}, got {value}", file=sys.stderr)
        return EXIT_FALSE
    return EXIT_OK


def _parse_matrix_arg(value, m):
    if value == "identity":
        return identity(m)
    data = _load_json_arg(value)
    matrix = jio.matrix_from_json(data)
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise InputError(f"matrix must be {m} x {m}")
    return matrix


def _parse_point_arg(value, n):
    if value.startswith("[") or value.startswith("@"):
        point = jio.point_from_json(_load_json_arg(value))
    else:
        point = tuple(jio.fraction_from_str(part)
                      for part in value.split(","))
    if len(point) != n:
        raise InputError(f"point must have {n} coordinates")
    return point


def _check_jet_shape(args):
    if args.d < 1:
        raise InputError("-d must be at least 1")
    if args.r < 0:
        raise InputError("-r must be non-negative")


def check_jet_bounds(n, d, r):
    """Refuse jets with d or r above MAX_JET_COEFFICIENTS."""
    limit = MAX_JET_COEFFICIENTS
    if d > limit or r > limit:
        raise InputError(f"jet too large: d={d} or r={r} exceeds {limit}")


def check_jet_size(n, d, r):
    """Refuse jets with more than MAX_JET_COEFFICIENTS coefficients.

    d and r are compared first, so `math.comb` only sees bounded arguments.
    """
    check_jet_bounds(n, d, r)
    limit = MAX_JET_COEFFICIENTS
    if n * math.comb(r + d, d) > limit:
        raise InputError(f"jet too large: n * C(r + d, d) with n={n}, d={d}, "
                         f"r={r} exceeds {limit} coefficients")


def _cmd_jetspace(args):
    _check_jet_shape(args)
    scheme = jio.scheme_from_json(_load_json_arg("@" + args.scheme))
    check_jet_size(scheme.n, args.d, args.r)
    build = jet_space_equations_universal if args.universal \
        else jet_space_equations
    system = build(scheme, args.d, args.r)
    _emit({"d": args.d, "r": args.r, "n": scheme.n,
           **jio.polysystem_to_json(system)})
    return EXIT_OK


def _cmd_prolong(args):
    _check_jet_shape(args)
    amap = jio.affine_map_from_json(_load_json_arg("@" + args.map))
    check_jet_size(max(amap.n, amap.m), args.d, args.r)
    build = jet_prolong_universal if args.universal else jet_prolong
    pmap = build(amap, args.d, args.r)
    _emit({"d": args.d, "r": args.r, "n": amap.n, "m": amap.m,
           **jio.polymap_to_json(pmap)})
    return EXIT_OK


def _cmd_membership(args):
    scheme = jio.scheme_from_json(_load_json_arg("@" + args.scheme))
    jet = jio.jet_from_json(_load_json_arg(args.jet), check_jet_bounds)
    member = jet_membership(scheme, jet)
    _emit({"member": member})
    return _expected(args, member, "member")


def _cmd_nondeg(args):
    jet = jio.jet_from_json(_load_json_arg(args.jet), check_jet_bounds)
    result = is_nondegenerate(jet)
    _emit({"nondegenerate": result})
    return _expected(args, result, "nondegenerate")


def _frame_inputs(args):
    """The chart, the jet (restricted by -r) and the initial matrix of the
    beta and alpha commands."""
    chart = jio.chart_from_json(_load_json_arg("@" + args.connection))
    if args.r is not None and args.r < 0:
        raise InputError("-r must be non-negative")

    def check_size(n, d, r):
        check_jet_size(n, d, r if args.r is None else min(r, args.r))

    jet = jio.jet_from_json(_load_json_arg(args.jet), check_size)
    if args.r is not None:
        jet = jet.restrict(args.r)
    return chart, jet, _parse_matrix_arg(args.init, chart.m)


def _cmd_beta(args):
    _emit(jio.matrixjet_to_json(beta(*_frame_inputs(args))))
    return EXIT_OK


def _cmd_alpha(args):
    _emit(jio.flagjet_to_json(alpha(*_frame_inputs(args))))
    return EXIT_OK


def _cmd_fv(args):
    chart = jio.chart_from_json(_load_json_arg("@" + args.connection))
    point = _parse_point_arg(args.point, chart.n)
    matrix = _parse_matrix_arg(args.matrix, chart.m)
    result = check_fv(chart, point, matrix)
    _emit({"fv": result})
    return _expected(args, result, "fv")


def _cmd_hr1(args):
    chart = jio.chart_from_json(_load_json_arg("@" + args.connection))
    flag = jio.flagjet_from_json(_load_json_arg(args.flag))
    if flag.hodge != chart.hodge:
        raise InputError("the flag's filtration data differ from the chart's")
    result = check_hr1(chart.hodge, flag)
    _emit({"hr1": result})
    return _expected(args, result, "hr1")


def _cmd_verify(args):
    if args.cases < 1:
        raise InputError("--cases must be at least 1")
    if args.max_order < 0:
        raise InputError("--max-order must be non-negative")
    chart = jio.chart_from_json(_load_json_arg("@" + args.connection))
    # verify draws jets with d <= 2 and r <= --max-order
    check_jet_size(chart.n, 2, args.max_order)
    report = verify_connection(chart, max_order=args.max_order,
                               seed=args.seed, cases=args.cases)
    _emit(report)
    for suite in report["suites"]:
        status = "ok" if not suite["failed"] else "FAILED"
        print(f"{suite['suite']}: {suite['cases']} cases, "
              f"{suite['failed']} failed [{status}]", file=sys.stderr)
    return EXIT_OK if report["ok"] else EXIT_FALSE


def _cmd_example(args):
    catalog = builtin_examples()
    if args.list or not args.name:
        _emit({"examples": {name: ex.description
                            for name, ex in sorted(catalog.items())}})
        return EXIT_OK
    if args.name not in catalog:
        raise InputError(f"unknown example {args.name!r}; "
                         f"available: {', '.join(sorted(catalog))}")
    example = catalog[args.name]
    points = {f"basepoint{i}": (pt,) if not isinstance(pt, tuple) else pt
              for i, pt in enumerate(example.basepoints)}
    _emit(jio.chart_to_json(example.chart, examples=points))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jetforge",
        description="exact jet spaces and jets of flat frames and local "
                    "period maps")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_expect(p):
        p.add_argument("--expect", choices=["true", "false"], default=None,
                       help="exit 1 unless the boolean result matches")

    p = sub.add_parser("jetspace", help="defining equations of a jet space")
    p.add_argument("--scheme", required=True, help="scheme JSON file")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--universal", action="store_true",
                   help="use the Taylor-expansion route")
    p.set_defaults(func=_cmd_jetspace)

    p = sub.add_parser("prolong", help="induced map on jet coordinates")
    p.add_argument("--map", required=True, help="polynomial map JSON file")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--universal", action="store_true")
    p.set_defaults(func=_cmd_prolong)

    p = sub.add_parser("membership", help="does a jet lie on the scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--jet", required=True, help="inline JSON or @file")
    add_expect(p)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("nondeg", help="are the induced tangents independent")
    p.add_argument("--jet", required=True)
    add_expect(p)
    p.set_defaults(func=_cmd_nondeg)

    p = sub.add_parser("beta", help="jet of the flat frame along a base jet")
    p.add_argument("--connection", required=True)
    p.add_argument("--jet", required=True)
    p.add_argument("--init", default="identity",
                   help="'identity' or an m x m rational matrix")
    p.add_argument("-r", type=int, default=None,
                   help="restrict the jet to this order first")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("alpha", help="jet of the local period map")
    p.add_argument("--connection", required=True)
    p.add_argument("--jet", required=True)
    p.add_argument("--init", default="identity")
    p.add_argument("-r", type=int, default=None)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("fv", help="torsor condition at a base point")
    p.add_argument("--connection", required=True)
    p.add_argument("--point", required=True,
                   help="comma separated rationals or JSON list")
    p.add_argument("--matrix", required=True)
    add_expect(p)
    p.set_defaults(func=_cmd_fv)

    p = sub.add_parser("hr1", help="first-relation check on a flag jet")
    p.add_argument("--connection", required=True)
    p.add_argument("--flag", required=True)
    add_expect(p)
    p.set_defaults(func=_cmd_hr1)

    p = sub.add_parser("verify", help="run the verification suites on a chart")
    p.add_argument("--connection", required=True)
    p.add_argument("--max-order", type=int, default=4, dest="max_order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=12)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example", help="export a built-in connection")
    p.add_argument("--name", default=None)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_example)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    if hasattr(args, "seed"):
        env_seed = os.environ.get("JETFORGE_SEED")
        if env_seed is not None:
            try:
                args.seed = int(env_seed)
            except ValueError:
                print("JETFORGE_SEED must be an integer", file=sys.stderr)
                return EXIT_INPUT
    try:
        return args.func(args)
    except (SingularPoint, SingularInitial, NoRationalFvPoint) as exc:
        print(f"singular data: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except JetforgeError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
