import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import jetforge.cli as cli
import jetforge.flags as flags
import jetforge.io as jio
import jetforge.verify as verify
from jetforge.cli import run
from jetforge.connection import (ConnectionChart, MatrixJet, beta,
                                 series_oracle)
from jetforge.errors import InputError, NonIntegrable
from jetforge.examples import legendre_chart
from jetforge.flags import HodgeData, alpha, flag_of_matrix
from jetforge.linalg import identity, mat_mul, transpose
from jetforge.poly import Polynomial
from jetforge.ratfunc import RationalFunction
from jetforge.series import JetPoint, TruncatedSeries


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({
        "n": 2, "variables": ["x", "y"],
        "generators": ["x^2 + y^2 - 1"]}))
    return str(path)


@pytest.fixture
def legendre_file(tmp_path):
    path = tmp_path / "legendre.json"
    path.write_text(jio.canonical_dumps(jio.chart_to_json(legendre_chart())))
    return str(path)


def rank_one_chart_file(path, a1):
    """m = 1, n = 2 with A_1 = a1 and A_2 = 0, written as chart JSON."""
    zero = RationalFunction.zero(2)
    coeffs = [[[RationalFunction(-a1), zero]]]
    chart = ConnectionChart(2, 1, coeffs, 0, (1,),
                            [[RationalFunction.one(2)]], [[1]])
    path.write_text(jio.canonical_dumps(jio.chart_to_json(chart)))
    return str(path)


@pytest.fixture
def search_miss_file(tmp_path):
    """A constant weight-2 chart, filtration (4, 3, 1), whose Gram
    g = P^T q P is congruent to the lattice form q (a hyperbolic pair plus
    <1, 1>) but out of reach of the bounded congruence search.  P is
    block-triangular, so g obeys the first relation."""
    q = [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]
    p = [[2, 0, 2, -1], [0, -1, 2, 1], [0, 2, 0, 1], [0, 0, 0, 1]]
    gram = mat_mul(transpose(p), mat_mul(q, p))
    zero = RationalFunction.zero(1)
    chart = ConnectionChart(
        1, 4, [[[zero]] * 4 for _ in range(4)], 2, (4, 3, 1),
        [[RationalFunction.const(x, 1) for x in row] for row in gram], q)
    path = tmp_path / "search_miss.json"
    path.write_text(jio.canonical_dumps(jio.chart_to_json(chart)))
    return str(path)


@pytest.fixture
def non_integrable_file(tmp_path):
    """A_1 = z2 and A_2 = 0: d_2 A_1 != d_1 A_2 at every point."""
    return rank_one_chart_file(tmp_path / "non_integrable.json",
                               Polynomial.variable(1, 2))


@pytest.fixture
def cubic_file(tmp_path):
    """A_1 = z2^3 and A_2 = 0: d_2 A_1 = 3 z2^2 vanishes to order 1 at
    z2 = 0 and not at all at z2 = 1."""
    return rank_one_chart_file(tmp_path / "cubic.json",
                               Polynomial.variable(1, 2) ** 3)


def out_json(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out)


class TestJetspace:
    def test_circle(self, circle_file, capsys):
        assert run(["jetspace", "--scheme", circle_file, "-d", "1",
                    "-r", "1"]) == 0
        data = out_json(capsys)
        assert data["variables"] == ["a_x_0", "a_x_1", "a_y_0", "a_y_1"]
        assert data["equations"] == [
            "-1 + 1*a_x_0^2 + 1*a_y_0^2",
            "2*a_x_0^1*a_x_1^1 + 2*a_y_0^1*a_y_1^1"]

    def test_universal_route_matches(self, circle_file, capsys):
        assert run(["jetspace", "--scheme", circle_file, "-d", "2",
                    "-r", "2"]) == 0
        direct = out_json(capsys)
        assert run(["jetspace", "--scheme", circle_file, "-d", "2", "-r", "2",
                    "--universal"]) == 0
        universal = out_json(capsys)
        assert direct == universal


class TestProlong:
    def test_squaring(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "variables": ["x"],
                                    "components": ["x^2"]}))
        assert run(["prolong", "--map", str(path), "-d", "1", "-r", "1"]) == 0
        data = out_json(capsys)
        assert data["components"] == ["1*u1^2", "2*u1^1*u2^1"]


class TestBooleanCommands:
    def test_membership_expected_true(self, circle_file, capsys):
        jet = json.dumps({"d": 1, "r": 3,
                          "series": ["1 + -1/2 * t1^2",
                                     "1 * t1^1 + -1/6 * t1^3"]})
        assert run(["membership", "--scheme", circle_file, "--jet", jet,
                    "--expect", "true"]) == 0
        assert out_json(capsys) == {"member": True}

    def test_jet_from_file_reference(self, circle_file, tmp_path, capsys):
        jet_path = tmp_path / "jet.json"
        jet_path.write_text(json.dumps({
            "d": 1, "r": 3,
            "series": ["1 + -1/2 * t1^2", "1 * t1^1 + -1/6 * t1^3"]}))
        assert run(["membership", "--scheme", circle_file,
                    "--jet", "@" + str(jet_path)]) == 0
        assert out_json(capsys) == {"member": True}

    def test_membership_expect_mismatch_exits_one(self, circle_file, capsys):
        jet = json.dumps({"d": 1, "r": 1, "series": ["2", "0"]})
        assert run(["membership", "--scheme", circle_file, "--jet", jet,
                    "--expect", "true"]) == 1
        assert out_json(capsys) == {"member": False}

    def test_nondeg(self, capsys):
        jet = json.dumps({"d": 2, "r": 1,
                          "series": ["1 * t1^1 + 1 * t2^1",
                                     "2 * t1^1 + 2 * t2^1"]})
        assert run(["nondeg", "--jet", jet, "--expect", "false"]) == 0
        assert out_json(capsys) == {"nondegenerate": False}

    def test_fv(self, legendre_file, capsys):
        matrix = json.dumps([["1", "0"], ["0", "1/4"]])
        assert run(["fv", "--connection", legendre_file, "--point", "1/2",
                    "--matrix", matrix, "--expect", "true"]) == 0
        assert out_json(capsys) == {"fv": True}


    def test_sparse_high_order_jet_is_not_size_limited(self, circle_file,
                                                       capsys):
        # membership and nondeg read the jet they are given; only the
        # commands that enumerate jet coefficients are size-limited
        jet = json.dumps({"d": 2, "r": 400,
                          "series": ["1 + 1 * t1^1", "1 * t2^1 + 1 * t1^3"]})
        assert run(["membership", "--scheme", circle_file, "--jet", jet]) == 0
        assert out_json(capsys) == {"member": False}
        assert run(["nondeg", "--jet", jet]) == 0
        assert out_json(capsys) == {"nondegenerate": True}


class TestSizeGuard:
    def test_guard_arithmetic(self):
        limit = cli.MAX_JET_COEFFICIENTS
        assert limit == 10_000  # the value README documents
        for n, d, r in ((1, 1, limit - 1), (2, 1, limit // 2 - 1),
                        (1, limit, 0), (1, 2, 139)):
            cli.check_jet_size(n, d, r)
        for n, d, r in ((1, 1, limit), (2, 1, limit // 2), (1, limit + 1, 0),
                        (1, 2, 140), (limit + 1, 1, 0)):
            with pytest.raises(InputError, match="too large"):
                cli.check_jet_size(n, d, r)

    def test_bounds_on_d_and_r_come_before_the_binomial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"math.comb called with {args}")

        monkeypatch.setattr(cli.math, "comb", refuse)
        for d, r in ((10 ** 18, 1), (1, 10 ** 18)):
            with pytest.raises(InputError, match="too large"):
                cli.check_jet_size(1, d, r)

    def refused(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err

    def test_jetspace(self, circle_file, capsys):
        # the circle has n = 2: 2 * C(r + 1, 1) = limit + 2
        r = cli.MAX_JET_COEFFICIENTS // 2
        self.refused(["jetspace", "--scheme", circle_file, "-d", "1",
                      "-r", str(r)], capsys)

    def test_prolong(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "variables": ["x"],
                                    "components": ["x^2"]}))
        self.refused(["prolong", "--map", str(path), "-d", "1",
                      "-r", str(cli.MAX_JET_COEFFICIENTS)], capsys)

    @pytest.mark.parametrize("command", ["beta", "alpha"])
    def test_frame_commands(self, command, legendre_file, capsys):
        jet = json.dumps({"d": 1, "r": cli.MAX_JET_COEFFICIENTS,
                          "series": ["1/2 + 1 * t1^1"]})
        self.refused([command, "--connection", legendre_file, "--jet", jet],
                     capsys)

    def test_frame_jet_is_checked_before_it_is_parsed(self, legendre_file,
                                                       capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a series was parsed")

        monkeypatch.setattr(jio.TruncatedSeries, "from_string", refuse)
        jet = json.dumps({"d": cli.MAX_JET_COEFFICIENTS + 1, "r": 1,
                          "series": ["1/2 + 1 * t1^1"]})
        self.refused(["beta", "--connection", legendre_file, "--jet", jet],
                     capsys)

    @pytest.mark.parametrize("command", ["membership", "nondeg"])
    def test_jet_reading_commands_bound_d_and_r(self, command, circle_file,
                                                capsys, monkeypatch):
        # membership and nondeg read only the terms they are given, so the
        # coefficient count is not held, but d and r are, before parsing
        argv = ["nondeg"] if command == "nondeg" else \
            ["membership", "--scheme", circle_file]
        limit = cli.MAX_JET_COEFFICIENTS
        series = ["1 + 1 * t1^1", "1 * t1^1"]
        at_bound = json.dumps({"d": limit, "r": limit, "series": series})
        assert run(argv + ["--jet", at_bound]) == 0
        capsys.readouterr()

        def refuse(*args):
            raise AssertionError("a series was parsed")

        monkeypatch.setattr(jio.TruncatedSeries, "from_string", refuse)
        for d, r in ((limit + 1, 1), (1, limit + 1)):
            jet = json.dumps({"d": d, "r": r, "series": series})
            self.refused(argv + ["--jet", jet], capsys)

    @pytest.mark.parametrize("command", ["beta", "alpha"])
    def test_frame_commands_count_the_frame(self, command, legendre_file,
                                            capsys, monkeypatch):
        # Legendre has n = 1 and m = 2: the frame jet has 4 * C(r + 1, 1)
        # coefficients, 10,004 at r = 2500, and the jet is refused unparsed
        def refuse(*args):
            raise AssertionError("a series was parsed")

        monkeypatch.setattr(jio.TruncatedSeries, "from_string", refuse)
        jet = json.dumps({"d": 1, "r": 2500, "series": ["1/2 + 1 * t1^1"]})
        self.refused([command, "--connection", legendre_file, "--jet", jet],
                     capsys)

    def test_verify_counts_the_frame(self, legendre_file, capsys,
                                     monkeypatch):
        # 4 * C(71, 2) = 9,940 passes and 4 * C(72, 2) = 10,224 does not
        orders = []

        def record(chart, max_order, seed, cases):
            orders.append(max_order)
            return {"ok": True, "suites": []}

        monkeypatch.setattr(cli, "verify_connection", record)
        argv = ["verify", "--connection", legendre_file, "--cases", "1",
                "--max-order"]
        assert run(argv + ["69"]) == 0
        capsys.readouterr()
        self.refused(argv + ["70"], capsys)
        assert orders == [69]

    def test_restriction_order_is_what_counts(self, legendre_file, capsys):
        jet = json.dumps({"d": 1, "r": cli.MAX_JET_COEFFICIENTS + 1,
                          "series": ["1/2 + 1 * t1^1"]})
        assert run(["beta", "--connection", legendre_file, "--jet", jet,
                    "-r", "2"]) == 0
        assert out_json(capsys)["r"] == 2

    def test_verify(self, legendre_file, capsys):
        # Legendre has n = 1 and verify draws jets with d <= 2
        r = next(r for r in range(cli.MAX_JET_COEFFICIENTS)
                 if math.comb(r + 2, 2) > cli.MAX_JET_COEFFICIENTS)
        self.refused(["verify", "--connection", legendre_file, "--max-order",
                      str(r), "--cases", "1"], capsys)


class TestFrameCommands:
    def test_beta_matches_library(self, legendre_file, capsys):
        jet = json.dumps({"d": 1, "r": 3, "series": ["1/2 + 1 * t1^1"]})
        assert run(["beta", "--connection", legendre_file, "--jet", jet,
                    "--init", "identity"]) == 0
        data = out_json(capsys)
        from jetforge.connection import beta as lib_beta
        import jetforge.linalg as la
        from jetforge.series import JetPoint, TruncatedSeries
        sigma = JetPoint([TruncatedSeries(1, 3, {(0,): Fraction(1, 2),
                                                 (1,): 1})])
        expected = lib_beta(legendre_chart(), sigma, la.identity(2))
        assert data == jio.matrixjet_to_json(expected)

    def test_alpha_then_hr1(self, legendre_file, capsys):
        jet = json.dumps({"d": 1, "r": 2, "series": ["1/2 + 1 * t1^1"]})
        matrix = json.dumps([["1", "0"], ["0", "1/4"]])
        assert run(["alpha", "--connection", legendre_file, "--jet", jet,
                    "--init", matrix]) == 0
        flag = capsys.readouterr().out
        assert run(["hr1", "--connection", legendre_file, "--flag",
                    flag.strip(), "--expect", "true"]) == 0
        assert out_json(capsys) == {"hr1": True}

    def test_singular_initial_exit_three(self, legendre_file, capsys):
        # beta checks the initial matrix, for alpha too
        jet = json.dumps({"d": 1, "r": 2, "series": ["1/2 + 1 * t1^1"]})
        for command in ("beta", "alpha"):
            assert run([command, "--connection", legendre_file, "--jet", jet,
                        "--init", "[[1, 1], [1, 1]]"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "singular" in captured.err

    def test_singular_point_exit_three(self, legendre_file, capsys):
        jet = json.dumps({"d": 1, "r": 2, "series": ["1 * t1^1"]})
        assert run(["beta", "--connection", legendre_file, "--jet", jet]) == 3

    def test_non_integrable_chart_exit_two(self, non_integrable_file,
                                           capsys):
        # frame jets are not defined on such a chart, so library beta and
        # the CLI both refuse it
        chart = jio.chart_from_json(json.loads(
            open(non_integrable_file).read()))
        sigma = JetPoint([TruncatedSeries.variable(0, 2, 2),
                          TruncatedSeries.variable(1, 2, 2)])
        with pytest.raises(NonIntegrable):
            beta(chart, sigma, [[Fraction(1)]])
        jet = json.dumps({"d": 2, "r": 2, "series": ["1 * t1^1",
                                                     "1 * t2^1"]})
        for command in ("beta", "alpha"):
            assert run([command, "--connection", non_integrable_file,
                        "--jet", jet]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "mixed-partial" in captured.err

    def test_non_integrable_chart_below_order_two(self, non_integrable_file,
                                                  capsys):
        # orders 0 and 1 read no mixed partial: the CLI prints the frame
        # that library beta returns, the identity jet
        chart = jio.chart_from_json(json.loads(
            open(non_integrable_file).read()))
        for r in (0, 1):
            sigma = JetPoint([TruncatedSeries.variable(0, 2, r),
                              TruncatedSeries.variable(1, 2, r)])
            frame = beta(chart, sigma, [[Fraction(1)]])
            assert frame == MatrixJet.identity(1, 2, r)
            jet = json.dumps(jio.jet_to_json(sigma))
            assert run(["beta", "--connection", non_integrable_file,
                        "--jet", jet]) == 0
            assert out_json(capsys) == jio.matrixjet_to_json(frame)
            assert run(["alpha", "--connection", non_integrable_file,
                        "--jet", jet]) == 0
            assert out_json(capsys) == jio.flagjet_to_json(
                alpha(chart, sigma, [[Fraction(1)]]))

    def test_cli_follows_library_beta_at_the_base_point(self, cubic_file,
                                                         capsys):
        # d_2 A_1 = 3 z2^2 vanishes at (0, 0) through order 1, all that an
        # order-3 jet reads there, and not at all at (0, 1)
        chart = jio.chart_from_json(json.loads(open(cubic_file).read()))
        sigma = JetPoint([TruncatedSeries.variable(0, 2, 3),
                          TruncatedSeries.variable(1, 2, 3)])
        frame = beta(chart, sigma, [[Fraction(1)]])
        assert frame == series_oracle(chart, sigma, [[Fraction(1)]])
        jet = json.dumps(jio.jet_to_json(sigma))
        assert run(["beta", "--connection", cubic_file, "--jet", jet]) == 0
        assert out_json(capsys) == jio.matrixjet_to_json(frame)
        shifted = json.dumps({"d": 2, "r": 2,
                              "series": ["1 * t1^1", "1 + 1 * t2^1"]})
        assert run(["beta", "--connection", cubic_file, "--jet",
                    shifted]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mixed-partial" in captured.err

    def test_verify_refuses_non_integrable_chart(self, non_integrable_file,
                                                 capsys):
        # library beta raises NonIntegrable, so verify exits 2 instead of
        # reporting failed dual-route and flatness cases with exit 1
        assert run(["verify", "--connection", non_integrable_file,
                    "--cases", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mixed-partial" in captured.err

    def test_order_restriction_flag(self, legendre_file, capsys):
        jet = json.dumps({"d": 1, "r": 3, "series": ["1/2 + 1 * t1^1"]})
        assert run(["beta", "--connection", legendre_file, "--jet", jet,
                    "-r", "1"]) == 0
        assert out_json(capsys)["r"] == 1


class TestVerify:
    def test_verify_legendre(self, legendre_file, capsys):
        assert run(["verify", "--connection", legendre_file, "--max-order",
                    "3", "--cases", "5", "--seed", "7"]) == 0
        data = out_json(capsys)
        assert data["ok"] is True
        assert {s["suite"] for s in data["suites"]} == {
            "dual_route", "right_equivariance", "flatness", "hr1_containment"}

    def test_verify_is_seed_deterministic(self, legendre_file, capsys):
        run(["verify", "--connection", legendre_file, "--cases", "4",
             "--seed", "5"])
        first = capsys.readouterr().out
        run(["verify", "--connection", legendre_file, "--cases", "4",
             "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_verify_builtin_examples(self, tmp_path, capsys):
        for name in ("exponential", "nilpotent"):
            assert run(["example", "--name", name]) == 0
            path = tmp_path / f"{name}.json"
            path.write_text(capsys.readouterr().out)
            assert run(["verify", "--connection", str(path), "--cases", "4",
                        "--max-order", "3"]) == 0
            assert out_json(capsys)["ok"] is True

    def test_search_miss_is_unchecked_not_passed(self, search_miss_file,
                                                 capsys):
        assert run(["verify", "--connection", search_miss_file, "--cases",
                    "1", "--max-order", "1"]) == 0
        captured = capsys.readouterr()
        hr1 = json.loads(captured.out)["suites"][-1]
        assert hr1 == {"suite": "hr1_containment", "cases": 0, "failed": 0,
                       "failures": [], "unchecked": ["case0[d=2,r=1]"]}
        hr1_line = next(line for line in captured.err.splitlines()
                        if line.startswith("hr1_containment"))
        assert hr1_line == "hr1_containment: 0 cases, 0 failed, 1 " \
            "unchecked (case0[d=2,r=1]) [unchecked]"
        assert "[ok]" not in hr1_line

    def test_search_runs_once_per_base_point(self, search_miss_file,
                                             capsys, monkeypatch):
        searched, bases = [], []
        search, eta = flags.solve_congruence, verify.eta_chartlocal

        def counting_search(g, q, weight):
            searched.append(g)
            return search(g, q, weight)

        def counting_eta(chart, sigma):
            bases.append(sigma.basepoint())
            return eta(chart, sigma)

        monkeypatch.setattr(flags, "solve_congruence", counting_search)
        monkeypatch.setattr(verify, "eta_chartlocal", counting_eta)
        assert run(["verify", "--connection", search_miss_file, "--cases",
                    "8", "--max-order", "1", "--seed", "0"]) == 0
        hr1 = json.loads(capsys.readouterr().out)["suites"][-1]
        assert hr1["cases"] == 0 and len(hr1["unchecked"]) == 8
        assert len(bases) == 8 and len(set(bases)) < 8
        assert len(searched) == len(set(bases))

    def test_env_seed_override(self, legendre_file, capsys, monkeypatch):
        monkeypatch.setenv("JETFORGE_SEED", "5")
        run(["verify", "--connection", legendre_file, "--cases", "4",
             "--seed", "99"])
        env_run = capsys.readouterr().out
        monkeypatch.delenv("JETFORGE_SEED")
        run(["verify", "--connection", legendre_file, "--cases", "4",
             "--seed", "5"])
        plain = capsys.readouterr().out
        assert env_run == plain


    def test_consecutive_runs_share_one_parser(self, legendre_file, capsys,
                                               monkeypatch):
        jet = json.dumps({"d": 1, "r": 3, "series": ["1/3 + 1 * t1^1"]})
        calls = [
            ["beta", "--connection", legendre_file, "--jet", jet],
            ["beta", "--connection", legendre_file],
            ["alpha", "--connection", legendre_file, "--jet", jet],
            ["verify", "--connection", legendre_file, "--cases", "2",
             "--max-order", "2", "--seed", "3"],
        ]
        monkeypatch.delenv("JETFORGE_SEED", raising=False)
        builds = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            if kwargs.get("prog") == "jetforge":
                builds.append(kwargs)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        in_process = []
        for argv in calls:
            code = run(argv)
            in_process.append((code, capsys.readouterr().out))
        cli.build_parser.cache_clear()
        assert len(builds) == 1
        assert [code for code, _ in in_process] == [0, 2, 0, 0]
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items()
               if key != "JETFORGE_SEED"}
        env["PYTHONPATH"] = src
        fresh = []
        for argv in calls:
            done = subprocess.run([sys.executable, "-m", "jetforge.cli",
                                   *argv], env=env, capture_output=True,
                                  text=True)
            fresh.append((done.returncode, done.stdout))
        assert in_process == fresh

    @pytest.mark.parametrize("flag,value", [("--cases", "-1"),
                                            ("--cases", "0"),
                                            ("--max-order", "-2")])
    def test_rejects_empty_or_negative_ranges(self, legendre_file, capsys,
                                              flag, value):
        assert run(["verify", "--connection", legendre_file,
                    flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err


class TestExampleExport:
    def test_list(self, capsys):
        assert run(["example", "--list"]) == 0
        data = out_json(capsys)
        assert "legendre" in data["examples"]

    def test_export_round_trips(self, capsys):
        assert run(["example", "--name", "legendre"]) == 0
        data = out_json(capsys)
        chart = jio.chart_from_json(data)
        assert chart.m == 2
        points = jio.chart_examples_from_json(data)
        assert (Fraction(1, 2),) in points.values()

    def test_unknown_example_is_input_error(self, capsys):
        assert run(["example", "--name", "nope"]) == 2

    def test_export_is_byte_stable(self, capsys):
        golden = pathlib.Path(__file__).parent / "golden" / "legendre.json"
        assert run(["example", "--name", "legendre"]) == 0
        assert capsys.readouterr().out == golden.read_text()


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert run(["jetspace", "--scheme", "/nonexistent.json", "-d", "1",
                    "-r", "1"]) == 2

    def test_bad_inline_json(self, circle_file, capsys):
        assert run(["membership", "--scheme", circle_file,
                    "--jet", "{bad"]) == 2

    def test_bad_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def _legendre_flag(self, legendre_file, capsys):
        jet = json.dumps({"d": 1, "r": 2, "series": ["1/2 + 1 * t1^1"]})
        matrix = json.dumps([["1", "0"], ["0", "1/4"]])
        assert run(["alpha", "--connection", legendre_file, "--jet", jet,
                    "--init", matrix]) == 0
        return out_json(capsys)

    def test_malformed_flag_key(self, legendre_file, capsys):
        flag = self._legendre_flag(legendre_file, capsys)
        flag["coords"]["w_x_0"] = "0"
        assert run(["hr1", "--connection", legendre_file,
                    "--flag", json.dumps(flag)]) == 2
        assert "w_x_0" in capsys.readouterr().err

    def test_flag_coordinate_outside_representative(self, legendre_file,
                                                     capsys):
        flag = self._legendre_flag(legendre_file, capsys)
        assert flag["chart"] == [[0]]
        flag["coords"]["w_1_5"] = "1"
        assert run(["hr1", "--connection", legendre_file,
                    "--flag", json.dumps(flag)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("pivots", [[[5]], [[-1]]])
    def test_flag_pivot_row_outside_the_frame(self, legendre_file, capsys,
                                              pivots):
        flag = self._legendre_flag(legendre_file, capsys)
        flag["chart"] = pivots
        assert run(["hr1", "--connection", legendre_file,
                    "--flag", json.dumps(flag)]) == 2
        assert capsys.readouterr().out == ""

    def test_hr1_rejects_flag_of_other_filtration(self, legendre_file,
                                                   capsys):
        hodge = HodgeData(3, 2, (3, 2, 1), [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        flag = jio.flagjet_to_json(flag_of_matrix(hodge, identity(3)))
        flag["coords"]["w_2_0"] = "1"
        assert run(["hr1", "--connection", legendre_file,
                    "--flag", json.dumps(flag)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("key, value", [
        ("polarization", [[0, 1], [1, 0]]),
        ("connection", [[[{"num": "0", "den": "1"}]] * 2]),
        ("filtration_dims", [2, 2]),
        ("filtration_dims", [2, 0]),
    ])
    def test_malformed_chart(self, tmp_path, capsys, key, value):
        data = jio.chart_to_json(legendre_chart())
        data[key] = value
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(data))
        jet = json.dumps({"d": 1, "r": 2, "series": ["1/2 + 1 * t1^1"]})
        assert run(["beta", "--connection", str(path), "--jet", jet]) == 2

    @pytest.mark.parametrize("coords", [["1"], {"w_1_0": 1}])
    def test_malformed_flag_coords(self, legendre_file, capsys, coords):
        flag = self._legendre_flag(legendre_file, capsys)
        flag["coords"] = coords
        assert run(["hr1", "--connection", legendre_file,
                    "--flag", json.dumps(flag)]) == 2

    def test_init_matrix_rows_must_be_lists(self, legendre_file, capsys):
        jet = json.dumps({"d": 1, "r": 2, "series": ["1/2 + 1 * t1^1"]})
        assert run(["beta", "--connection", legendre_file, "--jet", jet,
                    "--init", "[1, 2]"]) == 2

    @pytest.mark.parametrize("d, r", [(0, 2), (1, -1)])
    def test_jet_dims_and_order(self, legendre_file, capsys, d, r):
        jet = json.dumps({"d": d, "r": r, "series": ["0"]})
        assert run(["beta", "--connection", legendre_file, "--jet", jet]) == 2

    def test_negative_restriction_order(self, legendre_file, capsys):
        jet = json.dumps({"d": 1, "r": 2, "series": ["1/2 + 1 * t1^1"]})
        assert run(["beta", "--connection", legendre_file, "--jet", jet,
                    "-r", "-1"]) == 2

    def test_jetspace_needs_positive_d(self, circle_file, capsys):
        assert run(["jetspace", "--scheme", circle_file, "-d", "0",
                    "-r", "1"]) == 2

    def test_prolong_needs_positive_d(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "variables": ["x"],
                                    "components": ["x^2"]}))
        assert run(["prolong", "--map", str(path), "-d", "0", "-r", "1"]) == 2

    def test_float_jet_dims_and_order(self, legendre_file, capsys):
        # int() used to read these as d=1, r=1 and print a frame jet
        jet = json.dumps({"d": 1.9, "r": 1.7, "series": ["1/2 + 1 * t1^1"]})
        assert run(["beta", "--connection", legendre_file, "--jet", jet]) == 2
        assert capsys.readouterr().out == ""

    def test_float_polarization(self, tmp_path, capsys):
        data = jio.chart_to_json(legendre_chart())
        data["polarization"] = [[0, 1.5], [-1.5, 0]]
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(data))
        jet = json.dumps({"d": 1, "r": 2, "series": ["1/2 + 1 * t1^1"]})
        assert run(["beta", "--connection", str(path), "--jet", jet]) == 2
        assert capsys.readouterr().out == ""

    def test_repeated_variable_names(self, tmp_path, capsys):
        # the generator used to be read in the second variable only, so
        # the jet (5, 1) was a member and jetspace named two coordinates
        # a_x_0
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({"n": 2, "variables": ["x", "x"],
                                    "generators": ["x^2 - 1"]}))
        jet = json.dumps({"d": 1, "r": 0, "series": ["5", "1"]})
        assert run(["membership", "--scheme", str(path), "--jet", jet]) == 2
        assert run(["jetspace", "--scheme", str(path), "-d", "1",
                    "-r", "0"]) == 2
        assert capsys.readouterr().out == ""


class TestGramRefusal:
    """A Gram matrix without the symmetry of the weight (symmetric for an
    even weight, alternating for an odd one) is refused by the library with
    ValueError and by the CLI with exit code 2."""

    # (weight, filtration dims, polarization, {(i, k): wrong Gram entry})
    CASES = {
        "odd_nonzero_diagonal": (
            1, (2, 1), [[0, 1], [-1, 0]], {(1, 1): "z"}),
        "odd_last_pair": (
            1, (4, 2), [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1],
                        [0, 0, -1, 0]], {(3, 2): "1"}),
        "even_last_pair": (
            0, (3,), [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            {(1, 2): "z", (2, 1): "-1*z^1"}),
        "even_weight_two_last_pair": (
            2, (3, 1), [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            {(1, 2): "2", (2, 1): "3"}),
    }

    @staticmethod
    def chart_args(weight, dims, pol, wrong):
        m = len(pol)
        zero = RationalFunction.zero(1)
        gram = [[RationalFunction.const(x, 1) for x in row] for row in pol]
        for (i, k), text in wrong.items():
            gram[i][k] = RationalFunction(Polynomial.from_string(text, ["z"]))
        return (1, m, [[[zero]] * m for _ in range(m)], weight, dims, gram,
                pol, ["z"])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_in_the_library_and_the_cli(self, case, tmp_path,
                                                capsys):
        weight, dims, pol, wrong = self.CASES[case]
        with pytest.raises(ValueError, match="symmetry of the weight"):
            ConnectionChart(*self.chart_args(weight, dims, pol, wrong))
        # the same chart with the polarization as Gram is accepted
        valid = ConnectionChart(*self.chart_args(weight, dims, pol, {}))
        path = tmp_path / "chart.json"
        argv = ["beta", "--connection", str(path), "--jet",
                json.dumps({"d": 1, "r": 1, "series": ["1 + 1 * t1^1"]}),
                "--init", "identity"]
        data = jio.chart_to_json(valid)
        path.write_text(jio.canonical_dumps(data))
        assert run(argv) == 0
        capsys.readouterr()
        for (i, k), text in wrong.items():
            data["gram"][i][k] = {"num": text, "den": "1"}
        path.write_text(jio.canonical_dumps(data))
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "symmetry of the weight" in captured.err
