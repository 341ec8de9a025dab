"""The benchmark's own checks, at a small size.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = 8


def _bindings():
    """Every attribute of every library module and of its classes."""
    out = {}
    for mod in tracing._library_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if inspect.isclass(value):
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_tracing_is_undone(workload, tmp_path):
    per_layer = {m["name"]: m["unit"] for m in run.spec()["per_layer"]}
    before = _bindings()
    counts = []
    for _ in range(2):
        requests = workloads.WORKLOADS[workload](7, tmp_path)[0][:SMALL]
        values, _, failures = run.traced(workload, requests, per_layer)
        assert not failures
        counts.append({name: value for name, value in values.items()
                       if name.endswith(layers.DETERMINISTIC_SUFFIXES)})
    assert counts[0] == counts[1]
    assert counts[0]["series.mul.calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_every_binding_of_a_wrapped_function_is_replaced():
    from jetforge import cli, connection, flags, verify
    from jetforge.series import TruncatedSeries
    original = connection.beta
    with tracing.Tracer():
        for mod in (connection, flags, cli, verify):
            assert mod.beta.__wrapped__ is original
        assert hasattr(verify.build_xi, "__wrapped__")
        assert hasattr(flags.invert_series_matrix, "__wrapped__")
        assert TruncatedSeries.__rmul__ is TruncatedSeries.__mul__
        assert hasattr(TruncatedSeries.__mul__, "__wrapped__")
    assert connection.beta is original and flags.beta is original


def test_wrapped_methods_count_calls_and_term_pairs():
    from jetforge.series import TruncatedSeries
    a = TruncatedSeries(1, 3, {(0,): 1, (1,): 2})
    tracer = tracing.Tracer()
    with tracer:
        (a * a).invert_unit()
    groups = tracer.group_metrics()
    calls, self_s, pairs = groups["series.mul"]
    assert calls >= 4 and pairs >= 4 and self_s >= 0
    assert groups["series.invert_unit"][0] == 1


def _labels(passes):
    return [[r.label for r in requests] for requests in passes]


def test_inputs_depend_only_on_the_seed(tmp_path):
    for build in workloads.WORKLOADS.values():
        first = _labels(build(5, tmp_path))
        assert first == _labels(build(5, tmp_path))
        assert first != _labels(build(6, tmp_path))
        assert len(first) == workloads.PASSES
        assert all(len(labels) >= 100 for labels in first)
        assert sorted(first[0]) != sorted(first[1])


def test_failed_checks_and_exceptions_count_as_failures():
    def boom():
        raise ValueError("boom")

    requests = [workloads.Request("good", lambda: (True, None)),
                workloads.Request("wrong", lambda: (False, None)),
                workloads.Request("raises", boom)]
    failures = []
    latencies, scaled = run.run_pass(requests, failures)
    assert len(latencies) == len(scaled) == 3
    assert failures == ["wrong", "raises"]


def test_scaling_divides_by_the_kernel_time_around_each_request():
    assert run.reference_kernel()
    kernels = [run.REFERENCE_KERNEL_S] * 4 + [2 * run.REFERENCE_KERNEL_S] * 8
    times = [0.01] * 11
    assert run.scaled(times, kernels)[:2] == [0.01, 0.01]
    assert run.scaled(times, kernels)[-2:] == [0.005, 0.005]
    preempted = [run.REFERENCE_KERNEL_S] * 12
    preempted[5] *= 10
    assert run.scaled(times, preempted) == times


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
