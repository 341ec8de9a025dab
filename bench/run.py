"""jetforge benchmark: one closed-loop client in one process, no threads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 32 --trace 0

Run from a checkout; the library is imported from its `src/` directory and
the workload and metric names are read from `BENCHMARK.json`.  Set-up
imports `jetforge` in a fresh interpreter and builds every input of the
workload, several times, and reports the median as `setup_s`.  The timed
phase then runs the workload's passes in turn, at least `MIN_PASSES` of
them, while the next pass is expected to end within `--seconds`, and
reports the request timings over every request of the timed phase.  Each
request is checked
against an independent route, and a failed check, an exception or an
unexpected exit code counts as a failure.

Every end-to-end time is scaled to a reference host speed.  Between
requests, and around each build of the inputs, the client times a fixed
kernel that runs no jetforge code (`reference_kernel`), and a time is
multiplied by `REFERENCE_KERNEL_S` over the kernel times taken around it.
Each fresh import of jetforge is scaled in the same way by a fresh import
of standard modules the library does not use (`IMPORT_REFERENCE`).  A
reported time is thus what the host would have taken at the speed where
the kernel takes `REFERENCE_KERNEL_S` and the reference import
`REFERENCE_IMPORT_S`.  The unscaled timings are printed on a JSON line
before the result.

With `--trace 0` the result holds the end-to-end metrics.  With `--trace 1`
the run makes a warm-up pass and an untraced pass, then the same pass with
every library function of `layers.GROUPS` wrapped, and reports the
per-layer metrics of the traced pass; those counts repeat exactly for a
given seed.

The last line of stdout is the result as JSON; the lines before it are the
environment and a readable summary.  The exit code is 0 only when every
request passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 7
MIN_PASSES = 3
# Standard modules the library does not import.  A fresh interpreter's
# import of them is timed before and after each import of jetforge and
# stands in for the host's speed at importing, which on the reference host
# varied by 1.7x between neighbouring imports and did not follow the kernel.
IMPORT_REFERENCE = (
    "asyncio", "email.mime.multipart", "email.parser", "http.server",
    "xml.dom.minidom", "xml.etree.ElementTree", "unittest", "pydoc",
    "smtplib", "logging.handlers", "tarfile", "csv", "configparser",
    "sqlite3", "html.parser", "mailbox", "difflib", "pdb", "doctest",
    "multiprocessing", "concurrent.futures")
REFERENCE_IMPORT_S = 0.1   # about their import time on the reference host
# About the kernel's time on the reference host.  That host runs the same
# code up to 1.8x faster or slower from one minute to the next, and the
# kernel's time moves with the workload's.
REFERENCE_KERNEL_S = 0.001
KERNEL_WINDOW = 3     # kernel samples each side of a request
KERNEL_WARM_UP = 20   # untimed calls first: the first ones run slower


def _ratio(num, den):
    common = math.gcd(num, den)
    if den < 0:
        common = -common
    return num // common, den // common


def reference_kernel(order=8):
    """Invert a fixed two-variable series with rational coefficients,
    truncated at `order`, multiply it back and check the product is 1.

    This is dictionary and integer work of the kind the library does, in
    code of its own: it shares no Python code with the library (not even
    `fractions`), so the interpreter's per-instruction specialisation, which
    the library's calls would retune, cannot change its speed."""
    monomials = [(i, d - i) for d in range(order + 1) for i in range(d + 1)]
    f = {m: _ratio((3 * m[0] - 2 * m[1]) % 7 - 3, 1 + (m[0] + 2 * m[1]) % 4)
         for m in monomials}
    f[(0, 0)] = (2, 3)
    g = {}
    for m in monomials:
        num, den = int(m == (0, 0)), 1
        for k, (gn, gd) in g.items():
            if k[0] <= m[0] and k[1] <= m[1]:
                fn, fd = f[(m[0] - k[0], m[1] - k[1])]
                num, den = _ratio(num * gd * fd - gn * fn * den, den * gd * fd)
        g[m] = _ratio(num * 3, den * 2)
    product = {}
    for a, (fn, fd) in f.items():
        for b, (gn, gd) in g.items():
            if a[0] + a[1] + b[0] + b[1] <= order:
                key = (a[0] + b[0], a[1] + b[1])
                pn, pd = product.get(key, (0, 1))
                product[key] = _ratio(pn * fd * gd + fn * gn * pd,
                                      pd * fd * gd)
    return all(v == (int(k == (0, 0)), 1) for k, v in product.items())


def kernel_seconds():
    """One timing of the reference kernel, with the cyclic garbage collector
    off so that the size of the library's heap does not count."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(times, kernels):
    """`times[i]` at the reference host speed.  `kernels[i]` was taken just
    before `times[i]` and `kernels[i + 1]` just after; each time is scaled
    by the median of the kernel samples within `KERNEL_WINDOW` of it, so a
    single preempted sample moves nothing."""
    return [t * REFERENCE_KERNEL_S / statistics.median(
                kernels[max(0, i + 1 - KERNEL_WINDOW): i + 1 + KERNEL_WINDOW])
            for i, t in enumerate(times)]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_seconds(modules, isolated=False):
    """Time of importing `modules` in a fresh interpreter; `isolated` runs
    it with `-I`, so that it sees the standard library only."""
    code = ("import time; start = time.perf_counter(); import "
            + ", ".join(modules) + "; print(time.perf_counter() - start)")
    argv = [sys.executable, *(["-I"] if isolated else []), "-c", code]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def set_up(workload, seed):
    """Median over repeats of (fresh import + building every input), scaled
    and unscaled, and the passes.  The import of jetforge is scaled by the
    mean of the reference imports just before and after it, and the build
    by the kernel times around it."""
    import workloads
    build = workloads.WORKLOADS[workload]
    for _ in range(KERNEL_WARM_UP):
        reference_kernel()
    references = [import_seconds(IMPORT_REFERENCE, isolated=True)]
    samples, raw = [], []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(["jetforge"])
        references.append(import_seconds(IMPORT_REFERENCE, isolated=True))
        kernels = [kernel_seconds() for _ in range(KERNEL_WINDOW)]
        start = time.perf_counter()
        passes = build(seed, WORKDIR)
        built = time.perf_counter() - start
        kernels += [kernel_seconds() for _ in range(KERNEL_WINDOW)]
        raw.append(imported + built)
        samples.append(
            imported * REFERENCE_IMPORT_S / statistics.mean(references[-2:])
            + built * REFERENCE_KERNEL_S / statistics.median(kernels))
    return statistics.median(samples), statistics.median(raw), passes


def run_pass(requests, failures, on_done=None):
    """Run the requests in order; their latencies unscaled and scaled."""
    clock = time.perf_counter
    latencies, kernels = [], [kernel_seconds()]
    for request in requests:
        start = clock()
        try:
            ok, outputs = request.call()
        except Exception:
            print(f"request {request.label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            ok, outputs = False, None
        latencies.append(clock() - start)
        if not ok:
            failures.append(request.label)
            print(f"request {request.label} failed its check",
                  file=sys.stderr)
        if on_done is not None:
            on_done(outputs)
        kernels.append(kernel_seconds())
    return latencies, scaled(latencies, kernels)


def timed_phase(passes, seconds):
    """[(unscaled latencies, scaled latencies)] per pass, and the failed
    labels."""
    clock = time.perf_counter
    done, failures = [], []
    start = clock()
    while True:
        done.append(run_pass(passes[len(done) % len(passes)], failures))
        elapsed = clock() - start
        if (len(done) >= MIN_PASSES
                and elapsed * (len(done) + 1) / len(done) > seconds):
            return done, failures


def timings(latencies):
    """req_per_s, req_ms_p50 and req_ms_p90 over `latencies`."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {"req_per_s": len(latencies) / sum(latencies),
            "req_ms_p50": deciles[4] * 1e3,
            "req_ms_p90": deciles[8] * 1e3}


def end_to_end(setup, passes, seconds):
    setup_s, setup_raw_s = setup
    done, failures = timed_phase(passes, seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = [t for latencies, _ in done for t in latencies]
    values = {"setup_s": setup_s,
              **timings([t for _, latencies in done for t in latencies]),
              "peak_rss_mb": peak_kib / 1024}
    unscaled = {"setup_s": setup_raw_s, **timings(raw)}
    n = len(raw)
    print(f"timed phase: {len(done)} passes, {n} requests, {sum(raw):.2f} s "
          f"in requests; p90 has {n - int(0.9 * n)} samples beyond it")
    print(json.dumps({"unscaled": unscaled}))
    print(f"fail_ratio: {len(failures)}/{n} = {len(failures) / n:g}")
    return values, n, failures


def traced(workload, requests, per_layer):
    """A warm-up pass, an untraced pass, then a traced pass; the metrics
    named in `per_layer` of the traced one."""
    import tracing
    import workloads
    failures = []
    run_pass(requests, failures)   # warm-up: a first pass runs slower
    untraced_s = sum(run_pass(requests, failures)[1])

    tracer = tracing.Tracer(extra_modules=[workloads])
    sizes = {"bits": 0, "den_deg": 0}

    def on_done(outputs):
        sizes["bits"] = max(sizes["bits"], tracing.bits_max(outputs))
        for table in tracer.tables:
            sizes["den_deg"] = max(sizes["den_deg"],
                                   tracing.den_degree_max(table))
        tracer.tables.clear()

    with tracer:
        traced_s = sum(run_pass(requests, failures, on_done)[1])
    groups = tracer.group_metrics()
    values = {}
    for name in per_layer:
        if name == "coeff.bits_max":
            values[name] = sizes["bits"]
        elif name == "connection.build_xi.den_deg_max":
            values[name] = sizes["den_deg"]
        else:
            group, _, field = name.rpartition(".")
            calls, self_s, pairs = groups[group]
            values[name] = {"calls": calls, "self_s": self_s,
                            "term_pairs": pairs}[field]
    # overhead is untraced over traced req_per_s, both at the reference
    # host speed; idle lists the wrapped functions with no call in a layer
    # expected to work on this workload
    print(json.dumps({"trace": {
        "requests": len(requests), "untraced_s": untraced_s,
        "traced_s": traced_s, "overhead": traced_s / untraced_s,
        "idle": tracer.idle_where_expected(workload)}}))
    return values, 3 * len(requests), failures


def git_commit():
    """The commit of a git checkout, read from .git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "jetforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": git_commit(), "src_sha256": source_digest()}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    benchmark = spec()
    args = parse_args(argv, [w["name"] for w in benchmark["workloads"]])
    if not (SRC / "jetforge" / "__init__.py").is_file():
        print(f"no jetforge sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("JETFORGE_SEED", None)   # would override cli verify seeds
    import jetforge
    if Path(jetforge.__file__).resolve().parent != SRC / "jetforge":
        print(f"jetforge was imported from {jetforge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in
             benchmark["per_layer" if args.trace else "end_to_end"]}
    try:
        *setup, passes = set_up(args.workload, args.seed)
        print(json.dumps({"env": environment(args)}, sort_keys=True))
        if args.trace:
            values, attempted, failures = traced(args.workload, passes[0],
                                                 units)
        else:
            values, attempted, failures = end_to_end(setup, passes,
                                                     args.seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
