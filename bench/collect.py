"""Repeat the benchmark over seeds and summarise the runs.

    python3 bench/collect.py --runs 10 --first-seed 1 --out baseline.json

Runs `bench/run.py` once per seed and workload of BENCHMARK.json, one run
at a time, for its `run_seconds`, and reports for each workload the median
and quartiles of every end-to-end metric and its spread, (q3 - q1) /
median, next to the bound in BENCHMARK.json, with the spread of the same
timing unscaled.  It then makes two traced runs with the first seed, checks
that their counts agree exactly, and keeps the first.  Exits 1 when a run
fails or the traced counts differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    extra = {}
    for line in lines[:-1]:
        if line.startswith("{"):
            extra.update(json.loads(line))
    return json.loads(lines[-1]), extra, wall


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound, "values": values}


def traced_pair(workload, seed, seconds):
    first, extra, wall = run_once(workload, seed, seconds, 1)
    second, _, _ = run_once(workload, seed, seconds, 1)
    exact = [name for name in first["metrics"]
             if name.endswith(layers.DETERMINISTIC_SUFFIXES)]
    differ = [name for name in exact
              if first["metrics"][name] != second["metrics"][name]]
    return {"seed": seed, "wall_s": wall, "counts_repeat": not differ,
            "counts_differ": differ, **extra.get("trace", {}),
            "metrics": {name: m["value"]
                        for name, m in first["metrics"].items()}}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        results, unscaled, walls = [], [], []
        for seed in seeds:
            result, extra, wall = run_once(workload, seed, seconds, 0)
            summary.setdefault("env", extra.get("env"))
            results.append(result)
            unscaled.append(extra["unscaled"])
            walls.append(wall)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
                + f" ({wall:.0f} s)", flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        row = {"attempted": attempted, "failed": failed,
               "fail_ratio": failed / attempted,
               "wall_s_max": max(walls), "metrics": {}, "unscaled": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            row["metrics"][name] = stats = summarise(values, bound)
            line = (f"  {name}: median {stats['median']:.4g}, spread "
                    f"{stats['spread']:.3f} (bound {bound})")
            if name in unscaled[0]:
                row["unscaled"][name] = clock = summarise(
                    [u[name] for u in unscaled], bound)
                line += f"; unscaled spread {clock['spread']:.3f}"
            print(line, flush=True)
        row["traced"] = traced = traced_pair(workload, seeds[0], seconds)
        ok = ok and traced["counts_repeat"]
        print(f"  traced counts repeat: {traced['counts_repeat']}",
              flush=True)
        summary["workloads"][workload] = row
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True)
                            + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
