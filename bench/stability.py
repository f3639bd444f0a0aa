"""Run-to-run spread of the benchmark's metrics, and its recorded baseline.

    python3 bench/stability.py --runs 10 --first-seed 1
    python3 bench/stability.py --runs 5 --workloads estimate-poisson-large
    python3 bench/stability.py --runs 10 --record          # write seed_commit.json
    python3 bench/stability.py --runs 3 --trace 1 --record # per-layer medians too

Runs bench/run.py once per seed (first-seed, first-seed + 1, ...) for each
workload, one after the other. For every metric it prints the median and
quartiles (statistics.quantiles with n=4) and the spread, (q3 - q1) /
median. An end-to-end metric whose spread exceeds a third of its bound in
BENCHMARK.json is marked. --record stores the figures, the largest output
deviation from the reference and the environment in bench/seed_commit.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORD = BENCH / "seed_commit.json"


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    deviation = max(float(m) for m in re.findall(r"largest deviation (\S+) of", proc.stdout))
    raw = re.search(r"unscaled medians: op (\S+) s CPU, (\S+) s wall", proc.stdout)
    if raw:
        result["metrics"]["raw.op_cpu_s"] = {"value": float(raw.group(1)), "unit": "s"}
        result["metrics"]["raw.op_wall_s"] = {"value": float(raw.group(2)), "unit": "s"}
    return result, deviation


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def openblas(package):
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": openblas(numpy),
            "scipy_blas": openblas(scipy), "blas_threads_pinned": 1}


def main(argv=None):
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        config = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    figures, deviations, steady = {}, {}, True
    for workload in args.workloads:
        values, worst = {}, 0.0
        for seed in seeds:
            result, deviation = run_once(workload, seed, config["run_seconds"], args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed the check")
            worst = max(worst, deviation)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if bounds.get(k) or args.trace), flush=True)
        deviations[workload] = worst
        figures[workload] = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            figures[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "values": series}
            bound = bounds.get(name)
            mark = ""
            if bound is not None and args.trace == 0:
                mark = f"  bound {bound:g}: " + ("ok" if name == "setup_s" or spread < bound / 3
                                                 else "SPREAD ABOVE A THIRD OF THE BOUND")
                steady &= name == "setup_s" or spread < bound / 3
            print(f"  {workload:<24}{name:<40}median {median:<12.6g}q1 {q1:<12.6g}"
                  f"q3 {q3:<12.6g}spread {spread:.4f}{mark}")
        print(f"  {workload}: largest output deviation {worst:.3g} of tolerance", flush=True)

    if args.record:
        record = {}
        if RECORD.exists():
            with open(RECORD, encoding="utf-8") as handle:
                record = json.load(handle)
        key = "per_layer" if args.trace else "end_to_end"
        record["environment"] = environment()
        record.setdefault("seeds", {})[key] = seeds
        record.setdefault(key, {}).update(figures)
        if not args.trace:
            record["largest_deviation_share_of_tolerance"] = deviations
        with open(RECORD, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
