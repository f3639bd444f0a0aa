"""The rrdid benchmark: one workload per run, in its own process.

    python3 bench/run.py --workload mc-grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
    mc-grid                 the paper's Monte Carlo table grid through
                            `rrdid simulate`, one operation per cell
    estimate-poisson-large  Poisson `rrdid estimate` on a ~500k-row CSV
    estimate-multinomial    3-class multinomial `rrdid estimate`, ~150k rows

Each run generates its inputs from --seed into a temporary directory under
.bench_tmp/ in this checkout and removes it afterwards. It then starts a few
probe processes and one workload process (bench/worker.py) with OpenBLAS
pinned to one thread. Every operation is one `rrdid.cli.run_cli` call with
--format json (and --threads 1 for simulate). The workload process runs an
untimed warm-up operation, then repeats passes over the inputs until
--seconds have passed.

Every output is checked: its `results` against this benchmark's reference
implementation (bench/workloads.py) within a stated tolerance, Monte Carlo
redraw and failure counts exactly, and each repeated operation on one input
byte for byte against the first. An operation that exits non-zero or fails
a check counts as failed.

Times are CPU seconds of the measured process, scaled by the machine's
speed sampled while it runs (calibration.py). The process is
single-threaded with BLAS pinned to one thread, so on an idle machine its
CPU time equals its wall time. On a shared host, wall time also counts
time the hypervisor gives to other guests, and CPU time still follows the
host's changing speed; the scaling takes most of that out. Unscaled CPU
and wall-clock medians are printed alongside.

--trace 0 prints the end-to-end metrics, measured with tracing off:
    setup_s       process start until `rrdid.cli` is imported; median over
                  the probes and the workload process
    rows_per_s    rows put through a fit per second of timed operations
                  (CSV data rows, or n x reps for simulate)
    op_p50_s      median seconds of one operation
    peak_rss_mb   high-water resident memory of the workload process
error_rate (failed / attempted, counting the warm-up) is printed too; it
is carried by the `attempted` and `failed` fields of the result line.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: the traced operations' calls, busy (inclusive) and self seconds
per operation, scaled like the end-to-end times, with a table of each
layer's share of the traced time. trace.overhead_frac compares the traced
and untraced median operation; trace.unattributed_frac is the traced time
that no span covers, and the run fails if it is negative or 5% or more.
The spans are written to .bench_out/trace-<workload>-seed<seed>.json.

The last line of standard output is the JSON result. The exit code is 0
when the benchmark ran, whether or not the outputs were correct, and
non-zero, without a result line, when it could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calibration import NOMINAL_S, scale  # noqa: E402
from tracing import LAYERS, ROOT as ROOT_SPAN  # noqa: E402
from workloads import TOLERANCE, WORKLOADS, compare, make_inputs  # noqa: E402

PROBES = 4
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, RRDID_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(args, deadline):
    """Run bench/worker.py with args; returns its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a process")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args, repr(start)],
            env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("a benchmark process ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"benchmark process failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def check_outputs(inputs, result, tolerance, worst):
    """Indexes of inputs whose output failed a check, with the reasons."""
    bad = {}
    for index, (inp, text) in enumerate(zip(inputs, result["outputs"])):
        try:
            payload = json.loads(text)
        except (TypeError, ValueError):
            bad[index] = ["output is not JSON"]
            continue
        problems = [f"error {e}" for e in payload.get("errors") or []]
        problems += compare(payload.get("results"), inp.expected, tolerance, worst=worst)
        if problems:
            bad[index] = problems
    return bad


def scaled_times(records):
    """Each record's CPU seconds at reference speed; an operation too short
    to catch a sample takes the median speed of the others."""
    speeds = [r[7] for r in records if r[7] is not None]
    typical = statistics.median(speeds)
    return [scale(r[1], typical if r[7] is None else r[7]) for r in records]


def end_to_end(inputs, result, setups):
    timed = [r for r in result["records"] if not r[4] and not r[5]]
    seconds = scaled_times(timed)
    metrics = {
        "setup_s": statistics.median(scale(cpu, speed) for cpu, _, speed in setups),
        "rows_per_s": sum(inputs[r[0]].rows for r in timed) / sum(seconds),
        "op_p50_s": statistics.median(seconds),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    note = (f"samples: {len(timed)} timed operations in {len(timed) // len(inputs)} passes, "
            f"{len(setups)} "
            f"set-ups; unscaled medians: op {statistics.median(r[1] for r in timed):.6g} s CPU, "
            f"{statistics.median(r[6] for r in timed):.6g} s wall; setup "
            f"{statistics.median(s[0] for s in setups):.6g} s CPU, "
            f"{statistics.median(s[1] for s in setups):.6g} s wall; speed sample "
            f"{statistics.median(r[7] for r in timed if r[7] is not None):.6g} s "
            f"(reference {NOMINAL_S} s)")
    return metrics, note


def per_layer(result):
    records = result["records"]
    traced = [r for r in records if r[4]]
    untraced = [r for r in records if not r[4] and not r[5]]
    ops = len(traced)
    # spans are unscaled: scale them as the traced operations were scaled overall
    factor = sum(scaled_times(traced)) / sum(r[1] for r in traced)
    busy, own, calls, counts = (result["trace"][k] for k in ("busy", "self", "calls", "counts"))

    def per_op(table, key, unit=1.0):
        return table.get(key, 0) * unit / ops

    total = sum(r[1] for r in traced)
    attributed = sum(own.values())
    reps = counts.get("simulate.reps", 0) + counts.get("simulate.redraws", 0)
    metrics = {
        "cli.load_csv_dataset.busy_s": per_op(busy, "cli.load_csv_dataset", factor),
        "cli.load_csv_dataset.calls": per_op(calls, "cli.load_csv_dataset"),
        "cli.canonical_json.busy_s": per_op(busy, "cli.canonical_json", factor),
        "cli.self_s": per_op(own, "cli.self", factor),
        "design.build_design.busy_s": per_op(busy, "design.build_design", factor),
        "design.build_design.calls": per_op(calls, "design.build_design"),
        "estimators.fit_qmle.busy_s": per_op(busy, "estimators.fit_qmle", factor),
        "estimators.fit_qmle.calls": per_op(calls, "estimators.fit_qmle"),
        "estimators.fit_qmle.newton_iterations":
            per_op(counts, "estimators.fit_qmle.newton_iterations"),
        "estimators.fit_qmle.errors": per_op(counts, "estimators.fit_qmle.errors"),
        "estimators.fit_ols.busy_s": per_op(busy, "estimators.fit_ols", factor),
        "estimators.fit_ols.calls": per_op(calls, "estimators.fit_ols"),
        "effects.busy_s": per_op(busy, "effects", factor),
        "effects.calls": per_op(calls, "effects"),
        "simulate.run_monte_carlo.busy_s": per_op(busy, "simulate.run_monte_carlo", factor),
        "simulate.self_s": per_op(own, "simulate.self", factor),
        "simulate.redraws": per_op(counts, "simulate.redraws"),
        "simulate.failed_reps": per_op(counts, "simulate.failed_reps"),
        # with no Monte Carlo work nothing was drawn in vain
        "simulate.useful_frac": counts.get("simulate.effective_reps", 0) / reps if reps else 1.0,
        "trace.overhead_frac":
            statistics.median(scaled_times(traced)) / statistics.median(scaled_times(untraced))
            - 1.0,
        "trace.unattributed_frac": (total - attributed) / total,
    }
    if not -1e-9 <= metrics["trace.unattributed_frac"] < 0.05:
        raise BenchError(f"spans and self times cover {attributed:.6f} s "
                         f"of {total:.6f} s traced time")

    table = [f"  {'layer':<24}{'calls/op':>10}{'busy s/op':>12}{'self s/op':>12}{'share':>8}"]
    for layer in LAYERS:
        span = {"cli.self": ROOT_SPAN, "simulate.self": "simulate.run_monte_carlo"}.get(layer, layer)
        table.append(f"  {layer:<24}{per_op(calls, span):>10.4g}"
                     f"{per_op(busy, span, factor):>12.6f}{per_op(own, layer, factor):>12.6f}"
                     f"{own.get(layer, 0.0) / total:>8.1%}")
    table.append(f"  {'(outside run_cli)':<24}{'':>22}{(total - attributed) * factor / ops:>12.6f}"
                 f"{(total - attributed) / total:>8.1%}")
    children = {k: v for k, v in busy.items() if k != ROOT_SPAN}
    table.append(f"  traced time {total * factor:.4f} s over {ops} operations; spans plus "
                 f"self times cover {attributed / total:.2%}; largest span below {ROOT_SPAN}: "
                 f"{max(children, key=children.get) if children else 'none'}")
    return metrics, table


def run_workload(config, workload, seed, seconds, trace, size, corrupt):
    deadline = time.monotonic() + TIME_LIMIT_S
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    lines = [f"== {workload} seed={seed} seconds={seconds:g} trace={int(trace)} size={size}"]
    try:
        inputs = make_inputs(workload, seed, tmpdir, size)
        if corrupt:
            _corrupt(inputs[0].expected)
            lines.append("reference of the first input deliberately corrupted")
        for info in {json.dumps(i.info, sort_keys=True) for i in inputs}:
            info = json.loads(info)
            lines.append(f"input rows={info['rows']} bytes={info['bytes']} "
                         f"sha256={info['sha256']}")

        setups = [json.loads(spawn(["--probe"], deadline)) for _ in range(PROBES)]
        spec_path = os.path.join(tmpdir, "spec.json")
        spec = {"ops": [i.argv for i in inputs], "seconds": seconds, "trace": trace,
                "result_path": os.path.join(tmpdir, "result.json")}
        if trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spec["spans_path"] = str(out_dir / f"trace-{workload}-seed{seed}.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        spawn([spec_path], deadline)
        with open(spec["result_path"], encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    setups.append(result["setup"])

    worst = [0.0]
    bad = check_outputs(inputs, result, TOLERANCE[workload], worst)
    for index, problems in sorted(bad.items()):
        lines.append(f"check failed for {inputs[index].name}: " + "; ".join(problems[:3]))
    failed = sum(1 for r in result["records"] if r[2] != 0 or not r[3] or r[0] in bad)
    attempted = len(result["records"])
    rtol, atol = TOLERANCE[workload]
    lines.append(f"check: results vs reference within rtol={rtol:g} atol={atol:g} "
                 f"(largest deviation {worst[0]:.3g} of tolerance); MC counts exact; "
                 "repeats byte-identical")
    lines.append("blas: OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS="
                 f"{BLAS_THREADS}; threads reported {result['blas_threads']}")

    if trace:
        metrics, table = per_layer(result)
        lines.extend(table)
        wanted = config["per_layer"]
    else:
        metrics, note = end_to_end(inputs, result, setups)
        lines.append(note)
        wanted = config["end_to_end"]
    out = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        lines.append(f"{entry['name']:<40} {value:>14.6g} {entry['unit']}")
    lines.append(f"{'error_rate':<40} {failed / attempted:>14.6g} fraction "
                 f"({failed} of {attempted} operations)")
    return lines, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": out}


def _corrupt(expected):
    """Shift the first float of a reference far outside its tolerance."""
    stack = [expected]
    while stack:
        node = stack.pop(0)
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, float) and math.isfinite(value):
                node[key] = value * 1.01 + 1e-3
                return
            if isinstance(value, (dict, list)):
                stack.append(value)
    raise ValueError("reference holds no float to corrupt")


def main(argv=None):
    parser = argparse.ArgumentParser(description="rrdid benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke only exercises the benchmark itself")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="check against a deliberately wrong reference value")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "rrdid" / "__init__.py").is_file():
        print(f"rrdid sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        config = json.load(handle)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            lines, results[workload] = run_workload(
                config, workload, args.seed, args.seconds, bool(args.trace), args.size,
                args.corrupt_reference)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
