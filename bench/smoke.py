"""Smoke check of the benchmark itself, on small inputs (about a minute).

    python3 bench/smoke.py

Checks that:
  * every workload, with tracing off and on, ends with a result line holding
    exactly correct/attempted/failed/metrics, that its metrics are exactly
    the ones BENCHMARK.json names with their units, that each is also
    printed by name with its unit, and that the outputs pass the check;
  * a deliberately wrong reference value makes operations count as failed
    and the result incorrect, rather than passing;
  * in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without a result line.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(root, *args):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--seed", "3", "--seconds", "1",
         "--size", "smoke", *args],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def check(condition, message):
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        config = json.load(handle)

    for workload in (w["name"] for w in config["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, out, err = bench(ROOT, "--workload", workload, "--trace", str(trace))
            check(code == 0, f"{workload} trace {trace} exited {code}:\n{err}")
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: outputs failed the check:\n{out}")
            wanted = {m["name"]: m["unit"] for m in config[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted, f"{workload} trace {trace}: metrics {got} != {wanted}")
            printed = {(line.split()[0], line.split()[-1]) for line in lines[:-1] if line.split()}
            for name, unit in wanted.items():
                check((name, unit) in printed, f"{workload}: {name} not printed with {unit}")
            check(any(line.startswith("error_rate") and " fraction " in line
                      for line in lines), f"{workload}: error_rate not printed")
            print(f"ok: {workload} trace {trace}: {len(wanted)} metrics with units, "
                  f"{result['attempted']} operations, 0 failed")

    for workload in (w["name"] for w in config["workloads"]):
        code, out, err = bench(ROOT, "--workload", workload, "--corrupt-reference")
        result = json.loads(out.strip().splitlines()[-1])
        check(code == 0 and not result["correct"] and result["failed"] >= 1,
              f"{workload}: a wrong reference value was not counted as a failure:\n{out}")
        print(f"ok: {workload}: wrong reference counted as {result['failed']} failed "
              f"of {result['attempted']} operations")

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        code, out, err = bench(bare, "--workload", config["workloads"][0]["name"])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not any(line.startswith("{") for line in out.splitlines()),
          f"without the program the benchmark exited {code} with output:\n{out}")
    print(f"ok: without the program the benchmark exits {code} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
