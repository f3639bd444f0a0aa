#!/usr/bin/env python3
"""Write the output corpus: rrdid commands with their stdout and exit codes.

Each command in COMMANDS runs in-process through rrdid.cli.run_cli, once
with --format json and once with --format text. Their inputs are CSV files
written by a seeded generator (random.Random, whose stream does not depend
on the numpy release) into a scratch directory, which is the working
directory while the commands run: they name their files by relative path,
so no echoed path or error message holds the scratch directory.

OUTDIR receives <name>.json and <name>.txt, each command's stdout in the
two formats, and index.json, which maps each name to its argv and its two
exit codes. tests/corpus/ holds the corpus as the code wrote it, and
tests/test_corpus.py regenerates it and compares the two within a rounding
tolerance.

--exact OTHERDIR compares the corpus written (to OUTDIR, or to a scratch
directory when no OUTDIR is given) with OTHERDIR byte for byte, such as a
corpus written by another commit. It prints one line per file that differs
or exists on one side only: "counts differ" when a number written without
a point or an exponent changed (a failure or redraw count, an iteration
count, an exit code), and the largest relative movement of the other
numbers. It exits 1 if any file differs.

    python scripts/corpus.py OUTDIR
    python scripts/corpus.py [OUTDIR] --exact OTHERDIR
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import tempfile
from pathlib import Path

from rrdid.cli import run_cli

_PANEL = ["--outcome", "y", "--group", "g", "--period", "t", "--post", "2003"]

COMMANDS = {
    # simulate: clean cells, a censored cell with both options, one with
    # failed and redrawn replications, and two with known trouble
    "simulate_count": ["simulate", "--family", "count", "--n", "100", "--reps", "20",
                       "--seed", "2", "--beta-d", "0.5"],
    "simulate_censored": ["simulate", "--family", "censored", "--n", "100", "--reps", "20",
                          "--seed", "4", "--transform-counterfactual-mean",
                          "--censored-extra-term"],
    "simulate_failures_redraws": ["simulate", "--family", "positive", "--n", "30",
                                  "--reps", "40", "--seed", "3", "--beta-d", "-0.5"],
    "simulate_binary_rep6": ["simulate", "--family", "binary", "--n", "250", "--reps", "10",
                             "--seed", "5", "--beta-qtau", "0.5", "--beta-d", "0.5"],
    "simulate_count_rep153": ["simulate", "--family", "count", "--n", "250", "--reps", "160",
                              "--seed", "1"],
    # estimate: every family, on cells and with covariates, clustered and not
    "estimate_linear": ["estimate", "--family", "linear", "--csv", "panel.csv", *_PANEL,
                        "--weights", "w"],
    "estimate_linear_classical": ["estimate", "--family", "linear", "--csv", "panel.csv",
                                  *_PANEL, "--classical", "--no-period-dummies"],
    "estimate_linear_clustered": ["estimate", "--family", "linear", "--csv", "panel.csv",
                                  *_PANEL, "--covariates", "x", "--cluster", "c"],
    "estimate_poisson_covariates": ["estimate", "--family", "poisson", "--csv", "panel.csv",
                                    *_PANEL, "--weights", "w", "--cluster", "c",
                                    "--covariates", "x,z", "--heterogeneous", "x", "--trend"],
    "estimate_poisson_cells": ["estimate", "--family", "poisson", "--csv", "panel.csv",
                               *_PANEL, "--cluster", "c", "--trend", "--base-period", "2001"],
    "estimate_logit_cells": ["estimate", "--family", "logit", "--csv", "panel.csv",
                             "--outcome", "b", *_PANEL[2:], "--weights", "w"],
    "estimate_logit_covariate": ["estimate", "--family", "logit", "--csv", "panel.csv",
                                 "--outcome", "b", *_PANEL[2:], "--covariates", "x",
                                 "--cluster", "c"],
    "estimate_multinomial_cells": ["estimate", "--family", "multinomial", "--csv", "panel.csv",
                                   "--outcome", "m", *_PANEL[2:], "--cluster", "c"],
    "estimate_multinomial_covariate": ["estimate", "--family", "multinomial", "--csv",
                                       "panel.csv", "--outcome", "m", *_PANEL[2:],
                                       "--covariates", "x", "--trend"],
    # the same small file with a quoted number and label column, written as
    # R's write.csv writes it, with CRLF line ends, and with a byte-order mark
    "estimate_quoted": ["estimate", "--family", "poisson", "--csv", "quoted.csv", *_PANEL,
                        "--covariates", "x", "--cluster", "c"],
    "estimate_quoted_r": ["estimate", "--family", "poisson", "--csv", "quoted_r.csv", *_PANEL,
                          "--covariates", "x", "--cluster", "c"],
    "estimate_crlf": ["estimate", "--family", "poisson", "--csv", "crlf.csv", *_PANEL,
                      "--covariates", "x", "--cluster", "c"],
    "estimate_bom": ["estimate", "--family", "poisson", "--csv", "bom.csv", *_PANEL,
                     "--covariates", "x", "--cluster", "c"],
    "effect_proportional": ["effect", "--beta", "0.4", "--se", "0.1"],
    "effect_odds_rare": ["effect", "--beta", "-0.3", "--se", "0.2", "--kind",
                         "proportional_odds", "--rare-event-note"],
    "effect_class_c": ["effect", "--beta", "1.2", "--se", "0.5", "--kind",
                       "class_c_proportional_odds"],
    "summarize": ["summarize", "--csv", "panel.csv", *_PANEL, "--weights", "w"],
    # one payload per error kind, and a usage error
    "error_value": ["effect", "--beta", "800", "--se", "1"],
    "error_csv_parse": ["summarize", "--csv", "missing_value.csv", *_PANEL],
    "error_not_utf8": ["summarize", "--csv", "not_utf8.csv", "--outcome", "y", "--group", "g",
                       "--period", "t", "--post", "2002"],
    "error_column_binding": ["estimate", "--family", "poisson", "--csv", "panel.csv", *_PANEL,
                             "--cluster", "y"],
    "error_singular_design": ["estimate", "--family", "poisson", "--csv", "panel.csv", *_PANEL,
                              "--covariates", "g"],
    "error_non_finite": ["estimate", "--family", "linear", "--csv", "huge.csv", *_PANEL],
    "error_overflow_guard": ["estimate", "--family", "poisson", "--csv", "panel.csv",
                             "--outcome", "zero", *_PANEL[2:]],
    "error_separation": ["estimate", "--family", "logit", "--csv", "panel.csv",
                         "--outcome", "sep", *_PANEL[2:]],
    "error_monte_carlo_abort": ["simulate", "--family", "binary", "--n", "20", "--reps", "20",
                                "--seed", "1"],
    "error_missing_file": ["summarize", "--csv", "absent.csv", *_PANEL],
    "error_usage": ["simulate", "--family", "count", "--n", "20", "--reps", "2", "--seed", "0",
                    "--threads", "2"],
}


def _panel_rows(rng, n):
    """n rows of a six-period panel: positive y, binary b, three-class m,
    covariates x and z, weights w, string cluster labels c, some padded with
    spaces, an all-zero outcome and an outcome that the treated cells
    predict perfectly."""
    def label():
        # padded labels name the same cluster as bare ones
        return " " * rng.randrange(2) + f"psu-{rng.randrange(40):02d}" + " " * rng.randrange(2)

    rows = []
    for i in range(n):
        g, t = i % 2, 2000 + rng.randrange(6)
        x, z = rng.random(), rng.random()
        treat = g * (t >= 2003)
        index = -0.5 + 0.3 * g + 0.1 * (t - 2000) + 0.4 * treat + 0.6 * x - 0.3 * z
        y = math.exp(index) * -math.log(1.0 - rng.random())
        b = int(rng.random() < 1.0 / (1.0 + math.exp(-index)))
        u = rng.random()
        m = 0 if u < 0.45 - 0.1 * treat else (1 if u < 0.75 else 2)
        rows.append([f"{y:.4f}", b, m, g, t, f"{x:.4f}", f"{z:.4f}",
                     f"{0.5 + 1.5 * rng.random():.3f}", label(),
                     0, treat])
    return rows


def write_inputs(directory):
    """Write every input file of COMMANDS into directory."""
    rng = random.Random(20211026)
    header = "y,b,m,g,t,x,z,w,c,zero,sep"

    def lines(rows):
        return [header] + [",".join(str(v) for v in row) for row in rows]

    def write(name, text):
        (directory / name).write_bytes(text if isinstance(text, bytes) else text.encode())

    write("panel.csv", "\n".join(lines(_panel_rows(rng, 2000))) + "\n")
    small = _panel_rows(rng, 300)
    write("crlf.csv", "\r\n".join(lines(small)) + "\r\n")
    write("bom.csv", "\ufeff" + "\n".join(lines(small)) + "\n")
    quoted = [[f'"{v}"' if j in (0, 8) else v for j, v in enumerate(row)] for row in small]
    write("quoted.csv", "\n".join(lines(quoted)) + "\n")
    # write.csv quotes the header, the row names it writes first and every string field
    r_lines = [",".join(f'"{name}"' for name in ["", *header.split(",")])]
    r_lines += [",".join([f'"{i}"', *(f'"{v}"' if j == 8 else str(v) for j, v in enumerate(row))])
                for i, row in enumerate(small, start=1)]
    write("quoted_r.csv", "\n".join(r_lines) + "\n")
    broken = lines(small[:20])
    # file row 3 loses its outcome
    broken[2] = "," + broken[2].split(",", 1)[1]
    write("missing_value.csv", "\n".join(broken) + "\n")
    write("not_utf8.csv", b"y,g,t\n1,0,2001\n2\xff,1,2001\n1.5,0,2002\n")
    huge = [[f"{rng.random() * 10.0 ** rng.randrange(190, 201):.6g}", *row[1:]]
            for row in _panel_rows(rng, 40)]
    write("huge.csv", "\n".join(lines(huge)) + "\n")


def run(argv):
    """(exit code, stdout) of one run_cli call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return code, out.getvalue()


def write_corpus(outdir, workdir=None):
    """Run every command in both formats inside workdir (a fresh temporary
    directory when None) and write the corpus into outdir."""
    outdir = Path(outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as stack:
        if workdir is None:
            workdir = stack.enter_context(tempfile.TemporaryDirectory())
        workdir = Path(workdir)
        write_inputs(workdir)
        index = {}
        previous = os.getcwd()
        os.chdir(workdir)
        try:
            for name, argv in COMMANDS.items():
                entry = {"argv": argv}
                for fmt, suffix in (("json", "json"), ("text", "txt")):
                    code, stdout = run([*argv, "--format", fmt])
                    entry[f"{fmt}_exit"] = code
                    (outdir / f"{name}.{suffix}").write_text(stdout, encoding="utf-8")
                index[name] = entry
        finally:
            os.chdir(previous)
    (outdir / "index.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")


# a number as the JSON and text outputs write one; a count has no point or exponent
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_COUNT = re.compile(r"[-+]?\d+")


def _movement(got, want):
    """(whether a count differs, the largest relative difference between the
    other numbers) of two texts' numbers, in order, or None when the texts
    differ in more than their numbers."""
    if _NUMBER.split(got) != _NUMBER.split(want):
        return None
    counts, moved = False, 0.0
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if _COUNT.fullmatch(a) and _COUNT.fullmatch(b):
            counts |= int(a) != int(b)
        elif float(a) != float(b):
            a, b = float(a), float(b)
            moved = max(moved, abs(a - b) / max(abs(a), abs(b)))
    return counts, moved


def compare_exact(directory, other):
    """One line per file of either corpus directory that is not byte for
    byte the same in the other: its name, with the largest relative movement
    of its numbers or the way it differs."""
    directory, other = Path(directory), Path(other)
    names = sorted({p.name for p in directory.iterdir()} | {p.name for p in other.iterdir()})
    lines = []
    for name in names:
        if not (directory / name).exists() or not (other / name).exists():
            side = directory if (directory / name).exists() else other
            lines.append(f"{name}: only in {side}")
            continue
        got, want = ((d / name).read_bytes() for d in (directory, other))
        if got != want:
            movement = _movement(got.decode("utf-8"), want.decode("utf-8"))
            if movement is None:
                lines.append(f"{name}: differs beyond its numbers")
                continue
            counts, moved = movement
            parts = ["counts differ"] if counts else []
            if moved or not counts:
                parts.append(f"largest relative movement {moved:.3g}")
            lines.append(f"{name}: " + ", ".join(parts))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write the output corpus, and compare it "
                                                 "byte for byte with another.")
    parser.add_argument("outdir", nargs="?", help="where to write the corpus")
    parser.add_argument("--exact", metavar="OTHERDIR", help="corpus to compare with")
    args = parser.parse_args(argv)
    if args.outdir is None and args.exact is None:
        parser.error("give OUTDIR, --exact OTHERDIR, or both")
    with tempfile.TemporaryDirectory() as scratch:
        write_corpus(args.outdir or scratch)
        if args.exact is None:
            return 0
        lines = compare_exact(args.outdir or scratch, args.exact)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
