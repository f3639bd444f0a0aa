"""Command line interface.

Four subcommands: simulate (Monte Carlo bias tables), estimate (fit a DD
model to a CSV), effect (restate a coefficient as a proportional effect),
and summarize (weighted cell means of a CSV). Output is a text table by
default or canonical JSON with --format json; JSON output is byte-stable,
so the same configuration and seed produce identical files regardless of
thread count, and parsing then re-rendering reproduces the bytes.

CSV inputs are comma-separated UTF-8 with a header row, decimal points,
and no missing values in bound columns. Period values may be arbitrary
integers (e.g. years); they are mapped onto 0..T-1 in sorted order, and
--post / --base-period are given in the original units. Plain files are
read with np.loadtxt's C parser; files with quotes, CR line endings, NUL
bytes, blank lines or ragged rows, and fields only Python's float() accepts
(1_000, non-ASCII digits), go to the slower row-by-row reader, which also
reports every error with its row number. Either way the accepted input and
the result are the same. A --cluster column holds labels and may not also
be bound as a number (outcome, group, period, weights or covariate).

Exit codes: 0 success, 2 usage error, 1 data or convergence error (in JSON
mode the error object is written to stdout).

The only environment variable consulted is RRDID_THREADS, an optional
default for --threads.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .design import DesignSpec, RcsDataset, build_design, cell_masks, cell_mean, summarize_cells
from .effects import effect_report, lin_dd_proportional, proportional_effect
from .errors import (
    ColumnBindingError,
    CsvParseError,
    MonteCarloAbort,
    NegativeVarianceError,
    NonFiniteObjectiveError,
    OverflowGuardError,
    RedrawRequired,
    SeparationError,
    SingularHessianError,
)
from .estimators import fit_logit_qmle, fit_multinomial_logit, fit_ols, fit_poisson_qmle
from .simulate import Scenario, run_monte_carlo

__all__ = ["run_cli", "main", "canonical_json", "load_csv_dataset"]

_DATA_ERRORS = (
    MonteCarloAbort,
    NegativeVarianceError,
    NonFiniteObjectiveError,
    OverflowGuardError,
    RedrawRequired,
    SeparationError,
    SingularHessianError,
    ValueError,
    OSError,
)


# ---------------------------------------------------------------------------
# canonical JSON

def _format_float(x: float) -> str:
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


def _write_json(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append("null" if not math.isfinite(x) else _format_float(x))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _write_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats, no
    whitespace. Re-rendering a parsed document reproduces the bytes."""
    out = []
    _write_json(obj, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# CSV loading

def _parse_number(text, column, row_number):
    text = text.strip()
    if text == "":
        raise CsvParseError(f"row {row_number}: missing value in bound column {column!r}")
    try:
        return float(text)
    except ValueError:
        raise CsvParseError(
            f"row {row_number}: non-numeric value {text!r} in column {column!r}"
        ) from None


def load_csv_dataset(path, outcome, group, period, weights=None, cluster=None,
                     covariates=()):
    """Read a header CSV into an RcsDataset.

    Returns (dataset, period_labels): the distinct period values sorted
    ascending, with dataset.t holding their 0-based ranks.
    """
    numeric = {outcome, group, period, *covariates}
    if weights:
        numeric.add(weights)
    if cluster in numeric:
        raise ColumnBindingError(f"cluster column {cluster!r} is also bound as a numeric "
                                 "column; a column holds cluster ids or numbers, not both")
    bound = numeric | {cluster} if cluster else numeric
    columns = _read_columns(path, bound, cluster)
    if columns is None:
        columns = _read_rows(path, bound, cluster)
    rows, cluster_values = columns

    if not len(rows[outcome]):
        raise CsvParseError("row 2: no data rows after the header")

    raw_periods = np.asarray(rows[period])
    if not np.all(raw_periods == np.floor(raw_periods)):
        raise ValueError(f"period column {period!r} must contain integers")
    labels, t = np.unique(raw_periods.astype(np.int64), return_inverse=True)

    dataset = RcsDataset(
        y=np.asarray(rows[outcome]),
        q=np.asarray(rows[group]),
        t=t,
        covariates={name: np.asarray(rows[name]) for name in covariates},
        weights=np.asarray(rows[weights]) if weights else None,
        clusters=np.asarray(cluster_values) if cluster else None,
        n_periods=len(labels),
    )
    return dataset, [int(v) for v in labels]


# csv.reader gives quotes and lone-CR line ends a meaning np.loadtxt does not
# share, and rejects NUL
_ROW_PARSER_BYTES = (b'"', b"\r", b"\0")
# np.loadtxt opens a str path through np.lib._datasource, which would read a
# file with one of these suffixes as compressed
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _read_columns(path, bound, cluster):
    """The columns _read_rows returns, read with np.loadtxt's C parser.

    Returns None for every file on which that might differ from _read_rows:
    anything but a plain path, bytes csv.reader treats specially, invalid
    UTF-8, no data line, a blank line or a field count that differs from
    the header's, a line past csv.field_size_limit(), and every field that
    np.loadtxt rejects (it accepts no number float() rejects, and parses
    the same value: both call PyOS_string_to_double after stripping the
    same whitespace). _read_rows then reads the file and reports any error.
    """
    if not isinstance(path, (str, os.PathLike)):
        return None
    # an absolute path is never taken for a URL
    path = os.path.abspath(path)
    if not isinstance(path, str) or path.endswith(_COMPRESSED_SUFFIXES):
        return None
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        data.decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    if any(special in data for special in _ROW_PARSER_BYTES):
        return None

    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if data and not data.endswith(b"\n"):
        ends = np.append(ends, len(data))
    # csv.reader reads an empty first line as a header without columns
    if ends.size < 2 or ends[0] == 0:
        return None
    header = [h.strip() for h in data[:ends[0]].decode("utf-8").split(",")]
    if any(name not in header for name in bound):
        return None
    n_rows, n_commas = ends.size - 1, len(header) - 1
    if max(ends[0], np.max(np.diff(ends)) - 1) >= csv.field_size_limit():
        return None
    commas = np.flatnonzero(buf == ord(","))
    if np.any(np.diff(np.searchsorted(commas, ends)) != n_commas):
        return None

    names = sorted(bound - {cluster})
    options = dict(delimiter=",", comments=None, skiprows=1, ndmin=2, encoding="utf-8")
    labels = None
    try:
        values = np.loadtxt(path, usecols=[header.index(name) for name in names], **options)
        if cluster:
            # field j of a data line lies between its j-th and (j+1)-th separator,
            # counting the line ends; its length in bytes bounds its length in
            # characters, so a string column that wide truncates nothing
            seps = np.column_stack([ends[:-1], commas[n_commas:].reshape(n_rows, n_commas),
                                    ends[1:]])
            j = header.index(cluster)
            width = max(int(np.max(seps[:, j + 1] - seps[:, j])) - 1, 1)
            labels = np.loadtxt(path, dtype=f"<U{width}", usecols=[j], **options)[:, 0]
    except (OSError, ValueError):
        return None
    # np.loadtxt skips blank lines, which pass the comma count in a one-column file
    if len(values) != n_rows:
        return None
    if cluster:
        labels = np.char.strip(labels)
        widths = np.char.str_len(labels)
        if widths.min() == 0:
            return None
        # np.asarray of the row parser's str list is as wide as its longest label
        labels = labels.astype(f"<U{widths.max()}")
    return {name: values[:, j] for j, name in enumerate(names)}, labels


def _read_rows(path, bound, cluster):
    """Every bound column as a list, parsed row by row; cluster ids apart.

    Errors carry the 1-based row number of the offending line.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError("row 1: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        missing = sorted(b for b in bound if b not in header)
        if missing:
            raise ValueError(f"unknown column binding(s): {', '.join(missing)}")
        idx = {name: header.index(name) for name in bound}
        # fields are read in header order, so a row's first bad field is named
        order = sorted(bound, key=idx.get)

        rows = {name: [] for name in bound}
        cluster_values = []
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(
                    f"row {row_number}: expected {len(header)} fields, got {len(row)}"
                )
            for name in order:
                if name != cluster:
                    rows[name].append(_parse_number(row[idx[name]], name, row_number))
                    continue
                value = row[idx[cluster]].strip()
                if value == "":
                    raise CsvParseError(
                        f"row {row_number}: missing value in bound column {cluster!r}"
                    )
                cluster_values.append(value)
    return rows, cluster_values


def _period_index(labels, value, what):
    if value in labels:
        return labels.index(value)
    raise ValueError(f"{what} {value} is not a period value; periods are {labels}")


# ---------------------------------------------------------------------------
# argument parsing

def _comma_list(text):
    return tuple(s for s in (part.strip() for part in text.split(",")) if s)


def _comma_floats(text):
    return tuple(float(part) for part in text.split(","))


def _default_threads() -> int:
    raw = os.environ.get("RRDID_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError("RRDID_THREADS must be a positive integer")
    return value


def _add_output_options(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", default=None, help="write to this path instead of stdout")
    sub.add_argument("--config", default=None,
                     help="flat key = value file mirroring the flags; flags override")


def _add_csv_options(sub, with_cluster=True):
    sub.add_argument("--csv", required=True, help="input CSV path")
    sub.add_argument("--outcome", required=True, help="outcome column")
    sub.add_argument("--group", required=True, help="0/1 group column")
    sub.add_argument("--period", required=True, help="integer period column")
    sub.add_argument("--post", required=True, type=int,
                     help="treated period, in the period column's units: the "
                          "treatment column marks t == post only, while cell "
                          "summaries and the log transform pool t >= post")
    sub.add_argument("--weights", default=None, help="weight column")
    if with_cluster:
        sub.add_argument("--cluster", default=None, help="cluster id column")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrdid",
        description="Difference-in-differences for limited dependent variables "
                    "via ratio-in-ratios and ratio-in-odds-ratios.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="Monte Carlo bias/SD/RMSE table for one scenario")
    sim.add_argument("--family", required=True,
                     choices=("positive", "count", "censored", "binary"))
    sim.add_argument("--n", required=True, type=int, help="subjects per replication")
    sim.add_argument("--reps", required=True, type=int, help="number of replications")
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--beta-qtau", type=float, default=0.0)
    sim.add_argument("--beta-d", type=float, default=0.0)
    sim.add_argument("--beta-q", type=float, default=0.5)
    sim.add_argument("--betas-t", type=_comma_floats, default=(-2.0, -2.0, -1.0, -1.0),
                     metavar="B0,B1,B2,B3")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker threads (default RRDID_THREADS or 1)")
    sim.add_argument("--transform-counterfactual-mean",
                     action=argparse.BooleanOptionalAction, default=False,
                     help="scale the log transform by the implied untreated mean")
    sim.add_argument("--count-shared-rate-intercept",
                     action=argparse.BooleanOptionalAction, default=False,
                     help="count family: one shared rate intercept instead of period effects")
    sim.add_argument("--censored-extra-term",
                     action=argparse.BooleanOptionalAction, default=False,
                     help="censored family: include one deterministic summand")
    _add_output_options(sim)

    est = commands.add_parser("estimate", help="fit a DD model to CSV data")
    est.add_argument("--family", required=True,
                     choices=("linear", "poisson", "logit", "multinomial"))
    _add_csv_options(est)
    est.add_argument("--trend", action=argparse.BooleanOptionalAction, default=False,
                     help="include the group trend t*Q column")
    est.add_argument("--period-dummies", action=argparse.BooleanOptionalAction,
                     default=True)
    est.add_argument("--base-period", type=int, default=None,
                     help="omitted period dummy, in period units (default: first)")
    est.add_argument("--covariates", type=_comma_list, default=(),
                     metavar="A,B", help="covariate columns")
    est.add_argument("--heterogeneous", type=_comma_list, default=(),
                     metavar="A,B", help="covariates interacted with treatment")
    est.add_argument("--classical", action=argparse.BooleanOptionalAction, default=False,
                     help="linear family only: classical instead of robust variance")
    _add_output_options(est)

    eff = commands.add_parser("effect", help="restate a coefficient as exp(beta)-1")
    eff.add_argument("--beta", required=True, type=float)
    eff.add_argument("--se", required=True, type=float)
    eff.add_argument("--kind", default="proportional",
                     choices=("proportional", "proportional_odds",
                              "class_c_proportional_odds"))
    eff.add_argument("--rare-event-note", action=argparse.BooleanOptionalAction,
                     default=False)
    _add_output_options(eff)

    summ = commands.add_parser("summarize", help="weighted cell means of CSV data")
    _add_csv_options(summ, with_cluster=False)
    _add_output_options(summ)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # building the tree costs more than a parse; every parse starts from the
    # declared defaults, so one tree serves every run_cli call
    return build_parser()


def _read_config_args(path):
    """Translate a flat 'key = value' file into a flag list.

    Keys use the long option names (dashes or underscores). Values true and
    false become --key / --no-key; anything else becomes --key value.
    """
    args = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            if value.lower() == "true":
                args.append(f"--{key}")
            elif value.lower() == "false":
                args.append(f"--no-{key}")
            else:
                args.extend([f"--{key}", value])
    return args


# ---------------------------------------------------------------------------
# command bodies: each returns (config_echo, results, warnings)

def _run_simulate(args):
    scenario = Scenario(
        family=args.family,
        n=args.n,
        repetitions=args.reps,
        seed=args.seed,
        beta_qtau=args.beta_qtau,
        beta_d=args.beta_d,
        betas_t=args.betas_t,
        beta_q=args.beta_q,
        count_shared_rate_intercept=args.count_shared_rate_intercept,
        censored_extra_term=args.censored_extra_term,
    )
    echo = {
        "family": scenario.family,
        "n": scenario.n,
        "repetitions": scenario.repetitions,
        "seed": scenario.seed,
        "beta_qtau": scenario.beta_qtau,
        "beta_d": scenario.beta_d,
        "beta_q": scenario.beta_q,
        "betas_t": list(scenario.betas_t),
        "count_shared_rate_intercept": scenario.count_shared_rate_intercept,
        "censored_extra_term": scenario.censored_extra_term,
        "transform_counterfactual_mean": args.transform_counterfactual_mean,
    }
    threads = args.threads if args.threads is not None else _default_threads()
    if threads < 1:
        raise ValueError("--threads must be at least 1")
    summary = run_monte_carlo(
        scenario,
        threads=threads,
        counterfactual_transform_mean=args.transform_counterfactual_mean,
    )
    results = {
        "rows": {
            key: {"abs_bias": row.abs_bias, "sd": row.sd, "rmse": row.rmse}
            for key, row in summary.rows.items()
        },
        "redraw_count": summary.redraw_count,
        "failures_by_kind": summary.failures_by_kind,
        "effective_repetitions": summary.effective_repetitions,
        "failed_repetitions": summary.failed_repetitions,
    }
    return echo, results, []


_FAMILY_FITTERS = {
    "linear": fit_ols,
    "poisson": fit_poisson_qmle,
    "logit": fit_logit_qmle,
    "multinomial": fit_multinomial_logit,
}


def _run_estimate(args):
    if args.classical and args.family != "linear":
        raise ValueError("--classical applies only to the linear family")
    dataset, labels = load_csv_dataset(
        args.csv, args.outcome, args.group, args.period,
        weights=args.weights, cluster=args.cluster, covariates=args.covariates,
    )
    post = _period_index(labels, args.post, "--post")
    base = 0 if args.base_period is None else _period_index(labels, args.base_period,
                                                            "--base-period")
    spec = DesignSpec(
        post_period=post,
        include_period_dummies=args.period_dummies,
        include_group_trend=args.trend,
        heterogeneous_covariates=args.heterogeneous,
        base_period=base,
    )
    echo = {
        "family": args.family,
        "csv": args.csv,
        "outcome": args.outcome,
        "group": args.group,
        "period": args.period,
        "weights": args.weights,
        "cluster": args.cluster,
        "covariates": list(args.covariates),
        "heterogeneous": list(args.heterogeneous),
        "post": args.post,
        "base_period": labels[base],
        "trend": args.trend,
        "period_dummies": args.period_dummies,
        "period_labels": labels,
        "classical": args.classical,
    }

    matrix = build_design(dataset, spec)
    if args.family == "linear":
        fit = fit_ols(matrix, dataset.y, dataset.weights, clusters=dataset.clusters,
                      robust=not args.classical)
    else:
        fit = _FAMILY_FITTERS[args.family](
            matrix, dataset.y, dataset.weights, clusters=dataset.clusters
        )
    if not fit.converged:
        raise ValueError(
            f"{fit.family} did not converge after {fit.iterations} iterations "
            f"(score norm {fit.score_norm:.3g})"
        )

    warnings = []
    coef_table = [
        {
            "name": name,
            "estimate": fit.coefficients[i],
            "se": fit.se(name),
            "t_value": fit.t_value(name),
        }
        for i, name in enumerate(fit.names)
    ]
    results = {
        "fit": {
            "family": fit.family,
            "converged": fit.converged,
            "iterations": fit.iterations,
            "score_norm": fit.score_norm,
            "loglik": fit.loglik,
            "n_obs": fit.n_obs,
            "vcov_kind": fit.vcov_kind,
            "coefficients": coef_table,
            "vcov": fit.vcov.tolist(),
        }
    }

    # multinomial names carry the class, e.g. "treat[2]"; the stem is the design column
    def stem(name):
        return name.partition("[")[0]

    if args.family == "linear":
        results["effects"] = []
        # the fit succeeded, so the treated post cell is not empty
        ybar = cell_mean(dataset, cell_masks(dataset, post)[(1, 1)])
        transform = None
        try:
            transform = lin_dd_proportional(fit.coef("treat"), ybar)
        except (RedrawRequired, ValueError) as exc:
            warnings.append(f"log transform unavailable: {exc}")
        results["lin_dd_transform"] = transform
    else:
        results["effects"] = [
            _effect_payload(proportional_effect(fit, name), name)
            for name in fit.names if stem(name) == "treat"
        ]
    results["trend_test"] = [
        row for row in coef_table if stem(row["name"]) == "group_trend"
    ] or None
    return echo, results, warnings


def _effect_payload(report, target):
    return {
        "target": target,
        "kind": report.kind,
        "beta": report.beta,
        "se_beta": report.se_beta,
        "effect": report.effect,
        "se_effect": report.se_effect,
        "t_value": report.t_value,
        "rare_event_note": report.rare_event_note,
    }


def _run_effect(args):
    echo = {"beta": args.beta, "se": args.se, "kind": args.kind,
            "rare_event_note": args.rare_event_note}
    report = effect_report(args.beta, args.se, kind=args.kind,
                           rare_event_note=args.rare_event_note)
    return echo, _effect_payload(report, None), []


def _run_summarize(args):
    dataset, labels = load_csv_dataset(
        args.csv, args.outcome, args.group, args.period, weights=args.weights,
    )
    post = _period_index(labels, args.post, "--post")
    echo = {
        "csv": args.csv,
        "outcome": args.outcome,
        "group": args.group,
        "period": args.period,
        "weights": args.weights,
        "post": args.post,
        "period_labels": labels,
    }
    cells = summarize_cells(dataset, post)
    results = {
        "cells": [
            {
                "group": cell.group,
                "post": cell.post,
                "count": cell.count,
                "mean": cell.mean,
                "sd": cell.sd,
            }
            for cell in cells
        ]
    }
    return echo, results, []


_RUNNERS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "effect": _run_effect,
    "summarize": _run_summarize,
}

_ROW_LABELS = {
    "qmle_beta_qtau": "qmle beta_qtau",
    "qmle_beta_d": "qmle beta_d",
    "lindd_beta_qtau": "lin-dd beta_qtau",
    "lindd_beta_d": "lin-dd beta_d",
    "lindd_transform": "lin-dd transform",
}


# ---------------------------------------------------------------------------
# text rendering (from the same payload the JSON mode emits)

def _num(x, places):
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return "."
    return f"{x:.{places}f}"


def _render_simulate(payload):
    echo = payload["config_echo"]
    results = payload["results"]
    lines = [
        "simulate family={family} n={n} reps={repetitions} seed={seed} "
        "beta_qtau={beta_qtau:g} beta_d={beta_d:g}".format(**echo),
        f"{'row':<20}{'|Bias|':>8}{'SD':>8}{'RMSE':>8}",
    ]
    for key in ("qmle_beta_qtau", "qmle_beta_d", "lindd_beta_qtau",
                "lindd_beta_d", "lindd_transform"):
        if key not in results["rows"]:
            continue
        row = results["rows"][key]
        lines.append(
            f"{_ROW_LABELS[key]:<20}{_num(row['abs_bias'], 2):>8}"
            f"{_num(row['sd'], 2):>8}{_num(row['rmse'], 2):>8}"
        )
    kinds = ", ".join(f"{kind} {count}"
                      for kind, count in results["failures_by_kind"].items() if count)
    lines.append(
        "effective repetitions {effective_repetitions}, failures {failed_repetitions}"
        "{kinds}, redraws {redraw_count}".format(kinds=f" ({kinds})" if kinds else "",
                                                 **results)
    )
    return "\n".join(lines)


def _render_fit(results):
    fit = results["fit"]
    lines = [
        "{family}: n={n_obs}, converged={converged} after {iterations} iterations "
        "(score norm {score_norm:.3g}), vcov={vcov_kind}".format(
            family=fit["family"], n_obs=fit["n_obs"], converged=fit["converged"],
            iterations=fit["iterations"], score_norm=fit["score_norm"],
            vcov_kind=fit["vcov_kind"],
        ),
        f"{'coefficient':<22}{'estimate':>12}{'se':>12}{'t':>10}",
    ]
    for row in fit["coefficients"]:
        lines.append(
            f"{row['name']:<22}{_num(row['estimate'], 3):>12}"
            f"{_num(row['se'], 3):>12}{_num(row['t_value'], 2):>10}"
        )
    return lines


def _render_estimate(payload):
    results = payload["results"]
    lines = _render_fit(results)
    for effect in results.get("effects", []):
        lines.append(
            f"{effect['kind']} effect of {effect['target']}: "
            f"{_num(effect['effect'], 3)} (se {_num(effect['se_effect'], 3)}), "
            f"beta {_num(effect['beta'], 3)} (se {_num(effect['se_beta'], 3)}), "
            f"t {_num(effect['t_value'], 2)}"
        )
    if results.get("lin_dd_transform") is not None:
        lines.append(f"log transform of DD estimate: {_num(results['lin_dd_transform'], 3)}")
    if results.get("trend_test"):
        for test in results["trend_test"]:
            lines.append(
                f"group trend test ({test['name']}): estimate "
                f"{_num(test['estimate'], 3)} (se {_num(test['se'], 3)}), "
                f"t {_num(test['t_value'], 2)}"
            )
    for warning in payload.get("warnings", []):
        lines.append(f"note: {warning}")
    return "\n".join(lines)


def _render_effect(payload):
    e = payload["results"]
    return (
        f"{e['kind']} effect: {_num(e['effect'], 3)} (se {_num(e['se_effect'], 3)}); "
        f"beta {_num(e['beta'], 3)} (se {_num(e['se_beta'], 3)}); "
        f"t {_num(e['t_value'], 2)}"
        + ("; odds ratio read as relative risk (rare outcome)" if e["rare_event_note"] else "")
    )


def _render_summarize(payload):
    lines = [f"{'group':<7}{'phase':<7}{'count':>7}{'mean':>12}{'sd':>12}"]
    for cell in payload["results"]["cells"]:
        phase = "post" if cell["post"] else "pre"
        lines.append(
            f"{cell['group']:<7}{phase:<7}{cell['count']:>7}"
            f"{_num(cell['mean'], 3):>12}{_num(cell['sd'], 3):>12}"
        )
    return "\n".join(lines)


_RENDERERS = {
    "simulate": _render_simulate,
    "estimate": _render_estimate,
    "effect": _render_effect,
    "summarize": _render_summarize,
}


# ---------------------------------------------------------------------------
# driver

def _emit(text, args):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _extract_config_path(argv):
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config needs a file path")
            return argv[i + 1]
        if token.startswith("--config="):
            return token.partition("=")[2]
    return None


def run_cli(argv=None) -> int:
    """Parse argv, run the command, emit text or canonical JSON.

    Returns the process exit code: 0 success, 2 usage error, 1 data or
    convergence error (JSON mode writes a machine-readable error object).
    """
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = _shared_parser()
    try:
        # the config file may carry required options, so it has to be read
        # before the full parse; its flags go right after the subcommand so
        # the command line overrides them
        config_path = _extract_config_path(argv)
        if config_path is not None and argv and not argv[0].startswith("-"):
            config_args = _read_config_args(config_path)
            argv = argv[:1] + config_args + argv[1:]
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"rrdid: {exc}\n")
        return 2

    try:
        echo, results, warnings = _RUNNERS[args.command](args)
    except _DATA_ERRORS as exc:
        payload = {
            "command": args.command,
            "config_echo": None,
            "results": None,
            "warnings": [],
            "errors": [{"kind": type(exc).__name__, "message": str(exc)}],
        }
        if args.format == "json":
            _emit(canonical_json(payload), args)
        else:
            sys.stderr.write(f"rrdid {args.command}: {exc}\n")
        return 1

    payload = {
        "command": args.command,
        "config_echo": echo,
        "results": results,
        "warnings": warnings,
        "errors": [],
    }
    if args.format == "json":
        _emit(canonical_json(payload), args)
    else:
        _emit(_RENDERERS[args.command](payload), args)
    return 0


def main():
    raise SystemExit(run_cli())
