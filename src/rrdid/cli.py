"""Command line interface.

Four subcommands: simulate (Monte Carlo bias tables), estimate (fit a DD
model to a CSV), effect (restate a coefficient as a proportional effect),
and summarize (weighted cell means of a CSV). Output is a text table by
default or canonical JSON with --format json; JSON output is byte-stable,
so the same configuration and seed produce identical files in every
process, and parsing then re-rendering reproduces the bytes. rrdid.io
reads the CSV inputs; its docstring gives their format.

Exit codes: 0 success, 2 usage error, 1 data or convergence error (in JSON
mode the error object is written to stdout, or to --output). An --output
that cannot be written, a missing directory or a directory itself, exits 1
with "rrdid: cannot write <path>: <reason>" on stderr, whether the payload
was a result or an error object.

No environment variable is consulted.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .design import DesignSpec, build_design, cell_masks, cell_mean, summarize_cells
from .effects import effect_report, lin_dd_proportional, proportional_effect
from .errors import (
    MonteCarloAbort,
    NegativeVarianceError,
    NonFiniteObjectiveError,
    OverflowGuardError,
    RedrawRequired,
    SeparationError,
    SingularHessianError,
)
from .estimators import (
    fit_logit_qmle,
    fit_multinomial_logit,
    fit_ols,
    fit_poisson_qmle,
)
from .io import load_csv_dataset
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


_encode_string = json.JSONEncoder(ensure_ascii=False).encode


def _write_json(obj, out):
    kind = type(obj)
    # exact floats and strings, most of a payload, skip the isinstance chain
    if kind is float:
        out.append(_format_float(obj) if math.isfinite(obj) else "null")
    elif kind is str:
        out.append(_encode_string(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(_encode_string(obj))
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
            out.append(_encode_string(key))
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
# argument parsing

def _period_index(labels, value, what):
    if value in labels:
        return labels.index(value)
    raise ValueError(f"{what} {value} is not a period value; periods are {labels}")


def _comma_list(text):
    return tuple(s for s in (part.strip() for part in text.split(",")) if s)


def _comma_floats(text):
    return tuple(float(part) for part in text.split(","))


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
                     help="first treated period, in the period column's units; "
                          "the treatment column, cell summaries and the log "
                          "transform all pool every period t >= post")
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
    sim.add_argument("--threads", type=int, default=1, choices=(1,),
                     help="deprecated: the draws run in one thread, and 1 is the only value")
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
                     help="linear family only, without --cluster: classical instead of "
                          "robust variance")
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
    echo = _fields(scenario, skip="multinomial_extras")
    echo["transform_counterfactual_mean"] = args.transform_counterfactual_mean
    summary = run_monte_carlo(
        scenario,
        counterfactual_transform_mean=args.transform_counterfactual_mean,
    )
    results = _fields(summary, skip="scenario")
    results["rows"] = {key: _fields(row) for key, row in summary.rows.items()}
    return echo, results, []


def _fields(obj, skip=None) -> dict:
    """A dataclass instance's fields but skip, by name: asdict without its
    deep copy, for fields that hold no dataclass."""
    return {field.name: getattr(obj, field.name)
            for field in dataclasses.fields(obj) if field.name != skip}


_FAMILY_FITTERS = {
    "linear": fit_ols,
    "poisson": fit_poisson_qmle,
    "logit": fit_logit_qmle,
    "multinomial": fit_multinomial_logit,
}


def _run_estimate(args):
    if args.classical and args.family != "linear":
        raise ValueError("--classical applies only to the linear family")
    dataset, labels, source = load_csv_dataset(
        args.csv, args.outcome, args.group, args.period,
        weights=args.weights, cluster=args.cluster, covariates=args.covariates,
        class_labels=args.family == "multinomial",
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
        "family": args.family, "csv": args.csv, "outcome": args.outcome, "group": args.group,
        "period": args.period, "weights": args.weights, "cluster": args.cluster,
        "covariates": list(args.covariates), "heterogeneous": list(args.heterogeneous),
        "post": args.post, "base_period": labels[base], "trend": args.trend,
        "period_dummies": args.period_dummies, "period_labels": labels,
        "classical": args.classical,
    }

    matrix = build_design(dataset, spec)
    ybar = None
    if args.family == "linear":
        # the treated post cell's mean, for the log transform; without rows
        # there, the treat column is zero and the fit raises
        treated_post = cell_masks(dataset, post)[(1, 1)]
        if treated_post.any():
            ybar = cell_mean(dataset, treated_post)
    # the design holds its own cells and covariates, so the fit needs no more
    # of the dataset than these, and its other columns are released first
    y, weights, clusters = dataset.y, dataset.weights, dataset.clusters
    del dataset
    if args.family == "linear":
        fit = fit_ols(matrix, y, weights, clusters=clusters, robust=not args.classical)
    else:
        fit = _FAMILY_FITTERS[args.family](matrix, y, weights, clusters=clusters)
    if not fit.converged:
        raise ValueError(
            f"{fit.family} did not converge after {fit.iterations} iterations "
            f"(score norm {fit.score_norm:.3g})"
        )

    warnings = [] if clusters is None else _cluster_warnings(clusters, matrix, len(fit.names))
    coef_table = [
        {
            "name": name,
            "estimate": fit.coefficients[i],
            "se": fit.se(name),
            "t_value": fit.t_value(name),
        }
        for i, name in enumerate(fit.names)
    ]
    results = {"fit": {**dataclasses.asdict(fit), "coefficients": coef_table}, "input": source}
    del results["fit"]["names"]

    # multinomial names carry the class, e.g. "treat[2]"; the stem is the design column
    def stem(name):
        return name.partition("[")[0]

    if args.family == "linear":
        results["effects"] = []
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


# the treated clusters below which the cluster sandwich over-rejects (Conley
# and Taber 2011; MacKinnon and Webb 2017)
_FEW_TREATED_CLUSTERS = 10


def _cluster_warnings(clusters, matrix, n_coefficients):
    """The warnings on a cluster sandwich from too few clusters: no more
    clusters than coefficients, when the meat, a sum of one rank-one term
    per cluster, has rank below the coefficients, or fewer than
    _FEW_TREATED_CLUSTERS clusters that hold a row with treat = 1.

    clusters holds the loader's codes, 0 to G - 1 with every code in use, so
    one bincount of the rows' treat values counts both.
    """
    treat = matrix.cell_values[:, matrix.index("treat")]
    treated_rows = np.bincount(clusters, weights=treat[matrix.cells])
    n_clusters, n_treated = treated_rows.size, np.count_nonzero(treated_rows)
    warnings = []
    if n_clusters <= n_coefficients:
        warnings.append(f"{n_clusters} clusters for {n_coefficients} coefficients: the "
                        "cluster sandwich has rank below the coefficient count, so its "
                        "standard errors and t-values are unreliable")
    if n_treated < _FEW_TREATED_CLUSTERS:
        warnings.append(f"{n_treated} of {n_clusters} clusters hold a row with treat = 1; "
                        f"with fewer than {_FEW_TREATED_CLUSTERS} treated clusters the "
                        "cluster sandwich's t-values over-reject")
    return warnings


def _effect_payload(report, target):
    return {"target": target, **dataclasses.asdict(report)}


def _run_effect(args):
    echo = {"beta": args.beta, "se": args.se, "kind": args.kind,
            "rare_event_note": args.rare_event_note}
    report = effect_report(args.beta, args.se, kind=args.kind,
                           rare_event_note=args.rare_event_note)
    return echo, _effect_payload(report, None), []


def _run_summarize(args):
    dataset, labels, _ = load_csv_dataset(
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
    results = {"cells": [dataclasses.asdict(cell) for cell in summarize_cells(dataset, post)]}
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
    for key, label in _ROW_LABELS.items():
        if key not in results["rows"]:
            continue
        row = results["rows"][key]
        lines.append(
            f"{label:<20}{_num(row['abs_bias'], 2):>8}"
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
        "step halvings: {halvings}, max |linear predictor|: {eta:.4g}".format(
            halvings=fit["step_halvings"], eta=fit["max_abs_eta"]),
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

def _emit(text, args, code):
    """Write text to --output, or stdout, and return the exit code: code, or
    1 when --output cannot be written."""
    if not args.output:
        sys.stdout.write(text + "\n")
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        sys.stderr.write(f"rrdid: cannot write {args.output}: {exc.strerror or exc}\n")
        return 1
    return code


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
    convergence error (JSON mode writes a machine-readable error object) or
    an --output that cannot be written.
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
            return _emit(canonical_json(payload), args, 1)
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
        return _emit(canonical_json(payload), args, 0)
    return _emit(_RENDERERS[args.command](payload), args, 0)


def main():
    raise SystemExit(run_cli())
