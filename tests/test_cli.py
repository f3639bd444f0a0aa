import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rrdid import cli, nonparametric_rr, summarize_cells
from rrdid import io as csv_io
from rrdid.cli import canonical_json, load_csv_dataset, run_cli
from rrdid.estimators import FitOptions, fit_poisson_qmle


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture
def logit_csv(tmp_path):
    """Saturated binary panel over years 2007-2010 with known truth.

    Cell odds are a_year * 2^grp * 3^D, so the logit fit must recover
    group = ln 2, treat = ln 3, and a zero group trend exactly.
    """
    odds_by_year = {2007: 0.25, 2008: 1 / 3, 2009: 0.5, 2010: 1.0}
    rows = []
    for year, base in odds_by_year.items():
        for grp in (0, 1):
            odds = base * (2.0 if grp else 1.0)
            if grp and year == 2010:
                odds *= 3.0
            ones = round(420 * odds / (1 + odds))
            cell = f"c{year}{grp}"
            rows.append([year, grp, 1, ones, cell])
            rows.append([year, grp, 0, 420 - ones, cell])
    return write_csv(tmp_path / "logit.csv", ["year", "grp", "y", "w", "cell"], rows)


@pytest.fixture
def linear_csv(tmp_path):
    """Two-period cells with means 1, 2, 3, 7: the double difference is 3."""
    cells = {(0, 1): 1.0, (0, 2): 2.0, (1, 1): 3.0, (1, 2): 7.0}
    rows = []
    for (grp, period), m in cells.items():
        rows.append([period, grp, m - 0.5])
        rows.append([period, grp, m + 0.5])
    return write_csv(tmp_path / "linear.csv", ["period", "grp", "y"], rows)


@pytest.fixture
def multinomial_csv(tmp_path):
    table = {
        (0, 0): (0.5, 0.3, 0.2), (0, 1): (0.4, 0.35, 0.25),
        (1, 0): (0.45, 0.25, 0.3), (1, 1): (0.3, 0.45, 0.25),
    }
    rows = []
    for (grp, period), probs in table.items():
        for label, p in enumerate(probs):
            rows.append([period, grp, label, p])
    path = write_csv(tmp_path / "classes.csv", ["period", "grp", "y", "w"], rows)
    return path, table


def run_json(capsys, argv):
    code = run_cli(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, out, (json.loads(out) if out else None)


# --- estimate ----------------------------------------------------------------


def test_estimate_logit_recovers_saturated_truth(capsys, logit_csv):
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "logit", "--csv", logit_csv,
        "--outcome", "y", "--group", "grp", "--period", "year",
        "--weights", "w", "--cluster", "cell", "--post", "2010", "--trend",
    ])
    assert code == 0
    assert payload["errors"] == []
    echo = payload["config_echo"]
    assert echo["period_labels"] == [2007, 2008, 2009, 2010]
    assert echo["base_period"] == 2007

    coefs = {row["name"]: row["estimate"]
             for row in payload["results"]["fit"]["coefficients"]}
    assert coefs["treat"] == pytest.approx(math.log(3), abs=1e-6)
    assert coefs["group"] == pytest.approx(math.log(2), abs=1e-6)
    assert coefs["group_trend"] == pytest.approx(0.0, abs=1e-6)

    effect = payload["results"]["effects"][0]
    assert effect["kind"] == "proportional_odds"
    assert effect["effect"] == pytest.approx(2.0, abs=1e-5)
    trend = payload["results"]["trend_test"][0]
    assert trend["name"] == "group_trend"
    assert trend["estimate"] == pytest.approx(0.0, abs=1e-6)
    assert payload["results"]["fit"]["vcov_kind"] == "cluster_sandwich"


def test_estimate_text_rendering(capsys, logit_csv):
    code = run_cli([
        "estimate", "--family", "logit", "--csv", logit_csv,
        "--outcome", "y", "--group", "grp", "--period", "year",
        "--weights", "w", "--post", "2010",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "logit_qmle" in out
    assert "proportional_odds effect of treat: 2.000" in out
    assert f"{'coefficient':<22}" in out


def test_estimate_poisson_on_mean_cells(capsys, linear_csv):
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "poisson", "--csv", linear_csv,
        "--outcome", "y", "--group", "grp", "--period", "period",
        "--post", "2",
    ])
    assert code == 0
    coefs = {row["name"]: row["estimate"]
             for row in payload["results"]["fit"]["coefficients"]}
    assert coefs["treat"] == pytest.approx(math.log((7 / 3) / (2 / 1)), abs=1e-8)
    assert payload["results"]["effects"][0]["effect"] == pytest.approx(
        (7 / 3) / 2 - 1, abs=1e-7
    )


def test_estimate_linear_reports_transform(capsys, linear_csv):
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "linear", "--csv", linear_csv,
        "--outcome", "y", "--group", "grp", "--period", "period",
        "--post", "2",
    ])
    assert code == 0
    coefs = {row["name"]: row["estimate"]
             for row in payload["results"]["fit"]["coefficients"]}
    assert coefs["treat"] == pytest.approx(3.0, abs=1e-10)
    assert payload["results"]["lin_dd_transform"] == pytest.approx(
        math.log(3 / 7 + 1), abs=1e-10
    )
    assert payload["results"]["effects"] == []
    assert payload["results"]["fit"]["vcov_kind"] == "sandwich"


@pytest.mark.parametrize("family", ["linear", "poisson"])
def test_estimate_releases_the_dataset_before_the_fit(capsys, linear_csv, monkeypatch, family):
    # the fit reads the design, the outcome, the weights and the clusters; the
    # dataset, with its group, period and covariate columns, is gone by then
    datasets, alive = [], []
    load = cli.load_csv_dataset

    def loader(*args, **kwargs):
        loaded = load(*args, **kwargs)
        datasets.append(weakref.ref(loaded[0]))
        return loaded

    def watched(fit):
        def fitter(*args, **kwargs):
            alive.append(datasets[0]() is not None)
            return fit(*args, **kwargs)
        return fitter

    monkeypatch.setattr(cli, "load_csv_dataset", loader)
    monkeypatch.setattr(cli, "fit_ols", watched(cli.fit_ols))
    monkeypatch.setitem(cli._FAMILY_FITTERS, "poisson", watched(cli.fit_poisson_qmle))
    code, _, payload = run_json(capsys, [
        "estimate", "--family", family, "--csv", linear_csv,
        "--outcome", "y", "--group", "grp", "--period", "period", "--post", "2",
    ])
    assert code == 0 and payload["errors"] == []
    assert alive == [False]
    if family == "linear":
        # the treated post cell's mean was taken before the fit
        assert payload["results"]["lin_dd_transform"] == pytest.approx(math.log(3 / 7 + 1))


def test_estimate_linear_without_treated_post_rows(capsys, tmp_path):
    # no treated post row: the treat column is zero, so the fit raises, and
    # no mean of the empty cell is taken, or warned about
    path = write_csv(tmp_path / "empty.csv", ["period", "grp", "y"],
                     [[1, 0, 1.0], [2, 0, 2.0], [1, 1, 3.0], [1, 1, 4.0], [2, 0, 2.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, payload = run_json(capsys, [
            "estimate", "--family", "linear", "--csv", path,
            "--outcome", "y", "--group", "grp", "--period", "period", "--post", "2",
        ])
    assert code == 1
    assert payload["errors"][0]["kind"] == "SingularDesignError"
    assert "treat" in payload["errors"][0]["message"]


def test_estimate_linear_classical_variance(capsys, linear_csv):
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "linear", "--csv", linear_csv,
        "--outcome", "y", "--group", "grp", "--period", "period",
        "--post", "2", "--classical",
    ])
    assert code == 0
    assert payload["results"]["fit"]["vcov_kind"] == "classical_ols"


def test_estimate_huge_linear_outcome_is_a_data_error(capsys, tmp_path):
    # y up to 1e200 overflows the residual moments: the command fails with a
    # typed error instead of reporting null standard errors
    rng = np.random.default_rng(3)
    y = rng.uniform(0, 1, 40) * 10.0 ** rng.integers(190, 201, 40)
    path = write_csv(tmp_path / "huge.csv", ["y", "g", "t"],
                     zip(y, np.arange(40) % 2, 2000 + np.arange(40) // 2 % 4))
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "linear", "--csv", path, "--outcome", "y", "--group", "g",
        "--period", "t", "--post", "2002",
    ])
    assert code == 1
    assert payload["results"] is None
    assert payload["errors"][0]["kind"] == "NonFiniteObjectiveError"


def test_estimate_reports_a_fit_that_did_not_converge(capsys, logit_csv, monkeypatch):
    # a fit that stops short of its tolerance is no result: the command fails
    # with the iteration count
    def one_step(*args, **kwargs):
        return fit_poisson_qmle(*args, **kwargs, options=FitOptions(max_iterations=1))

    monkeypatch.setitem(cli._FAMILY_FITTERS, "poisson", one_step)
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "poisson", "--csv", logit_csv, "--outcome", "y",
        "--group", "grp", "--period", "year", "--post", "2010", "--weights", "w",
    ])
    assert code == 1
    assert payload["results"] is None
    [error] = payload["errors"]
    assert error["kind"] == "ValueError"
    assert "did not converge after 1 iterations" in error["message"]


def test_estimate_classical_variance_refuses_clusters(capsys, tmp_path):
    # the classical variance has no clustered form; it must not drop --cluster silently
    rows = [[1, 0, 0, "a"], [2, 0, 1, "a"], [3, 1, 0, "b"], [4, 1, 1, "b"],
            [2, 0, 0, "c"], [3, 0, 1, "c"], [5, 1, 0, "d"], [6, 1, 1, "d"]]
    path = write_csv(tmp_path / "small.csv", ["y", "q", "t", "c"], rows)
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "linear", "--csv", path, "--outcome", "y", "--group", "q",
        "--period", "t", "--post", "1", "--cluster", "c", "--classical",
    ])
    assert code == 1
    assert payload["results"] is None
    assert payload["errors"][0]["kind"] == "ValueError"
    assert "clustered" in payload["errors"][0]["message"]


def test_estimate_reports_newton_diagnostics(capsys, linear_csv, logit_csv):
    _, _, linear = run_json(capsys, [
        "estimate", "--family", "linear", "--csv", linear_csv,
        "--outcome", "y", "--group", "grp", "--period", "period", "--post", "2",
    ])
    fit = linear["results"]["fit"]
    assert fit["step_halvings"] == 0
    # the saturated cell means 1, 2, 3, 7 are the fitted linear predictors
    assert fit["max_abs_eta"] == pytest.approx(7.0)
    argv = ["estimate", "--family", "logit", "--csv", logit_csv, "--outcome", "y",
            "--group", "grp", "--period", "year", "--weights", "w", "--post", "2010"]
    _, _, logit = run_json(capsys, argv)
    fit = logit["results"]["fit"]
    assert isinstance(fit["step_halvings"], int) and fit["step_halvings"] >= 0
    # the largest cell odds are 1 * 2 * 3 = 6
    assert fit["max_abs_eta"] == pytest.approx(math.log(6.0), abs=1e-6)
    assert run_cli(argv) == 0
    assert (f"step halvings: {fit['step_halvings']}, max |linear predictor|: "
            f"{fit['max_abs_eta']:.4g}") in capsys.readouterr().out


@pytest.mark.parametrize("family", ["poisson", "logit", "multinomial"])
def test_estimate_classical_rejected_outside_linear(capsys, linear_csv, family):
    # the quasi-likelihood fits only report sandwich variances
    code, _, payload = run_json(capsys, [
        "estimate", "--family", family, "--csv", linear_csv,
        "--outcome", "y", "--group", "grp", "--period", "period",
        "--post", "2", "--classical",
    ])
    assert code == 1
    assert payload["results"] is None
    assert payload["errors"] == [{
        "kind": "ValueError",
        "message": "--classical applies only to the linear family",
    }]


def test_estimate_multinomial_per_class_effects(capsys, multinomial_csv):
    path, table = multinomial_csv
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "multinomial", "--csv", path,
        "--outcome", "y", "--group", "grp", "--period", "period",
        "--weights", "w", "--post", "1",
    ])
    assert code == 0
    effects = {e["target"]: e for e in payload["results"]["effects"]}
    assert set(effects) == {"treat[1]", "treat[2]"}
    for c in (1, 2):
        r = {key: p[c] / p[0] for key, p in table.items()}
        ror = (r[(1, 1)] / r[(1, 0)]) / (r[(0, 1)] / r[(0, 0)])
        assert math.exp(effects[f"treat[{c}]"]["beta"]) == pytest.approx(
            ror, rel=1e-6
        )
        assert effects[f"treat[{c}]"]["kind"] == "class_c_proportional_odds"


def test_estimate_base_period_in_label_units(capsys, logit_csv):
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "logit", "--csv", logit_csv,
        "--outcome", "y", "--group", "grp", "--period", "year",
        "--weights", "w", "--post", "2010", "--base-period", "2008",
    ])
    assert code == 0
    names = [row["name"] for row in payload["results"]["fit"]["coefficients"]]
    assert "period_0" in names and "period_1" not in names
    assert payload["config_echo"]["base_period"] == 2008


def test_estimate_post_must_use_label_units(capsys, logit_csv):
    code, out, payload = run_json(capsys, [
        "estimate", "--family", "logit", "--csv", logit_csv,
        "--outcome", "y", "--group", "grp", "--period", "year",
        "--weights", "w", "--post", "3",
    ])
    assert code == 1
    assert payload["errors"][0]["kind"] == "ValueError"
    assert "not a period value" in payload["errors"][0]["message"]


def test_estimate_family_outcome_mismatch(capsys, linear_csv):
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "logit", "--csv", linear_csv,
        "--outcome", "y", "--group", "grp", "--period", "period",
        "--post", "2",
    ])
    assert code == 1
    assert payload["errors"][0]["kind"] == "ValueError"
    assert "[0, 1]" in payload["errors"][0]["message"]


# --- other subcommands ---------------------------------------------------------


def test_effect_subcommand(capsys):
    code, _, payload = run_json(capsys, [
        "effect", "--beta", "0.5", "--se", "0.2", "--kind", "proportional_odds",
        "--rare-event-note",
    ])
    assert code == 0
    result = payload["results"]
    assert result["effect"] == pytest.approx(math.exp(0.5) - 1)
    assert result["kind"] == "proportional_odds"
    assert result["rare_event_note"] is True

    code = run_cli(["effect", "--beta", "0.5", "--se", "0.2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t 2.50" in out


@pytest.mark.parametrize("beta, se", [("800", "1"), ("1", "1e308")])
def test_effect_overflow_is_a_value_error(capsys, beta, se):
    # exp(beta), or its standard error exp(beta) * se, is not a finite float
    code, _, payload = run_json(capsys, ["effect", "--beta", beta, "--se", se])
    assert code == 1
    assert payload["results"] is None
    [error] = payload["errors"]
    assert error["kind"] == "ValueError"
    assert f"beta = {float(beta)!r}" in error["message"]


def test_summarize_cells(capsys, linear_csv):
    code, _, payload = run_json(capsys, [
        "summarize", "--csv", linear_csv, "--outcome", "y", "--group", "grp",
        "--period", "period", "--post", "2",
    ])
    assert code == 0
    cells = {(c["group"], c["post"]): c for c in payload["results"]["cells"]}
    assert cells[(0, False)]["mean"] == pytest.approx(1.0)
    assert cells[(1, True)]["mean"] == pytest.approx(7.0)
    assert cells[(1, True)]["sd"] == pytest.approx(0.5)
    assert all(c["count"] == 2 for c in payload["results"]["cells"])

    code = run_cli([
        "summarize", "--csv", linear_csv, "--outcome", "y", "--group", "grp",
        "--period", "period", "--post", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "post" in out and "pre" in out


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_cell_statistics_share_one_post_definition(data):
    # several periods with post before the last one: the cell summaries, the
    # nonparametric ratio and the linear-DD log transform must all pool the
    # same t >= post rows
    n_periods = data.draw(st.integers(3, 5))
    post = data.draw(st.integers(1, n_periods - 2))
    positive = st.floats(0.1, 10.0)
    rows = [
        [2000 + t, g, data.draw(positive), data.draw(positive)]
        for g in (0, 1) for t in range(n_periods)
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(os.path.join(tmp, "cells.csv"), ["year", "grp", "y", "w"], rows)
        target = os.path.join(tmp, "out.json")
        assert run_cli([
            "estimate", "--family", "linear", "--csv", path, "--outcome", "y",
            "--group", "grp", "--period", "year", "--post", str(2000 + post),
            "--weights", "w", "--format", "json", "--output", target,
        ]) == 0
        with open(target, encoding="utf-8") as handle:
            results = json.load(handle)["results"]
        dataset, _, _ = load_csv_dataset(path, "y", "grp", "year", weights="w")

    m = {(c.group, c.post): c.mean for c in summarize_cells(dataset, post)}
    assert nonparametric_rr(dataset, post) == (
        (m[(1, True)] / m[(1, False)]) / (m[(0, True)] / m[(0, False)])
    )
    beta_d = next(row["estimate"] for row in results["fit"]["coefficients"]
                  if row["name"] == "treat")
    argument = beta_d / m[(1, True)] + 1.0
    expected = math.log(argument) if argument > 0 else None
    assert results["lin_dd_transform"] == expected


def test_simulate_json_and_text(capsys):
    argv = ["simulate", "--family", "positive", "--n", "150", "--reps", "12",
            "--seed", "3", "--beta-qtau", "0.5", "--beta-d", "0.5"]
    code, _, payload = run_json(capsys, argv)
    assert code == 0
    rows = payload["results"]["rows"]
    assert set(rows) == {"qmle_beta_qtau", "qmle_beta_d", "lindd_beta_qtau",
                         "lindd_beta_d", "lindd_transform"}
    assert payload["results"]["effective_repetitions"] == 12
    assert payload["config_echo"]["family"] == "positive"
    # --threads has one value and sets nothing, so the echo leaves it out
    assert "threads" not in payload["config_echo"]

    code = run_cli(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "lin-dd transform" in out
    assert "effective repetitions 12" in out


def test_simulate_reports_failures_by_kind(capsys):
    argv = ["simulate", "--family", "binary", "--n", "80", "--reps", "100",
            "--seed", "3", "--beta-qtau", "0.5", "--beta-d", "0.5"]
    code, _, payload = run_json(capsys, argv)
    assert code == 0
    results = payload["results"]
    assert results["failures_by_kind"]["SeparationError"] == 3
    assert sum(results["failures_by_kind"].values()) == results["failed_repetitions"] == 3
    assert run_cli(argv) == 0
    assert "failures 3 (SeparationError 3), redraws 0" in capsys.readouterr().out


# --- canonical JSON ------------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (["--family", "count", "--beta-d", "nan"], "beta_d must be a finite number"),
    (["--family", "positive", "--betas-t", "800,800,800,800"], "non-finite outcomes"),
    (["--family", "count", "--betas-t", "50,50,50,50"], "Poisson rate too large"),
])
def test_simulate_bad_parameters_are_the_packages_errors(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["simulate", "--n", "50", "--reps", "3", "--seed", "1", *argv])
    assert code == 1
    assert message in capsys.readouterr().err


def test_payload_keys_are_pinned(capsys, logit_csv, linear_csv):
    # each payload is read off its result record, so a field added to a
    # record reaches the JSON only together with a change here
    effect = {"target", "kind", "beta", "se_beta", "effect", "se_effect", "t_value",
              "rare_event_note"}
    fit = {"family", "converged", "iterations", "step_halvings", "max_abs_eta", "score_norm",
           "loglik", "n_obs", "vcov_kind", "coefficients", "vcov"}
    csv_echo = {"csv", "outcome", "group", "period", "weights", "post", "period_labels"}
    estimate_echo = csv_echo | {"family", "cluster", "covariates", "heterogeneous",
                                "base_period", "trend", "period_dummies", "classical"}
    csv_flags = ["--outcome", "y", "--group", "grp", "--period"]
    payloads = {}
    for name, argv in {
        "simulate": ["simulate", "--family", "count", "--n", "200", "--reps", "2", "--seed", "1"],
        "logit": ["estimate", "--family", "logit", "--csv", logit_csv, *csv_flags, "year",
                  "--weights", "w", "--post", "2010", "--trend"],
        "linear": ["estimate", "--family", "linear", "--csv", linear_csv, *csv_flags, "period",
                   "--post", "2"],
        "effect": ["effect", "--beta", "0.2", "--se", "0.1"],
        "summarize": ["summarize", "--csv", linear_csv, *csv_flags, "period", "--post", "2"],
    }.items():
        code, _, payloads[name] = run_json(capsys, argv)
        assert code == 0 and payloads[name]["errors"] == [], name

    simulate = payloads["simulate"]
    assert set(simulate["config_echo"]) == {
        "family", "n", "repetitions", "seed", "beta_qtau", "beta_d", "beta_q", "betas_t",
        "count_shared_rate_intercept", "censored_extra_term", "transform_counterfactual_mean"}
    assert set(simulate["results"]) == {"rows", "redraw_count", "failures_by_kind",
                                        "effective_repetitions", "failed_repetitions"}
    assert {frozenset(row) for row in simulate["results"]["rows"].values()} == {
        frozenset({"abs_bias", "sd", "rmse"})}
    for name in ("logit", "linear"):
        assert set(payloads[name]["config_echo"]) == estimate_echo
        assert set(payloads[name]["results"]["fit"]) == fit
        assert {frozenset(row) for row in payloads[name]["results"]["fit"]["coefficients"]} == {
            frozenset({"name", "estimate", "se", "t_value"})}
        assert set(payloads[name]["results"]["input"]) == {"rows", "reader", "declined"}
    assert set(payloads["logit"]["results"]) == {"fit", "effects", "trend_test", "input"}
    assert set(payloads["logit"]["results"]["effects"][0]) == effect
    assert set(payloads["linear"]["results"]) == {"fit", "effects", "trend_test",
                                                  "lin_dd_transform", "input"}
    assert set(payloads["effect"]["config_echo"]) == {"beta", "se", "kind", "rare_event_note"}
    assert set(payloads["effect"]["results"]) == effect
    assert set(payloads["summarize"]["config_echo"]) == csv_echo
    assert set(payloads["summarize"]["results"]) == {"cells"}
    assert {frozenset(cell) for cell in payloads["summarize"]["results"]["cells"]} == {
        frozenset({"group", "post", "count", "mean", "sd"})}


def test_json_round_trips_byte_identically(capsys, logit_csv):
    code, out, payload = run_json(capsys, [
        "estimate", "--family", "logit", "--csv", logit_csv,
        "--outcome", "y", "--group", "grp", "--period", "year",
        "--weights", "w", "--post", "2010", "--trend",
    ])
    assert code == 0
    assert canonical_json(payload) + "\n" == out


def test_canonical_json_formatting():
    doc = {"b": [1.5, 0.0, -0.0, float("nan"), float("inf")], "a": True,
           "nested": {"z": None, "y": "text"}}
    text = canonical_json(doc)
    assert text == (
        '{"a":true,"b":[1.5,0,0,null,null],"nested":{"y":"text","z":null}}'
    )
    assert canonical_json(json.loads(text)) == text
    assert canonical_json(np.float64(0.1)) == f"{0.1:.17g}"
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})
    with pytest.raises(TypeError):
        canonical_json(object())


def _reference_json(obj, out):
    """canonical_json's writer before it dispatched on exact types and kept
    one string encoder: the oracle of test_canonical_json_equals_its_reference."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append("null" if not math.isfinite(x) else "0" if x == 0.0 else f"{x:.17g}")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            out.append("," if i else "")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _reference_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            out.append("," if i else "")
            _reference_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), st.text(st.characters(max_codepoint=31)),
    st.floats(), st.sampled_from([-0.0, math.nan, -math.inf, 5e-324, 2.2250738585e-313]),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
)
_JSON_DOCUMENTS = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=25)


@given(_JSON_DOCUMENTS)
@settings(max_examples=300, deadline=None)
def test_canonical_json_equals_its_reference(doc):
    # the exact-type dispatch and the shared string encoder change no byte,
    # and the output still re-renders to itself
    reference = []
    _reference_json(doc, reference)
    text = canonical_json(doc)
    assert text == "".join(reference)
    assert canonical_json(json.loads(text)) == text


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run_cli(["effect", "--beta", "0", "--se", "1", "--format", "json",
                    "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "effect"


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("beta", ["0", "800"])  # a result, then an error object
def test_unwritable_output_exits_1_with_a_message(tmp_path, capsys, where, beta):
    target = tmp_path / "missing" / "out.json" if where == "missing directory" else tmp_path
    code = run_cli(["effect", "--beta", beta, "--se", "1", "--format", "json",
                    "--output", str(target)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"rrdid: cannot write {target}: ")
    assert not (tmp_path / "missing").exists()


# --- CSV loading ----------------------------------------------------------------


def test_load_csv_maps_period_labels(logit_csv):
    data, labels, _ = load_csv_dataset(logit_csv, "y", "grp", "year", weights="w")
    assert labels == [2007, 2008, 2009, 2010]
    assert data.n_periods == 4
    assert set(np.unique(data.t)) == {0, 1, 2, 3}


def test_load_csv_row_numbered_errors(tmp_path):
    from rrdid.errors import CsvParseError

    path = write_csv(tmp_path / "bad.csv", ["y", "grp", "period"],
                     [[1.0, 0, 2007], ["", 0, 2008]])
    with pytest.raises(CsvParseError, match="row 3"):
        load_csv_dataset(path, "y", "grp", "period")

    path = write_csv(tmp_path / "short.csv", ["y", "grp", "period"],
                     [[1.0, 0]])
    with pytest.raises(CsvParseError, match="row 2"):
        load_csv_dataset(path, "y", "grp", "period")

    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvParseError, match="row 1"):
        load_csv_dataset(str(path), "y", "grp", "period")

    path = write_csv(tmp_path / "headeronly.csv", ["y", "grp", "period"], [])
    with pytest.raises(CsvParseError, match="no data rows"):
        load_csv_dataset(path, "y", "grp", "period")


def test_load_csv_unknown_binding(tmp_path):
    path = write_csv(tmp_path / "cols.csv", ["y", "grp", "period"],
                     [[1.0, 0, 1], [2.0, 1, 2]])
    with pytest.raises(ValueError, match="unknown column binding"):
        load_csv_dataset(path, "wage", "grp", "period")


def test_load_csv_non_integer_period(tmp_path):
    path = write_csv(tmp_path / "frac.csv", ["y", "grp", "period"],
                     [[1.0, 0, 1.5], [2.0, 1, 2]])
    with pytest.raises(ValueError, match="integer"):
        load_csv_dataset(path, "y", "grp", "period")


@pytest.mark.parametrize("label", ["inf", "-inf", "1e19", "-9007199254740994"])
def test_period_beyond_2_53_is_a_value_error(capsys, tmp_path, label):
    # from 2**53 on labels cannot be told apart, and inf would cast to the
    # smallest int64 and merge with the pre period
    path = write_csv(tmp_path / "huge.csv", ["y", "grp", "period"],
                     [[1.0, 0, label], [2.0, 1, label], [1.5, 0, 2001], [2.5, 1, 2001]])
    code, _, payload = run_json(capsys, [
        "summarize", "--csv", path, "--outcome", "y", "--group", "grp",
        "--period", "period", "--post", "2001",
    ])
    assert code == 1
    assert payload["errors"] == [{
        "kind": "ValueError",
        "message": "period column 'period' must contain integers of magnitude below 2**53"}]


def test_periods_next_to_2_53_stay_apart(tmp_path):
    # 2**53 + 1 parses to 2**53, so the two labels would merge into one period
    path = write_csv(tmp_path / "merge.csv", ["y", "grp", "period"],
                     [[1.0, 0, "9007199254740993"], [2.0, 1, "9007199254740992"]])
    with pytest.raises(ValueError, match=r"below 2\*\*53"):
        load_csv_dataset(path, "y", "grp", "period")
    # below 2**53 every integer label parses exactly
    path = write_csv(tmp_path / "apart.csv", ["y", "grp", "period"],
                     [[1.0, 0, "9007199254740991"], [2.0, 1, "-9007199254740991"],
                      [1.5, 0, "9007199254740990"]])
    dataset, labels, _ = load_csv_dataset(path, "y", "grp", "period")
    assert labels == [-9007199254740991, 9007199254740990, 9007199254740991]
    assert dataset.t.tolist() == [2, 0, 1]


def test_cli_reports_csv_error_as_json(capsys, tmp_path):
    path = write_csv(tmp_path / "bad.csv", ["y", "grp", "period"],
                     [[1.0, 0, 2007], ["", 0, 2008]])
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "linear", "--csv", path, "--outcome", "y",
        "--group", "grp", "--period", "period", "--post", "2008",
    ])
    assert code == 1
    assert payload["results"] is None
    assert payload["errors"][0]["kind"] == "CsvParseError"
    assert "row 3" in payload["errors"][0]["message"]


@pytest.mark.parametrize("command", ["summarize", "estimate"])
@pytest.mark.parametrize("field", ["1" * 131_073, "2\0"], ids=["oversized", "nul"])
def test_unreadable_row_is_a_csv_parse_error(capsys, tmp_path, command, field):
    # csv.reader refuses a field past csv.field_size_limit(), and before
    # Python 3.11 a NUL, which float() refuses from 3.11 on
    path = tmp_path / "unreadable.csv"
    path.write_text(f"y,grp,period\n1,0,2007\n{field},1,2007\n1.5,0,2008\n2,1,2008\n")
    family = ["--family", "linear"] if command == "estimate" else []
    code, _, payload = run_json(capsys, [
        command, *family, "--csv", str(path), "--outcome", "y", "--group", "grp",
        "--period", "period", "--post", "2008",
    ])
    assert code == 1
    assert [error["kind"] for error in payload["errors"]] == ["CsvParseError"]
    assert payload["errors"][0]["message"].startswith("row 3: ")


@pytest.mark.parametrize("rows_before", [1, 9000], ids=["row-3", "past-64KiB"])
def test_file_that_is_not_utf8_names_its_row(capsys, tmp_path, rows_before):
    # the text decoder reads the file ahead of csv.reader, in chunks, so its
    # error's offset is into a chunk; the error names the row of the bad byte
    lines = [b"y,g,t"] + [b"%d,%d,2001" % (i % 7, i % 2) for i in range(rows_before)]
    lines += [b"2\xff,1,2001", b"1.5,0,2002", b"2.5,1,2002"]
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert rows_before == 1 or path.stat().st_size > 1 << 16
    code, _, payload = run_json(capsys, [
        "summarize", "--csv", str(path), "--outcome", "y", "--group", "g",
        "--period", "t", "--post", "2002",
    ])
    assert code == 1
    assert payload["errors"] == [{"kind": "CsvParseError",
                                  "message": f"row {rows_before + 2}: byte 0xff is not valid "
                                             "UTF-8"}]


def test_cli_binds_no_loader_internals():
    # a patch of a loader internal on cli would silently do nothing
    moved = [name for name in vars(csv_io) if name.startswith("_") and not name.startswith("__")]
    assert "_read_rows" in moved
    assert [name for name in moved if hasattr(cli, name)] == []
    assert cli.load_csv_dataset is csv_io.load_csv_dataset


def test_summarize_loads_through_the_cli_name(capsys, linear_csv, monkeypatch):
    # a wrapper set on cli.load_csv_dataset, as the benchmark's tracer sets
    # one, sees every load
    paths, load = [], cli.load_csv_dataset

    def loader(path, *args, **kwargs):
        paths.append(path)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(cli, "load_csv_dataset", loader)
    code, _, payload = run_json(capsys, [
        "summarize", "--csv", linear_csv, "--outcome", "y", "--group", "grp",
        "--period", "period", "--post", "2",
    ])
    assert code == 0 and payload["errors"] == []
    assert paths == [linear_csv]


@pytest.mark.parametrize("extra", [["--group", "g", "--cluster", "g"],
                                   ["--group", "g", "--cluster", "y"]])
def test_cluster_column_bound_as_a_number_is_refused(capsys, tmp_path, extra):
    path = write_csv(tmp_path / "bind.csv", ["y", "g", "t"],
                     [[1.0, 0, 1], [2.0, 0, 2], [3.0, 1, 1], [4.0, 1, 2]])
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "linear", "--csv", path, "--outcome", "y",
        "--period", "t", "--post", "2", *extra,
    ])
    assert code == 1
    cluster = extra[-1]
    assert payload["errors"] == [{
        "kind": "ColumnBindingError",
        "message": f"cluster column {cluster!r} is also bound as a numeric column; "
                   "a column holds cluster ids or numbers, not both",
    }]


def test_row_error_names_the_first_bad_field_in_header_order(tmp_path):
    # row 2 leaves both t and x blank; the message must not depend on set order
    path = write_csv(tmp_path / "blank.csv", ["y", "g", "t", "w", "x"],
                     [[1.0, 0, "", 1.0, ""], [2.0, 1, 2002, 1.0, 0.5]])
    argv = ["estimate", "--family", "linear", "--csv", path, "--outcome", "y",
            "--group", "g", "--period", "t", "--weights", "w", "--covariates", "x",
            "--post", "2002", "--format", "json"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outputs = []
    # under the set iteration these two seeds reported different columns
    for seed in ("1", "3"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-m", "rrdid", *argv], capture_output=True,
                              text=True, env=env, check=False)
        outputs.append((proc.returncode, proc.stdout))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["errors"] == [{
        "kind": "CsvParseError",
        "message": "row 2: missing value in bound column 't'",
    }]


def test_clustered_estimate_never_imports_numpy_random(tmp_path):
    # the cluster coder's hash multipliers are fixed integers, so a clustered
    # estimate imports no numpy.random, several MB of resident memory, where
    # `import numpy` has not (numpy 1.x imports it eagerly, 2.x lazily)
    rows = [[i % 5, i % 2, 2000 + i // 2 % 4, i * 7 % 11 / 10, f" psu-{i % 13:02d}"]
            for i in range(200)]
    path = write_csv(tmp_path / "clustered.csv", ["y", "g", "t", "x", "c"], rows)
    out = str(tmp_path / "out.json")
    argv = ["estimate", "--family", "poisson", "--csv", path, "--outcome", "y", "--group", "g",
            "--period", "t", "--post", "2002", "--covariates", "x", "--cluster", "c",
            "--format", "json", "--output", out]
    script = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
              "from rrdid.cli import run_cli; "
              f"print(run_cli({argv!r}), before or 'numpy.random' not in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=False)
    assert proc.stdout.split() == ["0", "True"], proc.stderr
    with open(out, encoding="utf-8") as handle:
        assert json.load(handle)["results"]["fit"]["vcov_kind"] == "cluster_sandwich"


@pytest.mark.parametrize("n_clusters, n_treated, expected", [
    # 4 clusters for 7 coefficients: the sandwich's rank is 4 at most
    (4, 2, ["4 clusters for 7 coefficients", "2 of 4 clusters hold a row with treat = 1"]),
    (7, 4, ["7 clusters for 7 coefficients", "4 of 7 clusters hold a row with treat = 1"]),
    (20, 9, ["9 of 20 clusters hold a row with treat = 1"]),
    (20, 10, []),
])
def test_estimate_warns_about_few_clusters(capsys, tmp_path, n_clusters, n_treated, expected):
    # a Poisson fit with three periods, a covariate and the trend; the
    # treated group's clusters are the first n_treated
    rng = np.random.default_rng(8)
    rows = []
    for i in range(400):
        c = i % n_clusters
        rows.append([rng.poisson(2), int(c < n_treated), 2000 + i // n_clusters % 3,
                     round(rng.random(), 3), f"psu-{c}"])
    path = write_csv(tmp_path / "few.csv", ["y", "g", "t", "x", "c"], rows)
    argv = ["estimate", "--family", "poisson", "--csv", path, "--outcome", "y", "--group", "g",
            "--period", "t", "--post", "2002", "--covariates", "x", "--trend"]
    code, _, payload = run_json(capsys, argv + ["--cluster", "c"])
    assert code == 0
    assert len(payload["results"]["fit"]["coefficients"]) == 7
    warnings = payload["warnings"]
    assert [w.partition(":")[0].partition(";")[0] for w in warnings] == expected
    # the warnings add no results key, and an unclustered fit gets none
    code, _, unclustered = run_json(capsys, argv)
    assert code == 0 and unclustered["warnings"] == []
    assert unclustered["results"].keys() == payload["results"].keys()


def test_estimate_clips_round_off_negative_variance(capsys, tmp_path):
    # saturated: four rows in four cells, so every residual and every variance
    # is round-off, and some variances come out a hair below zero
    rng = np.random.default_rng(0)
    negative = 0
    for i in range(100):
        y, w = np.round(rng.uniform(-5, 5, 4), 1), np.round(rng.uniform(0.5, 3, 4), 1)
        path = write_csv(tmp_path / f"saturated{i}.csv", ["y", "g", "t", "w"],
                         zip(y, [0, 0, 1, 1], [0, 1, 0, 1], w))
        code, _, payload = run_json(capsys, [
            "estimate", "--family", "linear", "--csv", path, "--outcome", "y",
            "--group", "g", "--period", "t", "--weights", "w", "--post", "1",
        ])
        assert code == 0
        fit = payload["results"]["fit"]
        negative += min(fit["vcov"][j][j] for j in range(4)) < 0
        for j, row in enumerate(fit["coefficients"]):
            assert row["se"] == (math.sqrt(fit["vcov"][j][j]) if fit["vcov"][j][j] > 0 else 0)
    assert negative


def test_cli_missing_file_is_data_error(capsys, tmp_path):
    code = run_cli([
        "estimate", "--family", "linear", "--csv", str(tmp_path / "nope.csv"),
        "--outcome", "y", "--group", "grp", "--period", "period", "--post", "1",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "rrdid estimate:" in err


# --- exit codes and configuration -----------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert run_cli([]) == 2
    assert run_cli(["simulate"]) == 2  # required flags missing
    assert run_cli(["simulate", "--family", "positive", "--n", "10",
                    "--reps", "2", "--seed", "0", "--bogus"]) == 2
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_threads_validation(capsys, tmp_path):
    # the draws run in one thread: --threads survives with 1 as its only value
    argv = ["simulate", "--family", "positive", "--n", "100", "--reps", "4",
            "--seed", "0", "--format", "json"]
    for bad in ("0", "2"):
        assert run_cli(argv + ["--threads", bad]) == 2
        assert "invalid choice" in capsys.readouterr().err
    assert run_cli(argv) == 0
    plain = capsys.readouterr().out
    assert run_cli(argv + ["--threads", "1"]) == 0
    assert capsys.readouterr().out == plain
    cfg = tmp_path / "one.cfg"
    cfg.write_text("threads = 1\n")
    assert run_cli(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain


def test_config_file_supplies_and_is_overridden(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a desk-scale cell\n"
        "family = count\n"
        "n = 60\n"
        "reps = 4\n"
        "seed = 3\n"
        "beta-qtau = 0.5\n"
        "beta_d = 0.5\n"
        "transform-counterfactual-mean = false\n"
    )
    code, _, payload = run_json(capsys, ["simulate", "--config", str(cfg)])
    assert code == 0
    assert payload["config_echo"]["family"] == "count"
    assert payload["config_echo"]["n"] == 60

    code, _, payload = run_json(capsys, [
        "simulate", "--config", str(cfg), "--n", "90",
    ])
    assert code == 0
    assert payload["config_echo"]["n"] == 90


def test_config_file_errors(capsys, tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("family count\n")
    assert run_cli(["simulate", "--config", str(cfg)]) == 2
    assert run_cli(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert run_cli(["simulate", "--config"]) == 2
    capsys.readouterr()


def test_back_to_back_runs_match_fresh_processes(capsys, tmp_path, logit_csv):
    cfg = tmp_path / "estimate.cfg"
    cfg.write_text("family = logit\noutcome = y\ngroup = grp\nperiod = year\npost = 2010\n"
                   "weights = w\ncluster = cell\ntrend = true\nperiod_dummies = false\n")
    runs = [
        ["simulate", "--family", "count", "--n", "200", "--reps", "4", "--seed", "2",
         "--format", "json"],
        ["estimate", "--config", str(cfg), "--csv", logit_csv, "--format", "json"],
        ["estimate", "--family", "logit", "--csv", logit_csv, "--outcome", "y",
         "--group", "grp", "--period", "year", "--post", "2010", "--weights", "w"],
    ]
    in_process = []
    for argv in runs:
        code = run_cli(argv)
        in_process.append((code, capsys.readouterr().out))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    fresh = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "rrdid", *argv], capture_output=True,
                              text=True, env=env, check=False)
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert [code for code, _ in in_process] == [0, 0, 0]
    assert '"trend":true' in in_process[1][1]
    # nothing the config file set leaks into the plain run after it
    assert "group trend test" not in in_process[2][1]
    assert "period_1" in in_process[2][1]


def test_package_imports_without_scipy():
    # the package runs on numpy alone: a fresh interpreter that imports it and
    # its command line loads no scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, rrdid, rrdid.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"
