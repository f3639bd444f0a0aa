import csv
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdid import cli, nonparametric_rr, summarize_cells
from rrdid.cli import canonical_json, load_csv_dataset, run_cli


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


def test_estimate_linear_classical_variance(capsys, linear_csv):
    code, _, payload = run_json(capsys, [
        "estimate", "--family", "linear", "--csv", linear_csv,
        "--outcome", "y", "--group", "grp", "--period", "period",
        "--post", "2", "--classical",
    ])
    assert code == 0
    assert payload["results"]["fit"]["vcov_kind"] == "classical_ols"


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
        dataset, _ = load_csv_dataset(path, "y", "grp", "year", weights="w")

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
    # thread count is excluded from the echo so outputs stay comparable
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


def test_simulate_output_is_thread_invariant(capsys):
    argv = ["simulate", "--family", "count", "--n", "200", "--reps", "16",
            "--seed", "7", "--beta-qtau", "0.5", "--beta-d", "0.5",
            "--format", "json"]
    assert run_cli(argv + ["--threads", "1"]) == 0
    serial = capsys.readouterr().out
    assert run_cli(argv + ["--threads", "8"]) == 0
    threaded = capsys.readouterr().out
    assert serial == threaded


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


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run_cli(["effect", "--beta", "0", "--se", "1", "--format", "json",
                    "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "effect"


# --- CSV loading ----------------------------------------------------------------


def test_load_csv_maps_period_labels(logit_csv):
    data, labels = load_csv_dataset(logit_csv, "y", "grp", "year", weights="w")
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


def test_threads_validation(capsys):
    code = run_cli(["simulate", "--family", "positive", "--n", "20",
                    "--reps", "2", "--seed", "0", "--threads", "0"])
    capsys.readouterr()
    assert code == 1


def test_rrdid_threads_env(capsys, monkeypatch):
    argv = ["simulate", "--family", "positive", "--n", "30", "--reps", "2",
            "--seed", "0"]
    monkeypatch.setenv("RRDID_THREADS", "2")
    assert run_cli(argv) == 0
    monkeypatch.setenv("RRDID_THREADS", "zero")
    assert run_cli(argv) == 1
    capsys.readouterr()


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
