"""Acceptance gate: one test (and one reported line) per release criterion.

The desk-scale Monte Carlo targets correspond to 1000-replication runs of
the four outcome families at the (0.5, 0.5) parameter cell with n = 1000;
the remaining criteria cover the analytic identification check, the
saturated-model oracles, numerical correctness, output determinism, and
large-sample recovery.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import rrdid
from rrdid import (
    DesignSpec,
    FitOptions,
    MultinomialClassParams,
    Scenario,
    analytic_trend_check,
    build_design,
    dgp_draw,
    fit_logit_qmle,
    fit_multinomial_logit,
    fit_ols,
    fit_poisson_qmle,
    nonparametric_ror,
    nonparametric_rr,
    panel_to_rcs,
    run_monte_carlo,
)

from conftest import binary_cells, class_cells, fit_objective, mean_cells

TABLE_SEED = 1
TIGHT = FitOptions(gradient_tolerance=1e-13)


def table_scenario(family):
    return Scenario(family=family, n=1000, repetitions=1000, seed=TABLE_SEED,
                    beta_qtau=0.5, beta_d=0.5)


def fmt(rows, *keys):
    return ", ".join(
        f"{key}={getattr(rows[key.rsplit('.', 1)[0]], key.rsplit('.', 1)[1]):.3f}"
        for key in keys
    )


def test_criterion_1_positive_family_table(criterion):
    start = time.perf_counter()
    summary = run_monte_carlo(table_scenario("positive"))
    elapsed = time.perf_counter() - start
    rows = summary.rows
    ok = (
        rows["qmle_beta_d"].abs_bias <= 0.04
        and 0.25 <= rows["qmle_beta_d"].sd <= 0.37
        and 3.0 <= rows["lindd_beta_d"].abs_bias <= 3.9
        and 0.43 <= rows["lindd_beta_qtau"].abs_bias <= 0.53
        and elapsed <= 300.0
    )
    criterion(
        1, "positive-family table", ok,
        fmt(rows, "qmle_beta_d.abs_bias", "qmle_beta_d.sd",
            "lindd_beta_d.abs_bias", "lindd_beta_qtau.abs_bias")
        + f", {elapsed:.1f}s",
    )


def test_criterion_2_count_family_table(criterion):
    rows = run_monte_carlo(table_scenario("count")).rows
    ok = (
        rows["qmle_beta_d"].abs_bias <= 0.04
        and 0.27 <= rows["qmle_beta_d"].sd <= 0.41
        and 1.7 <= rows["lindd_beta_d"].abs_bias <= 2.1
    )
    criterion(
        2, "count-family table", ok,
        fmt(rows, "qmle_beta_d.abs_bias", "qmle_beta_d.sd",
            "lindd_beta_d.abs_bias"),
    )


def test_criterion_3_censored_family_table(criterion):
    rows = run_monte_carlo(table_scenario("censored")).rows
    ok = (
        rows["qmle_beta_d"].abs_bias <= 0.04
        and 0.32 <= rows["qmle_beta_d"].sd <= 0.48
        and 3.0 <= rows["lindd_beta_d"].abs_bias <= 3.9
    )
    criterion(
        3, "censored-family table", ok,
        fmt(rows, "qmle_beta_d.abs_bias", "qmle_beta_d.sd",
            "lindd_beta_d.abs_bias"),
    )


def test_criterion_4_binary_family_table(criterion):
    rows = run_monte_carlo(table_scenario("binary")).rows
    ok = (
        rows["qmle_beta_d"].abs_bias <= 0.06
        and 0.42 <= rows["qmle_beta_d"].sd <= 0.70
        and 0.31 <= rows["lindd_beta_qtau"].abs_bias <= 0.41
        and 0.38 <= rows["lindd_beta_d"].abs_bias <= 0.48
    )
    criterion(
        4, "binary-family table", ok,
        fmt(rows, "qmle_beta_d.abs_bias", "qmle_beta_d.sd",
            "lindd_beta_qtau.abs_bias", "lindd_beta_d.abs_bias"),
    )


def test_criterion_5_analytic_identification(criterion):
    rng = np.random.default_rng(52)
    worst = 0.0
    for _ in range(120):
        beta_qtau, beta_pre, beta_tau, beta_q, shift = rng.uniform(-2, 2, 5)
        if rng.random() < 0.25:
            beta_qtau = 0.0
        target = math.exp(beta_qtau)
        for model in ("exponential", "logit"):
            value = analytic_trend_check(
                model, beta_qtau, beta_pre=beta_pre, beta_tau=beta_tau,
                beta_q=beta_q, covariate_shift=shift,
            )
            worst = max(worst, abs(value - target))
        n_contrasts = int(rng.integers(1, 5))
        contrasts = [tuple(rng.uniform(-2, 2, 3)) for _ in range(n_contrasts)]
        class_c = int(rng.integers(1, n_contrasts + 1))
        value = analytic_trend_check(
            "multinomial", beta_qtau, beta_q=beta_q,
            class_contrasts=contrasts, class_c=class_c,
        )
        worst = max(worst, abs(value - target))
    criterion(5, "analytic identification", worst <= 1e-12,
              f"worst |error| {worst:.2e} over 120 draws x 3 models")


def test_criterion_6_saturated_oracles(criterion):
    rng = np.random.default_rng(6)
    worst = {"poisson": 0.0, "logit": 0.0, "multinomial": 0.0}
    for _ in range(100):
        means = np.exp(rng.uniform(-1.0, 1.0, 4))
        data = mean_cells(*means)
        fit = fit_poisson_qmle(build_design(data, DesignSpec(post_period=1)),
                               data.y, data.weights, options=TIGHT)
        rr = nonparametric_rr(data, 1)
        worst["poisson"] = max(worst["poisson"],
                               abs(math.exp(fit.coef("treat")) / rr - 1.0))

        probs = rng.uniform(0.15, 0.85, 4)
        data = binary_cells(*probs, scale=rng.uniform(0.5, 2.0))
        fit = fit_logit_qmle(build_design(data, DesignSpec(post_period=1)),
                             data.y, data.weights, options=TIGHT)
        ror = nonparametric_ror(data, 1)
        worst["logit"] = max(worst["logit"],
                             abs(math.exp(fit.coef("treat")) / ror - 1.0))

        table = {}
        for key in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            shares = rng.dirichlet((3.0, 3.0, 3.0))
            while shares.min() < 0.08:
                shares = rng.dirichlet((3.0, 3.0, 3.0))
            table[key] = tuple(shares)
        data = class_cells(table)
        fit = fit_multinomial_logit(build_design(data, DesignSpec(post_period=1)),
                                    data.y, data.weights, options=TIGHT)
        for c in (1, 2):
            ror = nonparametric_ror(data, 1, class_c=c)
            worst["multinomial"] = max(
                worst["multinomial"],
                abs(math.exp(fit.coef(f"treat[{c}]")) / ror - 1.0),
            )
    ok = (worst["poisson"] <= 1e-8 and worst["logit"] <= 1e-8
          and worst["multinomial"] <= 1e-6)
    criterion(6, "saturated-model oracles", ok,
              "worst rel err over 100 datasets: "
              + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_7_numerical_correctness(criterion):
    rng = np.random.default_rng(7)
    n = 40
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    w = rng.uniform(0.5, 2.0, n)
    y_pois = rng.poisson(1.2, n).astype(float)
    y_bin = rng.integers(0, 2, n).astype(float)
    labels = rng.integers(0, 3, n)
    ymat = np.column_stack([(labels == 1), (labels == 2)]).astype(float)
    y_lin = rng.normal(size=n)

    def ols_objective(b):
        resid = y_lin - X @ b
        return (-0.5 * float(np.sum(w * resid**2)), X.T @ (w * resid),
                -(X.T * w) @ X)

    objectives = [
        (fit_objective("poisson_qmle", X, y_pois, w), 3),
        (fit_objective("logit_qmle", X, y_bin, w), 3),
        (fit_objective("multinomial_logit", X, ymat, w), 6),
        (ols_objective, 3),
    ]
    grad_worst = 0.0
    points = 0
    for objective, p in objectives:
        for _ in range(6):
            beta = rng.normal(scale=0.4, size=p)
            _, grad, _ = objective(beta)
            fd = np.zeros(p)
            for j in range(p):
                e = np.zeros(p)
                e[j] = 1e-5
                fd[j] = (objective(beta + e)[0] - objective(beta - e)[0]) / 2e-5
            grad_worst = max(grad_worst,
                             float(np.max(np.abs(grad - fd) / (1 + np.abs(fd)))))
            points += 1

    fits = [
        (fit_poisson_qmle(X, y_pois, w, options=TIGHT),
         fit_objective("poisson_qmle", X, y_pois, w)),
        (fit_logit_qmle(X, y_bin, w, options=TIGHT),
         fit_objective("logit_qmle", X, y_bin, w)),
        (fit_multinomial_logit(X, labels.astype(float), w, options=TIGHT),
         fit_objective("multinomial_logit", X, ymat, w)),
    ]
    hessian_ok = True
    foc_worst = 0.0
    tol = TIGHT.gradient_tolerance * (1 + w.sum())
    for fit, objective in fits:
        assert fit.converged
        _, grad, hess = objective(fit.coefficients)
        hessian_ok = hessian_ok and bool(np.all(np.linalg.eigvalsh(hess) < 0))
        foc_worst = max(foc_worst, float(np.max(np.abs(grad))))

    # splitting a row into two half-contributions only preserves the
    # sandwich when both halves share the source row's cluster
    dup = slice(30, 40)
    ids = np.arange(n)
    w_scaled = w.copy()
    w_scaled[dup] = 2 * w[dup]
    a = fit_poisson_qmle(X, y_pois, w_scaled, clusters=ids, options=TIGHT)
    b = fit_poisson_qmle(
        np.vstack([X, X[dup]]), np.concatenate([y_pois, y_pois[dup]]),
        np.concatenate([w, w[dup]]), clusters=np.concatenate([ids, ids[dup]]),
        options=TIGHT,
    )
    dup_worst = max(float(np.max(np.abs(a.coefficients - b.coefficients))),
                    float(np.max(np.abs(a.vcov - b.vcov))))

    ok = (grad_worst <= 1e-6 and hessian_ok and foc_worst <= tol
          and dup_worst <= 1e-10)
    criterion(
        7, "numerical correctness", ok,
        f"grad rel err {grad_worst:.2e} over {points} points, "
        f"FOC {foc_worst:.2e} (tol {tol:.2e}), hessians n.d. {hessian_ok}, "
        f"weight-dup {dup_worst:.2e}",
    )


def test_criterion_8_output_determinism(criterion):
    # a scenario with redraws, run in two fresh interpreters whose string
    # hashes differ: nothing in the output may depend on the process
    argv = ["simulate", "--family", "positive", "--n", "120", "--reps", "80",
            "--seed", "9", "--beta-d", "-0.5", "--format", "json"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(rrdid.__file__)))
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-m", "rrdid", *argv], capture_output=True,
                              env=env, check=False)
        outputs.append(proc.stdout)
    same = outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    redraws = payload["results"]["redraw_count"]
    criterion(
        8, "output determinism",
        same and payload["errors"] == [] and redraws == 64,
        f"{len(outputs[0])} bytes, identical={same}, redraws {redraws}",
    )


def test_criterion_9_large_sample_recovery(criterion):
    results = []
    spec = DesignSpec(post_period=3, include_group_trend=True)

    def check(name, fit, treat, trend):
        off = abs(fit.coef(treat) - 0.5) / fit.se(treat)
        t_trend = abs(fit.t_value(trend))
        results.append((name, off, t_trend))
        return off <= 3.0 and t_trend > 3.0

    ok = True
    for family in ("positive", "count", "censored", "binary"):
        sc = Scenario(family=family, n=100_000, repetitions=1, seed=77,
                      beta_qtau=0.5, beta_d=0.5)
        data = panel_to_rcs(dgp_draw(sc, 0), sc, 0)
        matrix = build_design(data, spec)
        fitter = fit_logit_qmle if family == "binary" else fit_poisson_qmle
        fit = fitter(matrix, data.y, data.weights, clusters=data.clusters)
        ok = check(family, fit, "treat", "group_trend") and ok

    extras = (
        MultinomialClassParams(),
        MultinomialClassParams(betas_t=(-0.5, -0.4, -0.2, 0.1), beta_q=0.4,
                               beta_qtau=0.5, beta_d=0.5),
    )
    sc = Scenario(family="multinomial", n=100_000, repetitions=1, seed=77,
                  multinomial_extras=extras)
    data = panel_to_rcs(dgp_draw(sc, 0), sc, 0)
    fit = fit_multinomial_logit(build_design(data, spec), data.y, data.weights)
    ok = check("multinomial", fit, "treat[1]", "group_trend[1]") and ok

    criterion(
        9, "large-sample recovery", ok,
        "; ".join(f"{n}: {o:.2f} se off, trend |t| {t:.0f}"
                  for n, o, t in results),
    )
