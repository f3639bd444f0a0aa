"""Workload inputs, the operations run on them, and their reference results.

Every input is generated from the workload seed, so the same seed gives the
same bytes. Each workload is a list of inputs; one operation is one
`rrdid.cli.run_cli` call on one input, and a pass runs every input once.

The reference results come from this file's own implementation of each
estimator (plain numpy Newton iterations and sandwich variances, written
independently of `rrdid`), evaluated on the generated arrays. For the
Monte Carlo grid the reference mirrors the data-generating process of
`rrdid.simulate` draw for draw and fits each replication on its eight
(group x period) cell sums, which gives the same coefficients as the
row-level fit because every regressor is constant within a cell.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("mc-grid", "estimate-poisson-large", "estimate-multinomial")

# A program value v matches its reference r when |v - r| <= atol + rtol * |r|.
# The estimate references iterate to machine precision, while the program
# stops Newton once the max-abs score is below 1e-8 * (1 + sum of weights),
# so the two differ by up to that stopping error. The Monte Carlo reference
# stops by the program's rule, but a rounding difference right at the
# threshold can still cost one Newton step (below 1e-5 in one replication),
# hence an absolute term for its rows, which are averages near zero. The
# deviations seen at the seed commit, as a share of these tolerances, are
# recorded in seed_commit.json.
TOLERANCE = {
    "mc-grid": (1e-6, 1e-6),
    "estimate-poisson-large": (1e-6, 1e-12),
    "estimate-multinomial": (1e-6, 1e-12),
}

# input sizes: the smoke size only exercises the benchmark itself
SIZES = {
    "full": {"mc_reps": 50, "poisson_rows": 500_000, "poisson_clusters": 1000,
             "multinomial_rows": 150_000},
    "smoke": {"mc_reps": 4, "poisson_rows": 20_000, "poisson_clusters": 100,
              "multinomial_rows": 10_000},
}


@dataclass
class Input:
    """One program input: the CLI arguments, its size and its reference."""

    name: str
    argv: list
    rows: int
    expected: dict
    info: dict = field(default_factory=dict)


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _fixed(k, scale, places):
    """Decimal text of k / scale; float() of it equals k / scale exactly."""
    return [f"{v:.{places}f}" for v in (np.asarray(k) / scale).tolist()]


def _write_csv(path, header, columns):
    lines = [",".join(header)]
    lines.extend(",".join(fields) for fields in zip(*columns))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return {"rows": len(lines) - 1, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


# ---------------------------------------------------------------------------
# reference estimators

def _newton(objective, beta):
    """Maximize objective(beta) -> (value, grad, hess) to machine precision."""
    value, grad, hess = objective(beta)
    for _ in range(200):
        step = np.linalg.solve(-hess, grad)
        scale = 1.0
        while scale > 1e-10:
            cand = beta + scale * step
            cand_value, cand_grad, cand_hess = objective(cand)
            if np.isfinite(cand_value) and cand_value >= value - 1e-14 * abs(value):
                break
            scale /= 2.0
        else:
            break
        beta, value, grad, hess = cand, cand_value, cand_grad, cand_hess
        if float(np.max(np.abs(scale * step))) < 1e-15 * (1.0 + float(np.max(np.abs(beta)))):
            break
    return beta, value, grad, hess


def _sandwich(bread, scores, codes=None):
    if codes is not None:
        groups = int(codes.max()) + 1
        scores = np.column_stack([np.bincount(codes, weights=col, minlength=groups)
                                  for col in scores.T])
    meat = scores.T @ scores
    inv = np.linalg.inv(bread)
    vcov = inv @ meat @ inv
    return (vcov + vcov.T) / 2.0


def poisson_reference(X, y, w, codes=None):
    def objective(beta):
        eta = X @ beta
        mu = np.exp(eta)
        return (float(np.sum(w * (y * eta - mu))), X.T @ (w * (y - mu)),
                -(X.T * (w * mu)) @ X)

    beta, value, _, hess = _newton(objective, np.zeros(X.shape[1]))
    mu = np.exp(X @ beta)
    vcov = _sandwich(-hess, (w * (y - mu))[:, None] * X, codes)
    return beta, vcov, value


def multinomial_reference(X, labels, w, n_classes):
    n, p = X.shape
    ymat = np.stack([(labels == c).astype(float) for c in range(1, n_classes + 1)], axis=1)

    def parts(beta):
        eta = X @ beta.reshape(n_classes, p).T
        lse = np.log1p(np.sum(np.exp(eta), axis=1))
        probs = np.exp(eta - lse[:, None])
        value = float(np.sum(w * (np.sum(ymat * eta, axis=1) - lse)))
        resid = w[:, None] * (ymat - probs)
        hess = np.empty((n_classes * p, n_classes * p))
        for c, d in itertools.product(range(n_classes), repeat=2):
            cov = probs[:, c] * ((c == d) - probs[:, d])
            hess[c * p:(c + 1) * p, d * p:(d + 1) * p] = -(X.T * (w * cov)) @ X
        return value, (resid.T @ X).reshape(-1), hess, resid

    beta, value, _, hess = _newton(lambda b: parts(b)[:3], np.zeros(n_classes * p))
    resid = parts(beta)[3]
    scores = (resid[:, :, None] * X[:, None, :]).reshape(n, n_classes * p)
    return beta, _sandwich(-hess, scores), value


def _design(t, q, n_periods, post, trend, covariates=()):
    names = ["const"] + [f"period_{p}" for p in range(1, n_periods)] + ["group"]
    cols = [np.ones(t.size)] + [(t == p).astype(float) for p in range(1, n_periods)]
    cols.append(q.astype(float))
    if trend:
        names.append("group_trend")
        cols.append(t * q.astype(float))
    names.append("treat")
    cols.append(q * (t == post).astype(float))
    for name, values in covariates:
        names.append(name)
        cols.append(values)
    return np.column_stack(cols), names


def _effect(target, kind, beta, se):
    return {"target": target, "kind": kind, "beta": beta, "se_beta": se,
            "effect": math.exp(beta) - 1.0, "se_effect": math.exp(beta) * se,
            "t_value": beta / se, "rare_event_note": False}


def _fit_expected(family, names, beta, vcov, loglik, n_obs, clustered):
    se = np.sqrt(np.diag(vcov))
    return {
        "family": family,
        "converged": True,
        "loglik": loglik,
        "n_obs": n_obs,
        "vcov_kind": "cluster_sandwich" if clustered else "sandwich",
        "coefficients": [
            {"name": nm, "estimate": float(b), "se": float(s), "t_value": float(b / s)}
            for nm, b, s in zip(names, beta, se)
        ],
        "vcov": vcov.tolist(),
    }


# ---------------------------------------------------------------------------
# estimate-poisson-large: survey-style counts with weights, string PSU
# clusters, one continuous covariate, a group trend and year-labelled periods

def poisson_large(seed, tmpdir, sizes):
    n, n_psu = sizes["poisson_rows"], sizes["poisson_clusters"]
    rng = _rng(seed, 1)
    first_year, n_periods = 2016, 6
    psu_group = (rng.random(n_psu) < 0.45).astype(np.int64)
    psu = rng.integers(0, n_psu, n)
    q = psu_group[psu]
    t = rng.integers(0, n_periods, n)
    x_k = np.clip(np.rint(rng.standard_normal(n) * 10_000), -40_000, 40_000).astype(np.int64)
    w_k = rng.integers(500, 2501, n)
    x, w = x_k / 10_000, w_k / 1_000
    post = n_periods - 1
    eta = -0.4 + 0.08 * t + 0.3 * q + 0.05 * t * q + 0.2 * q * (t == post) + 0.25 * x
    y = rng.poisson(np.exp(eta))

    path = os.path.join(tmpdir, "poisson.csv")
    info = _write_csv(
        path, ["visits", "treated", "year", "wt", "psu", "x"],
        [[str(v) for v in y.tolist()], [str(v) for v in q.tolist()],
         [str(first_year + v) for v in t.tolist()], _fixed(w_k, 1_000, 3),
         [f"psu-{v:05d}" for v in psu.tolist()], _fixed(x_k, 10_000, 4)],
    )

    X, names = _design(t, q, n_periods, post, trend=True, covariates=[("x", x)])
    # clusters are coded in sorted order of their labels, as the program does;
    # the zero-padded labels sort like their integers
    _, codes = np.unique(psu, return_inverse=True)
    beta, vcov, loglik = poisson_reference(X, y.astype(float), w, codes)
    fit = _fit_expected("poisson_qmle", names, beta, vcov, loglik, n, clustered=True)
    i_treat, i_trend = names.index("treat"), names.index("group_trend")
    expected = {
        "fit": fit,
        "effects": [_effect("treat", "proportional", float(beta[i_treat]),
                            float(np.sqrt(vcov[i_treat, i_treat])))],
        "trend_test": [{k: fit["coefficients"][i_trend][k]
                        for k in ("name", "estimate", "se", "t_value")}],
    }
    argv = ["estimate", "--family", "poisson", "--csv", path, "--outcome", "visits",
            "--group", "treated", "--period", "year", "--post", str(first_year + post),
            "--weights", "wt", "--cluster", "psu", "--covariates", "x", "--trend",
            "--format", "json"]
    return [Input("poisson.csv", argv, n, expected, info=info)]


# ---------------------------------------------------------------------------
# estimate-multinomial: three-class outcome, weights, no clusters and no
# continuous covariates, so every regressor is constant within a cell

def multinomial(seed, tmpdir, sizes):
    n = sizes["multinomial_rows"]
    rng = _rng(seed, 2)
    first_year, n_periods = 2018, 4
    post = n_periods - 1
    q = (rng.random(n) < 0.5).astype(np.int64)
    t = rng.integers(0, n_periods, n)
    w_k = rng.integers(500, 2501, n)
    w = w_k / 1_000
    d = q * (t == post)
    utilities = np.column_stack([
        np.zeros(n),
        -0.5 + 0.10 * t + 0.2 * q + 0.3 * d,
        -1.0 + 0.05 * t - 0.1 * q + 0.4 * d,
    ]) + rng.gumbel(size=(n, 3))
    labels = np.argmax(utilities, axis=1)

    path = os.path.join(tmpdir, "multinomial.csv")
    info = _write_csv(
        path, ["status", "group", "wave", "weight"],
        [[str(v) for v in labels.tolist()], [str(v) for v in q.tolist()],
         [str(first_year + v) for v in t.tolist()], _fixed(w_k, 1_000, 3)],
    )

    X, names = _design(t, q, n_periods, post, trend=False)
    beta, vcov, loglik = multinomial_reference(X, labels, w, 2)
    full_names = [f"{nm}[{c}]" for c in (1, 2) for nm in names]
    fit = _fit_expected("multinomial_logit", full_names, beta, vcov, loglik, n,
                        clustered=False)
    effects = []
    for c in (1, 2):
        i = full_names.index(f"treat[{c}]")
        effects.append(_effect(f"treat[{c}]", "class_c_proportional_odds",
                               float(beta[i]), float(np.sqrt(vcov[i, i]))))
    expected = {"fit": fit, "effects": effects, "trend_test": None}
    argv = ["estimate", "--family", "multinomial", "--csv", path, "--outcome", "status",
            "--group", "group", "--period", "wave", "--post", str(first_year + post),
            "--weights", "weight", "--format", "json"]
    return [Input("multinomial.csv", argv, n, expected, info=info)]


# ---------------------------------------------------------------------------
# mc-grid: the paper's table grid, one `simulate` call per cell

N_PERIODS = 4
POST = 3
BETAS_T = np.array([-2.0, -2.0, -1.0, -1.0])
BETA_Q = 0.5
# cell rows (q, t) in the order q * 4 + t; columns const, period_1..3,
# group, group_trend, treat
CELL_X = np.array([[1.0, t == 1, t == 2, t == 3, q, t * q, q * (t == POST)]
                   for q in (0, 1) for t in range(N_PERIODS)], dtype=float)
I_TREND, I_TREAT = 5, 6
LINEAR_PREDICTOR_CAP = 30.0


def _draw(family, n, beta_qtau, beta_d, rng):
    """Observed (y, q, t) of one draw, consuming rng as rrdid.simulate does."""
    q = (rng.random(n) < 0.5).astype(np.int64)
    t = np.arange(N_PERIODS)
    lin = (BETAS_T[None, :] + BETA_Q * q[:, None] + beta_qtau * t[None, :] * q[:, None]
           + beta_d * (q[:, None] * (t == POST)))
    if family == "positive":
        y = np.exp(lin + rng.standard_normal((n, N_PERIODS)))
    elif family == "count":
        y = rng.poisson(np.exp(lin)).astype(float)
    elif family == "censored":
        m = rng.poisson(1.0, n)
        y = np.zeros((n, N_PERIODS))
        for j in range(int(m.max())):
            z = np.exp(lin + rng.standard_normal((n, N_PERIODS)))
            y += np.where((m > j)[:, None], z, 0.0)
    else:
        y = (lin + rng.logistic(size=(n, N_PERIODS)) > 0).astype(float)
    s = rng.integers(0, N_PERIODS, size=n)
    return y[np.arange(n), s], q, s


def _cell_qmle(counts, sums, binary, n):
    """Poisson or logit QMLE on cell sums; None where the program's fit fails.

    The iteration follows the program's documented rule: Newton with step
    halving from zero, stopped once the max-abs score is at most
    1e-8 * (1 + n). A separated cell makes the true optimum infinite, and
    the estimate is then wherever that rule stops, so the reference has to
    stop in the same place.
    """
    keep = counts > 0
    X, N, S = CELL_X[keep], counts[keep], sums[keep]

    def objective(beta):
        eta = np.clip(X @ beta, -LINEAR_PREDICTOR_CAP, LINEAR_PREDICTOR_CAP)
        if binary:
            p = 1.0 / (1.0 + np.exp(-eta))
            return (float(np.sum(S * eta - N * np.logaddexp(0.0, eta))),
                    X.T @ (S - N * p), -(X.T * (N * p * (1 - p))) @ X)
        mu = np.exp(eta)
        return float(np.sum(S * eta - N * mu)), X.T @ (S - N * mu), -(X.T * (N * mu)) @ X

    tol = 1e-8 * (1.0 + n)
    beta = np.zeros(X.shape[1])
    value, grad, hess = objective(beta)
    try:
        for _ in range(100):
            if np.max(np.abs(grad)) <= tol:
                break
            direction = np.linalg.solve(-hess, grad)
            step = 1.0
            for _ in range(30):
                cand = beta + step * direction
                cand_value, cand_grad, cand_hess = objective(cand)
                if np.isfinite(cand_value) and cand_value >= value - 1e-12 * (1 + abs(value)):
                    break
                step /= 2.0
            else:
                break
            beta, value, grad, hess = cand, cand_value, cand_grad, cand_hess
            if step * np.max(np.abs(direction)) < 1e-12:
                break
    except np.linalg.LinAlgError:
        return None
    eta = X @ beta
    if np.max(np.abs(grad)) > tol or np.max(np.abs(eta)) >= LINEAR_PREDICTOR_CAP:
        return None
    if binary and np.all((S == 0) | (S == N)):
        p = 1.0 / (1.0 + np.exp(-eta))
        if np.all(np.where(S == N, 1.0 - p, p) <= 1e-6):
            return None
    return beta


def mc_cell_reference(family, n, beta_qtau, beta_d, reps, seed):
    """The `simulate` results for one cell, replicated from cell sums."""
    has_transform = family != "binary"
    estimates, redraws = [], 0
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        while True:
            y, q, t = _draw(family, n, beta_qtau, beta_d, rng)
            cell = q * N_PERIODS + t
            counts = np.bincount(cell, minlength=8).astype(float)
            sums = np.bincount(cell, weights=y, minlength=8)
            qbeta = _cell_qmle(counts, sums, family == "binary", n)
            if qbeta is None:
                break
            sw = np.sqrt(counts)
            means = np.divide(sums, counts, out=np.zeros(8), where=counts > 0)
            lbeta = np.linalg.lstsq(CELL_X * sw[:, None], means * sw, rcond=None)[0]
            est = {"qmle_beta_qtau": qbeta[I_TREND], "qmle_beta_d": qbeta[I_TREAT],
                   "lindd_beta_qtau": lbeta[I_TREND], "lindd_beta_d": lbeta[I_TREAT]}
            if has_transform:
                ybar = sums[N_PERIODS + POST] / counts[N_PERIODS + POST]
                argument = lbeta[I_TREAT] / ybar + 1.0 if ybar > 0 else 0.0
                if argument <= 0:
                    redraws += 1
                    continue
                est["lindd_transform"] = math.log(argument)
            estimates.append(est)
            break

    truth = {"qmle_beta_qtau": beta_qtau, "lindd_beta_qtau": beta_qtau,
             "qmle_beta_d": beta_d, "lindd_beta_d": beta_d, "lindd_transform": beta_d}
    rows = {}
    for key in estimates[0]:
        values = np.array([e[key] for e in estimates])
        mean = float(values.mean())
        rows[key] = {"abs_bias": abs(mean - truth[key]),
                     "sd": float(np.sqrt(np.mean((values - mean) ** 2))),
                     "rmse": float(np.sqrt(np.mean((values - truth[key]) ** 2)))}
    return {"rows": rows, "redraw_count": redraws,
            "effective_repetitions": len(estimates),
            "failed_repetitions": reps - len(estimates)}


def mc_grid(seed, tmpdir, sizes):
    reps = sizes["mc_reps"]
    inputs = []
    for family in ("positive", "count", "censored", "binary"):
        for n in (250, 1000):
            for beta_qtau, beta_d in ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)):
                argv = ["simulate", "--family", family, "--n", str(n), "--reps", str(reps),
                        "--seed", str(seed), "--beta-qtau", str(beta_qtau),
                        "--beta-d", str(beta_d), "--threads", "1", "--format", "json"]
                expected = mc_cell_reference(family, n, beta_qtau, beta_d, reps, seed)
                inputs.append(Input(f"{family}/n={n}/qtau={beta_qtau}/d={beta_d}",
                                    argv, n * reps, expected))
    # the grid's input is its list of argument vectors; rows count one pass
    listing = repr([i.argv for i in inputs]).encode()
    info = {"rows": sum(i.rows for i in inputs), "bytes": len(listing),
            "sha256": hashlib.sha256(listing).hexdigest()}
    for i in inputs:
        i.info = info
    return inputs


GENERATORS = {
    "mc-grid": mc_grid,
    "estimate-poisson-large": poisson_large,
    "estimate-multinomial": multinomial,
}


def make_inputs(workload, seed, tmpdir, size="full"):
    return GENERATORS[workload](seed, tmpdir, SIZES[size])


# ---------------------------------------------------------------------------
# output check

def compare(actual, expected, tolerance, path="results", out=None, worst=None):
    """Mismatches between a program result and its reference, as messages.

    Every key of expected must be present in actual; floats match within
    tolerance = (rtol, atol), everything else exactly. worst, when given,
    collects the largest deviation seen as a share of its tolerance.
    """
    out = [] if out is None else out
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            out.append(f"{path}: expected an object")
            return out
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                compare(actual[key], value, tolerance, f"{path}.{key}", out, worst)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            out.append(f"{path}: expected a list of {len(expected)}")
            return out
        for i, (a, e) in enumerate(zip(actual, expected)):
            compare(a, e, tolerance, f"{path}[{i}]", out, worst)
    elif isinstance(expected, float) and not isinstance(actual, bool) \
            and isinstance(actual, (int, float)):
        rtol, atol = tolerance
        share = abs(actual - expected) / (atol + rtol * abs(expected))
        if worst is not None:
            worst[0] = max(worst[0], share)
        if not share <= 1.0:
            out.append(f"{path}: {actual!r} vs reference {expected!r}")
    elif actual != expected or type(actual) is not type(expected):
        out.append(f"{path}: {actual!r} vs reference {expected!r}")
    return out
