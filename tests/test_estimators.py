"""Fitting code checked against independent oracles.

The grid-search tests re-implement each maximand directly and verify that
no nearby parameter beats the fitted optimum; the covariance tests rebuild
the sandwich with explicit Python loops. Neither path shares code with the
estimators module beyond the fitted numbers themselves.
"""

import ast
import importlib
import inspect
import pkgutil
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rrdid.blocks
import rrdid.sandwich
from rrdid import estimators
from rrdid import io as csv_io
from rrdid import (
    DesignMatrix,
    DesignSpec,
    FitOptions,
    FitResult,
    NewtonDiagnostics,
    build_design,
    fit_logit_qmle,
    fit_multinomial_logit,
    fit_ols,
    fit_poisson_qmle,
    maximize,
    nonparametric_ror,
    nonparametric_rr,
    proportional_effect,
    RcsDataset,
    standard_error,
)
from rrdid.blocks import _as_design, _cluster_codes, _cross, _number_pairs, _unit_rows
from rrdid.errors import (
    NegativeVarianceError,
    NonFiniteObjectiveError,
    OverflowGuardError,
    SeparationError,
    SingularDesignError,
    SingularHessianError,
)
from rrdid.estimators import (_cell_basis, _cell_newton_directions, _inputs, _LOGIT,
                              _POISSON)
from rrdid.newton import _newton_directions
from rrdid.rank import _check_full_rank, _check_full_rank_qr, _gram_proves_full_rank
from rrdid.sandwich import _sandwich

from conftest import binary_cells, class_cells, fit_objective, mean_cells

TIGHT = FitOptions(gradient_tolerance=1e-13)


def poisson_data(seed=0, n=60):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.poisson(np.exp(0.3 + 0.5 * X[:, 1])).astype(float)
    w = rng.uniform(0.5, 2.0, n)
    if y.sum() == 0:  # pragma: no cover - seeds are chosen to avoid this
        y[0] = 1.0
    return X, y, w


def logit_data(seed=1, n=60):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = (rng.random(n) < 1 / (1 + np.exp(-(0.2 + 0.8 * X[:, 1])))).astype(float)
    w = rng.uniform(0.5, 2.0, n)
    return X, y, w


def multinomial_data(seed=2, n=24):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    labels = rng.integers(0, 3, n).astype(float)
    w = rng.uniform(0.5, 2.0, n)
    return X, labels, w


# --- the Newton driver ------------------------------------------------------


def test_maximize_solves_quadratic_in_one_step():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    c = np.array([1.5, -2.0])

    def objective(b):
        d = b - c
        return -0.5 * d @ A @ d, -A @ d, -A

    beta, diag = maximize(objective, np.zeros(2))
    np.testing.assert_allclose(beta, c, atol=1e-12)
    assert diag.converged
    assert diag.iterations == 1


def test_maximize_already_at_optimum():
    def objective(b):
        return -float(b @ b), -2 * b, -2 * np.eye(2)

    beta, diag = maximize(objective, np.zeros(2))
    assert diag.iterations == 0
    assert diag.converged


def test_maximize_rejects_nonfinite_start():
    def objective(b):
        return float("nan"), np.zeros(1), -np.eye(1)

    with pytest.raises(NonFiniteObjectiveError):
        maximize(objective, np.zeros(1))


def test_maximize_singular_hessian():
    def objective(b):
        return float(b[0]), np.ones(1), np.zeros((1, 1))

    with pytest.raises(SingularHessianError):
        maximize(objective, np.zeros(1))


def test_maximize_step_halving_handles_overshoot():
    # quartic bowl: the raw Newton step from far away overshoots
    def objective(b):
        x = float(b[0])
        return -x**4, np.array([-4 * x**3]), np.array([[-12 * x**2]])

    beta, diag = maximize(objective, np.array([2.0]), tolerance=1e-10)
    assert abs(beta[0]) < 1e-2
    assert diag.converged


def test_maximize_stops_where_no_step_is_acceptable():
    # the full step from 0 to 1 is accepted; from 1 every halving of the step
    # lowers the maximand, so the ascent stops at 1 after all 30 halvings,
    # and that search does not count as an iteration
    values = {0.0: 0.0, 1.0: 0.5}
    evaluated = []

    def objective(b):
        evaluated.append(float(b[0]))
        return values.get(float(b[0]), -1.0), np.ones(1), -np.eye(1)

    beta, diag = maximize(objective, np.zeros(1))
    assert beta.tolist() == [1.0]
    assert (diag.iterations, diag.step_halvings, diag.converged) == (1, 30, False)
    assert diag.value == 0.5 and diag.score_norm == 1.0
    assert evaluated == [0.0, 1.0] + [1.0 + 0.5**h for h in range(30)]


def test_maximize_stops_on_a_step_shorter_than_1e_12():
    # a flat maximand whose score stays above the tolerance: the first step,
    # of length 1e-13, is accepted and counted, and ends the ascent
    def objective(b):
        return 0.0, np.full(1, 1e-13), -np.eye(1)

    beta, diag = maximize(objective, np.zeros(1), tolerance=1e-20)
    assert beta.tolist() == [1e-13]
    assert (diag.iterations, diag.step_halvings, diag.converged) == (1, 0, False)


def test_maximize_raises_on_a_singular_hessian_after_a_step():
    # the full step to 1 is accepted, and the Hessian is singular there
    def objective(b):
        x = float(b[0])
        return -(x - 2.0)**2, np.array([-2.0 * (x - 2.0)]), np.array([[-4.0 if x == 0 else 0.0]])

    with pytest.raises(SingularHessianError):
        maximize(objective, np.zeros(1), tolerance=1e-20)


def test_maximize_refuses_a_batch_of_problems():
    def objective(b):
        return -float(b @ b), -2 * b, -2 * np.eye(2)

    with pytest.raises(ValueError, match="one problem"):
        maximize(objective, np.zeros((3, 2)))


# --- grid-search oracles: nothing nearby beats the fitted optimum -----------


def grid_around(center, half_width=0.1, step=1e-3):
    offsets = np.arange(-half_width, half_width + step / 2, step)
    g0, g1 = np.meshgrid(offsets, offsets, indexing="ij")
    return center[None, :] + np.column_stack([g0.ravel(), g1.ravel()])


def test_poisson_grid_oracle():
    X, y, w = poisson_data(seed=3, n=8)
    fit = fit_poisson_qmle(X, y, w, options=TIGHT)
    grid = grid_around(fit.coefficients)
    eta = X @ grid.T
    values = (w * y) @ eta - w @ np.exp(eta)
    best = float((w * y) @ (X @ fit.coefficients) - w @ np.exp(X @ fit.coefficients))
    assert values.max() <= best + 1e-9


def test_logit_grid_oracle():
    X, y, w = logit_data(seed=4, n=8)
    fit = fit_logit_qmle(X, y, w, options=TIGHT)
    grid = grid_around(fit.coefficients)
    eta = X @ grid.T
    values = (w * y) @ eta - w @ np.logaddexp(0.0, eta)
    eta_hat = X @ fit.coefficients
    best = float((w * y) @ eta_hat - w @ np.logaddexp(0.0, eta_hat))
    assert values.max() <= best + 1e-9


def test_multinomial_grid_oracle_intercept_only():
    rng = np.random.default_rng(5)
    X = np.ones((9, 1))
    y = np.array([0, 0, 0, 1, 1, 2, 2, 2, 1], float)
    w = rng.uniform(0.5, 2.0, 9)
    fit = fit_multinomial_logit(X, y, w, options=TIGHT)

    def loglik(b1, b2):
        eta = np.column_stack([np.full(9, b1), np.full(9, b2)])
        lse = np.log(1 + np.exp(eta).sum(axis=1))
        pick = np.where(y == 0, 0.0, np.where(y == 1, eta[:, 0], eta[:, 1]))
        return float(np.sum(w * (pick - lse)))

    best = loglik(*fit.coefficients)
    offsets = np.arange(-0.1, 0.1005, 1e-3)
    values = [
        loglik(fit.coefficients[0] + a, fit.coefficients[1] + b)
        for a in offsets
        for b in offsets[::20]
    ]
    assert max(values) <= best + 1e-9


def test_multinomial_coordinate_sweep_oracle():
    rng = np.random.default_rng(6)
    n = 40
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.integers(0, 3, n).astype(float)
    w = np.ones(n)
    fit = fit_multinomial_logit(X, y, w, options=TIGHT)
    ymat = np.column_stack([(y == 1), (y == 2)]).astype(float)

    def loglik(flat):
        eta = X @ flat.reshape(2, 2).T
        lse = np.log(1 + np.exp(eta).sum(axis=1))
        return float(np.sum(w * ((ymat * eta).sum(axis=1) - lse)))

    best = loglik(fit.coefficients)
    for j in range(4):
        for delta in np.arange(-0.1, 0.1005, 1e-3):
            probe = fit.coefficients.copy()
            probe[j] += delta
            assert loglik(probe) <= best + 1e-9


# --- derivative and first-order-condition checks ----------------------------


def central_difference(f, beta, step=1e-5):
    grad = np.zeros_like(beta)
    for j in range(beta.size):
        e = np.zeros_like(beta)
        e[j] = step
        grad[j] = (f(beta + e) - f(beta - e)) / (2 * step)
    return grad


@pytest.mark.parametrize("family", ["poisson", "logit", "multinomial", "ols"])
def test_gradient_matches_finite_differences(family):
    rng = np.random.default_rng(7)
    n = 30
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    w = rng.uniform(0.5, 2.0, n)
    if family == "poisson":
        y = rng.poisson(1.0, n).astype(float)
        obj = fit_objective("poisson_qmle", X, y, w)
        p = 3
    elif family == "logit":
        y = rng.integers(0, 2, n).astype(float)
        obj = fit_objective("logit_qmle", X, y, w)
        p = 3
    elif family == "multinomial":
        labels = rng.integers(0, 3, n)
        ymat = np.column_stack([(labels == 1), (labels == 2)]).astype(float)
        obj = fit_objective("multinomial_logit", X, ymat, w)
        p = 6
    else:
        y = rng.normal(size=n)

        def obj(b):
            resid = y - X @ b
            return (-0.5 * float(np.sum(w * resid**2)), X.T @ (w * resid),
                    -(X.T * w) @ X)

        p = 3

    for _ in range(6):
        beta = rng.normal(scale=0.4, size=p)
        _, grad, _ = obj(beta)
        fd = central_difference(lambda b: obj(b)[0], beta)
        rel = np.max(np.abs(grad - fd) / (1.0 + np.abs(fd)))
        assert rel <= 1e-6


def test_hessian_negative_definite_at_optimum():
    X, y, w = poisson_data(seed=8)
    fit = fit_poisson_qmle(X, y, w, options=TIGHT)
    _, _, hess = fit_objective("poisson_qmle", X, y, w)(fit.coefficients)
    assert np.all(np.linalg.eigvalsh(hess) < 0)

    X, y, w = logit_data(seed=9)
    fit = fit_logit_qmle(X, y, w, options=TIGHT)
    _, _, hess = fit_objective("logit_qmle", X, y, w)(fit.coefficients)
    assert np.all(np.linalg.eigvalsh(hess) < 0)

    rng = np.random.default_rng(10)
    labels = rng.integers(0, 3, 50)
    Xm = np.column_stack([np.ones(50), rng.normal(size=50)])
    fit = fit_multinomial_logit(Xm, labels.astype(float), options=TIGHT)
    ymat = np.column_stack([(labels == 1), (labels == 2)]).astype(float)
    _, _, hess = fit_objective("multinomial_logit", Xm, ymat, np.ones(50))(fit.coefficients)
    assert np.all(np.linalg.eigvalsh(hess) < 0)


def test_first_order_condition_residual():
    X, y, w = poisson_data(seed=11)
    fit = fit_poisson_qmle(X, y, w)
    mu = np.exp(X @ fit.coefficients)
    score = X.T @ (w * (y - mu))
    assert np.max(np.abs(score)) <= 1e-8 * (1 + w.sum())

    X, y, w = logit_data(seed=12)
    fit = fit_logit_qmle(X, y, w)
    p = 1 / (1 + np.exp(-(X @ fit.coefficients)))
    score = X.T @ (w * (y - p))
    assert np.max(np.abs(score)) <= 1e-8 * (1 + w.sum())


# --- sandwich covariance against a looped reimplementation ------------------


def looped_sandwich(X, scores_rows, bread, clusters=None):
    if clusters is None:
        groups = [[i] for i in range(X.shape[0])]
    else:
        groups = [list(np.flatnonzero(np.asarray(clusters) == g))
                  for g in dict.fromkeys(clusters)]
    k = bread.shape[0]
    meat = np.zeros((k, k))
    for rows in groups:
        s = np.zeros(k)
        for i in rows:
            s += scores_rows[i]
        meat += np.outer(s, s)
    inv = np.linalg.inv(bread)
    return inv @ meat @ inv


def _covariate_design(seed, outcome):
    """(design, y, w): a DesignMatrix with the trend, a covariate x and its
    treat:x interaction, so its sandwich has cell x row and row x row blocks;
    outcome(rng, x) draws y."""
    rng = np.random.default_rng(seed)
    n = 96
    q, t = np.arange(n) % 2, np.arange(n) // 2 % 4
    x, w = rng.normal(size=n), rng.uniform(0.5, 2.0, n)
    data = RcsDataset(y=outcome(rng, x), q=q, t=t, covariates={"x": x})
    design = build_design(data, DesignSpec(post_period=2, include_group_trend=True,
                                           heterogeneous_covariates=("x",)))
    assert design.row_values.shape[1] == 2
    return design, data.y, w


def _loop_cases(plain, clusters, outcome, seed):
    """The plain array (X, y, w) with and without clusters, then a covariate
    design with and without 5 clusters: (X for the loops, design for the
    fit, y, w, clusters)."""
    X, y, w = plain
    design, dy, dw = _covariate_design(seed, outcome)
    return [(X, X, y, w, None), (X, X, y, w, clusters),
            (design.values, design, dy, dw, None),
            (design.values, design, dy, dw, np.arange(dy.size) % 5)]


def test_poisson_sandwich_matches_loops():
    # on a DesignMatrix the cell x row and row x row blocks of the meat come
    # from cell sums and _cross, which the loops form row by row
    cases = _loop_cases(poisson_data(seed=13, n=10), np.array([0, 0, 0, 1, 1, 1, 2, 2, 3, 3]),
                        lambda rng, x: rng.poisson(np.exp(0.3 + 0.4 * x)).astype(float), 15)
    for X, design, y, w, clusters in cases:
        fit = fit_poisson_qmle(design, y, w, clusters=clusters, options=TIGHT)
        if clusters is None:
            unclustered = fit
        else:  # each clustered case follows its unclustered one
            np.testing.assert_array_equal(fit.coefficients, unclustered.coefficients)
        mu = np.exp(X @ fit.coefficients)
        scores = (w * (y - mu))[:, None] * X
        bread = sum(w[i] * mu[i] * np.outer(X[i], X[i]) for i in range(len(y)))
        expected = looped_sandwich(X, scores, bread, clusters)
        np.testing.assert_allclose(fit.vcov, expected, rtol=1e-10, atol=1e-14)
        assert fit.vcov_kind == ("sandwich" if clusters is None else "cluster_sandwich")


def _softmax_sandwich_cases(family):
    """(X, y, w) of a plain array, then of DesignMatrix designs of cell columns
    alone and with a covariate (a row column): with one contrast class for
    the logit, two and three for the multinomial. Every cell holds every
    class, so each fit has a finite optimum."""
    if family == "logit_qmle":
        cases, contrasts = [logit_data(seed=18, n=20)], (1,)
    else:
        cases, contrasts = [multinomial_data(seed=19)], (2, 3)
    rng = np.random.default_rng(20)
    n = 96
    q, t = np.arange(n) % 2, np.arange(n) // 2 % 3
    x, w = rng.normal(size=n), rng.uniform(0.5, 2.0, n)
    for n_classes in contrasts:
        y = rng.permutation(np.arange(n) // 6 % (n_classes + 1)).astype(float)
        for covariates in ({}, {"x": x}):
            data = RcsDataset(y=y, q=q, t=t, covariates=covariates)
            design = build_design(data, DesignSpec(post_period=2))
            assert (design.row_values.shape[1] > 0) == bool(covariates)
            assert all(np.unique(y[design.cells == cell]).size == n_classes + 1
                       for cell in np.unique(design.cells))
            cases.append((design, y, w))
    return cases


@pytest.mark.parametrize("clustered", [False, True])
@pytest.mark.parametrize("family", ["logit_qmle", "multinomial_logit"])
def test_logit_and_multinomial_sandwich_match_loops(family, clustered):
    # a binary logit is the multinomial with one contrast class, so one loop
    # over classes builds both families' scores and bread; a DesignMatrix
    # fit takes its cell columns' sandwich blocks from cell and (cluster,
    # cell) sums, which the loops form row by row from the dense design
    fitter = fit_logit_qmle if family == "logit_qmle" else fit_multinomial_logit
    for design, y, w in _softmax_sandwich_cases(family):
        X = design.values if isinstance(design, DesignMatrix) else design
        n, p = X.shape
        clusters = np.arange(n) % 5 if clustered else None
        fit = fitter(design, y, w, clusters=clusters, options=TIGHT)
        blocks = fit.coefficients.reshape(-1, p)
        k = fit.coefficients.size
        scores = np.zeros((n, k))
        bread = np.zeros((k, k))
        for i in range(n):
            expo = [np.exp(X[i] @ b) for b in blocks]
            probs = [e / (1.0 + sum(expo)) for e in expo]
            for c in range(len(blocks)):
                hit = 1.0 if y[i] == c + 1 else 0.0
                scores[i, c * p:(c + 1) * p] = w[i] * (hit - probs[c]) * X[i]
                for d in range(len(blocks)):
                    bread[c * p:(c + 1) * p, d * p:(d + 1) * p] += (
                        w[i] * probs[c] * ((c == d) - probs[d]) * np.outer(X[i], X[i])
                    )
        expected = looped_sandwich(X, scores, bread, clusters)
        np.testing.assert_allclose(fit.vcov, expected, rtol=1e-10, atol=1e-14)


def test_ols_sandwich_matches_loops():
    rng = np.random.default_rng(14)
    n = 12
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.normal(size=n)
    w = rng.uniform(0.5, 2.0, n)
    cases = _loop_cases((X, y, w), np.repeat([0, 1, 2, 3], 3),
                        lambda rng, x: 1.0 + 0.5 * x + rng.normal(size=x.size), 16)
    for X, design, y, w, clusters in cases:
        fit = fit_ols(design, y, w, clusters=clusters)
        if clusters is None:
            unclustered = fit
        else:  # each clustered case follows its unclustered one
            np.testing.assert_array_equal(fit.coefficients, unclustered.coefficients)
        resid = y - X @ fit.coefficients
        scores = (w * resid)[:, None] * X
        bread = (X.T * w) @ X
        np.testing.assert_allclose(
            fit.vcov, looped_sandwich(X, scores, bread, clusters), rtol=1e-10, atol=1e-14
        )
        assert fit.vcov_kind == ("sandwich" if clusters is None else "cluster_sandwich")


@pytest.mark.parametrize("case, message", [("weights", "weights"), ("outcome", "non-finite")])
def test_fit_validates_weights_and_outcome(case, message):
    X, y, w = poisson_data(seed=16, n=10)
    if case == "weights":
        w = -w
    else:
        y = np.full_like(y, np.nan)
    with pytest.raises(ValueError, match=message):
        fit_poisson_qmle(X, y, w)


def test_weight_duplication_equivalence():
    X, y, w = poisson_data(seed=17, n=12)
    clusters = np.arange(12) // 3
    dup = slice(8, 12)
    X2 = np.vstack([X, X[dup]])
    y2 = np.concatenate([y, y[dup]])
    c2 = np.concatenate([clusters, clusters[dup]])
    w1 = w.copy()
    w1[dup] = 2 * w[dup]
    w2 = np.concatenate([w, w[dup]])

    a = fit_poisson_qmle(X, y, w1, clusters=clusters, options=TIGHT)
    b = fit_poisson_qmle(X2, y2, w2, clusters=c2, options=TIGHT)
    assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-10
    assert np.max(np.abs(a.vcov - b.vcov)) <= 1e-10

    Xl, yl, wl = logit_data(seed=18, n=12)
    wl1 = wl.copy()
    wl1[dup] = 2 * wl[dup]
    a = fit_logit_qmle(Xl, yl, wl1, clusters=clusters, options=TIGHT)
    b = fit_logit_qmle(np.vstack([Xl, Xl[dup]]), np.concatenate([yl, yl[dup]]),
                       np.concatenate([wl, wl[dup]]), clusters=c2, options=TIGHT)
    assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-10
    assert np.max(np.abs(a.vcov - b.vcov)) <= 1e-10


# --- least squares ----------------------------------------------------------


def test_ols_matches_lstsq():
    rng = np.random.default_rng(19)
    n = 25
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=n)
    w = rng.uniform(0.5, 2.0, n)
    fit = fit_ols(X, y, w)
    sw = np.sqrt(w)
    expected, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    np.testing.assert_allclose(fit.coefficients, expected, rtol=1e-12)
    assert fit.converged


def test_ols_classical_variance_formula():
    rng = np.random.default_rng(20)
    n = 30
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.normal(size=n)
    w = rng.uniform(0.5, 2.0, n)
    fit = fit_ols(X, y, w, robust=False)
    resid = y - X @ fit.coefficients
    sigma2 = np.sum(w * resid**2) / (w.sum() - 2)
    expected = sigma2 * np.linalg.inv((X.T * w) @ X)
    np.testing.assert_allclose(fit.vcov, expected, rtol=1e-12)
    assert fit.vcov_kind == "classical_ols"


def test_ols_classical_variance_refuses_clusters():
    X, y, w = poisson_data(seed=21, n=20)
    with pytest.raises(ValueError, match="clustered"):
        fit_ols(X, y, w, clusters=np.arange(20) % 4, robust=False)


def test_newton_diagnostics_count_step_halvings():
    # from beta = 0 the first Newton step on a mean of 200 overshoots far past
    # the cap, so the fit must halve it; least squares takes one full step
    X = np.column_stack([np.ones(6), [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]])
    y = np.array([190.0, 210.0, 205.0, 195.0, 200.0, 230.0])
    fit = fit_poisson_qmle(X, y)
    assert fit.converged and fit.step_halvings > 0
    np.testing.assert_allclose(fit.max_abs_eta, np.log(y[1::2].mean()), rtol=1e-12)
    _, diag = maximize(fit_objective("poisson_qmle", X, y, np.ones(6)), np.zeros(2))
    assert diag.step_halvings == fit.step_halvings
    ols = fit_ols(X, y)
    assert ols.step_halvings == 0
    np.testing.assert_allclose(ols.max_abs_eta, y[1::2].mean(), rtol=1e-12)


def test_ols_double_difference_on_saturated_cells():
    data = mean_cells(1.0, 2.0, 3.0, 7.0, spread=0.0)
    m = build_design(data, DesignSpec(post_period=1))
    fit = fit_ols(m, data.y, data.weights)
    assert fit.coef("treat") == pytest.approx((7 - 3) - (2 - 1), abs=1e-10)


# --- saturated-model equivalences -------------------------------------------


def test_poisson_treat_equals_nonparametric_rr():
    data = mean_cells(1.2, 0.9, 2.5, 4.0)
    m = build_design(data, DesignSpec(post_period=1))
    fit = fit_poisson_qmle(m, data.y, data.weights, options=TIGHT)
    rr = nonparametric_rr(data, post_period=1)
    assert np.exp(fit.coef("treat")) == pytest.approx(rr, rel=1e-10)
    assert rr == pytest.approx((4.0 / 2.5) / (0.9 / 1.2), rel=1e-12)


def test_logit_treat_equals_nonparametric_ror():
    data = binary_cells(0.2, 0.25, 0.4, 0.7)
    m = build_design(data, DesignSpec(post_period=1))
    fit = fit_logit_qmle(m, data.y, data.weights, options=TIGHT)
    ror = nonparametric_ror(data, post_period=1)
    assert np.exp(fit.coef("treat")) == pytest.approx(ror, rel=1e-10)


def test_multinomial_treat_equals_class_ror():
    table = {
        (0, 0): (0.5, 0.3, 0.2),
        (0, 1): (0.4, 0.35, 0.25),
        (1, 0): (0.45, 0.25, 0.3),
        (1, 1): (0.3, 0.45, 0.25),
    }
    data = class_cells(table)
    m = build_design(data, DesignSpec(post_period=1))
    fit = fit_multinomial_logit(m, data.y, data.weights, options=TIGHT)
    for c in (1, 2):
        ror = nonparametric_ror(data, post_period=1, class_c=c)
        assert np.exp(fit.coef(f"treat[{c}]")) == pytest.approx(ror, rel=1e-8)


@pytest.mark.parametrize("fitter, mean", [
    (fit_poisson_qmle, np.exp),
    (fit_logit_qmle, lambda eta: 1.0 / (1.0 + np.exp(-eta))),
    (fit_ols, lambda eta: eta),
])
def test_treat_pools_every_period_from_post(fitter, mean):
    # noise-free cell means over 5 periods with a 0.4 effect from period 2
    # on: treat marks t >= post, so the fit recovers the effect exactly
    q, t = np.repeat([0, 1], 5), np.tile(np.arange(5), 2)
    period_effect = np.array([0.0, 0.2, -0.1, 0.3, 0.1])
    eta = -0.8 + period_effect[t] + 0.3 * q + 0.4 * q * (t >= 2)
    data = RcsDataset(y=mean(eta), q=q, t=t)
    m = build_design(data, DesignSpec(post_period=2))
    options = {} if fitter is fit_ols else {"options": TIGHT}
    assert fitter(m, data.y, **options).coef("treat") == pytest.approx(0.4, abs=1e-9)


@pytest.mark.parametrize("covariate", [False, True])
@pytest.mark.parametrize("weighted, clustered", [(False, False), (True, False), (True, True)])
def test_logit_is_the_one_class_multinomial(covariate, weighted, clustered):
    # on 0/1 outcomes the logit and the two-category multinomial run the
    # same arithmetic, on the design's cells or (with a covariate, a row
    # column) its rows
    rng = np.random.default_rng(17)
    n = 300
    q, t = rng.integers(0, 2, n), rng.integers(0, 3, n)
    x = rng.normal(size=n)
    eta = -0.3 + 0.4 * t + 0.5 * q + 0.6 * q * (t == 2) + 0.7 * x
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    w = rng.uniform(0.5, 2.0, n) if weighted else None
    clusters = rng.integers(0, 20, n) if clustered else None
    data = RcsDataset(y=y, q=q, t=t, covariates={"x": x} if covariate else {})
    m = build_design(data, DesignSpec(post_period=2))
    assert (m.row_values.shape[1] > 0) == covariate
    logit = fit_logit_qmle(m, y, w, clusters)
    multinomial = fit_multinomial_logit(m, y, w, clusters)
    np.testing.assert_array_equal(logit.coefficients, multinomial.coefficients)
    np.testing.assert_array_equal(logit.vcov, multinomial.vcov)
    assert logit.loglik == multinomial.loglik
    assert logit.iterations == multinomial.iterations


# --- failure modes ----------------------------------------------------------


def test_poisson_rejects_all_zero_outcome():
    X = np.column_stack([np.ones(6), np.arange(6.0)])
    with pytest.raises(OverflowGuardError):
        fit_poisson_qmle(X, np.zeros(6))


def test_poisson_rejects_negative_outcome():
    X = np.ones((4, 1))
    with pytest.raises(ValueError, match="non-negative"):
        fit_poisson_qmle(X, np.array([1.0, -1.0, 2.0, 3.0]))


def test_logit_rejects_out_of_range_outcome():
    X = np.ones((3, 1))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        fit_logit_qmle(X, np.array([0.0, 0.5, 1.5]))


def test_logit_detects_separation():
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    X = np.column_stack([np.ones(6), x])
    y = (x > 0).astype(float)
    with pytest.raises(SeparationError):
        fit_logit_qmle(X, y)


@pytest.mark.parametrize("units", ["rows", "cells"])
@pytest.mark.parametrize("fit, outcome, error", [
    (fit_poisson_qmle, 0.0, OverflowGuardError),  # no visits in the treated post cell
    (fit_logit_qmle, 1.0, SeparationError),       # every treated post row a success
], ids=["poisson", "logit"])
def test_capped_fit_keeps_its_verdict(monkeypatch, units, fit, outcome, error):
    # the treat coefficient diverges, and at a tolerance the vanishing score
    # of that cell cannot meet the Newton reaches the cap, where the
    # maximand is sum w (y eta - b(eta)) at the capped eta; the fit still
    # raises its error, on a plain array's rows and on a cell design's cells
    rng = np.random.default_rng(12)
    q, t = np.repeat([0, 1], 40), np.tile(np.repeat([0, 1], 20), 2)
    y = rng.integers(0, 2, 80).astype(float)
    y[(q == 1) & (t == 1)] = outcome
    data = RcsDataset(y=y, q=q, t=t, weights=rng.uniform(0.5, 2.0, 80))
    design = build_design(data, DesignSpec(post_period=1))
    capped = []
    evaluate = estimators._evaluate

    def spy(family, blocks, y, w, xwy, beta):
        out = evaluate(family, blocks, y, w, xwy, beta)
        if out[3] >= estimators._CAP:
            eta = np.clip(_unit_rows(blocks) @ beta, -estimators._CAP, estimators._CAP)
            b = np.exp(eta) if fit is fit_poisson_qmle else np.logaddexp(0.0, eta)
            expected = np.sum(w * (y[0] * eta - b))
            capped.append(abs(out[0] - expected) / (1.0 + abs(expected)))
        return out

    monkeypatch.setattr(estimators, "_evaluate", spy)
    with pytest.raises(error):
        fit(design.values if units == "rows" else design, y, data.weights,
            options=FitOptions(gradient_tolerance=1e-16))
    assert capped and max(capped) < 1e-13, capped


@pytest.mark.parametrize("eta, converged, outcome", [
    (30.0 * (1 - 1e-9), False, SeparationError),  # stalled against the clamp, below it
    (30.0 + 1e-9, False, SeparationError),         # stalled against the clamp, past it
    (30.0 * (1 - 1e-9), True, FitResult),          # a converged fit keeps the exact cap
    (29.9, False, FitResult),                      # not converged, away from the cap
])
def test_fit_stalled_at_the_cap_diverged(monkeypatch, eta, converged, outcome):
    # a dense and a cell-sum fit of one diverging model stall a rounding
    # error apart, on either side of the cap; both must give one verdict
    def stalled(objective, init, options, tolerance):
        return np.array([eta]), NewtonDiagnostics(5, converged, 1e-3, -1.0, np.array([[-1.0]]), 0)

    monkeypatch.setattr(estimators, "maximize", stalled)
    try:
        result = fit_logit_qmle(np.ones((4, 1)), np.array([0.0, 1.0, 0.0, 1.0]))
    except SeparationError as err:
        result = err
    assert type(result) is outcome
    if outcome is FitResult:
        assert result.converged is converged
        assert result.max_abs_eta == eta


def test_row_fit_scores_once_per_evaluation(monkeypatch):
    # the fitted means come from the Newton's last evaluation, at beta, and
    # not from one more pass over the rows
    rng = np.random.default_rng(23)
    X = np.column_stack([np.ones(200), rng.normal(size=200)])
    y = rng.poisson(np.exp(0.3 + 0.5 * X[:, 1])).astype(float)
    passes, evaluations = [], []
    evaluate = estimators._evaluate

    def counted_evaluate(*args):
        passes.append(args[-1])
        return evaluate(*args)

    def counted_newton(objective, *args, **kwargs):
        def counted(beta):
            evaluations.append(beta)
            return objective(beta)
        return maximize(counted, *args, **kwargs)

    monkeypatch.setattr(estimators, "_evaluate", counted_evaluate)
    monkeypatch.setattr(estimators, "maximize", counted_newton)
    fit = fit_poisson_qmle(X, y)
    assert fit.converged and len(evaluations) > 1
    assert len(passes) == len(evaluations)
    # least squares takes one pass, at its solution: the Gaussian Hessian
    # does not depend on beta
    passes.clear()
    assert fit_ols(X, y).converged
    assert len(passes) == 1


def test_logit_accepts_fractional_outcomes():
    rng = np.random.default_rng(21)
    X = np.column_stack([np.ones(40), rng.normal(size=40)])
    y = rng.uniform(0.05, 0.95, 40)
    fit = fit_logit_qmle(X, y)
    assert fit.converged


def test_multinomial_detects_separation():
    x = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    X = np.column_stack([np.ones(6), x])
    y = (x > 0).astype(float)  # class fully determined by x
    with pytest.raises(SeparationError):
        fit_multinomial_logit(X, y)


def test_multinomial_requires_all_classes_observed():
    X = np.ones((5, 1))
    with pytest.raises(ValueError, match=r"never observed: \[1\]$"):
        fit_multinomial_logit(X, np.array([0.0, 0.0, 2.0, 2.0, 2.0]))
    # a huge label is checked without a table of every class, and one past
    # int64 is not cast to a negative class
    with pytest.raises(ValueError,
                       match=r"never observed: \[1, 3, 4, .*, 21\] and 999999999978 more$"):
        fit_multinomial_logit(X, np.array([0.0, 0.0, 2.0, 2.0, 1e12]))
    with pytest.raises(ValueError,
                       match=r"never observed: \[2, 3, .*, 21\] and 9999999999999999978 more$"):
        fit_multinomial_logit(X, np.array([0.0, 1.0, 1.0, 1.0, 1e19]))
    with pytest.raises(ValueError, match="at least 2"):
        fit_multinomial_logit(X, np.zeros(5))
    with pytest.raises(ValueError, match="integer"):
        fit_multinomial_logit(X, np.array([0.0, 1.0, 0.5, 1.0, 0.0]))


def test_singular_design_names_columns():
    rng = np.random.default_rng(22)
    x = rng.normal(size=10)
    X = np.column_stack([np.ones(10), x, 2 * x])
    with pytest.raises(SingularDesignError) as info:
        fit_ols(X, rng.normal(size=10))
    # x2 = 2 x1 lies in the span of the columns before it; x1 does not
    assert info.value.columns == ("x2",)


def test_nonconverged_fit_reports_nan_vcov():
    X, y, w = poisson_data(seed=23)
    fit = fit_poisson_qmle(X, y, w, options=FitOptions(gradient_tolerance=1e-15,
                                                       max_iterations=1))
    assert not fit.converged
    assert np.isnan(fit.vcov).all()


@pytest.mark.parametrize("case, message", [
    ("outcome", "log-likelihood"), ("weights", "outer product"), ("clusters", "outer product"),
    ("classical", "classical covariance")])
def test_overflowing_moments_raise_without_warnings(case, message):
    # finite inputs whose residual moments overflow: y up to 1e200 overflows
    # sum w e^2, weights of 1e20 on e near 1e140 only the sandwich's
    # sum (w e)^2 x x', and a design scaled by 1e-10 the classical variance;
    # any numpy warning fails the test
    rng = np.random.default_rng(1)
    X = np.column_stack([np.ones(40), rng.integers(0, 2, 40)])
    y, w = rng.normal(size=40) * 1e140, np.full(40, 1e20)
    with pytest.raises(NonFiniteObjectiveError, match=message):
        if case == "outcome":
            fit_ols(X, rng.uniform(0, 1, 40) * 10.0 ** rng.integers(190, 201, 40))
        elif case == "classical":
            fit_ols(X * 1e-10, y * 1e10, robust=False)
        else:
            fit_ols(X, y, w, clusters=np.arange(40) % 5 if case == "clusters" else None)


def test_saturated_ols_standard_errors_clip_round_off():
    # four rows in four cells: the residuals, and so the sandwich, are round-off,
    # and some variances come out a hair below zero
    rng = np.random.default_rng(0)
    negative = 0
    for _ in range(100):
        data = RcsDataset(y=np.round(rng.uniform(-5, 5, 4), 1), q=[0, 0, 1, 1], t=[0, 1, 0, 1],
                          weights=np.round(rng.uniform(0.5, 3, 4), 1))
        fit = fit_ols(build_design(data, DesignSpec(post_period=1)), data.y, data.weights)
        variances = np.diag(fit.vcov)
        assert np.max(np.abs(variances)) < 1e-26
        negative += variances.min() < 0
        assert [fit.se(name) for name in fit.names] == np.sqrt(np.maximum(variances, 0)).tolist()
    assert negative


def test_standard_error_clips_round_off_and_rejects_negative_variances():
    assert standard_error(4.0, 4.0) == 2.0
    assert standard_error(-5e-48, 2e-30) == 0.0
    assert np.isnan(standard_error(float("nan"), 1.0))
    with pytest.raises(NegativeVarianceError):
        standard_error(-1e-3, 1.0)
    fit = FitResult(family="poisson_qmle", names=("a", "b"), coefficients=[0.1, 0.2],
                    vcov=[[-0.5, 0.0], [0.0, 1.0]], vcov_kind="sandwich", loglik=0.0,
                    iterations=1, converged=True, score_norm=0.0, n_obs=4)
    with pytest.raises(NegativeVarianceError):
        fit.se("a")
    with pytest.raises(NegativeVarianceError):
        proportional_effect(fit, {"a": 1.0, "b": 0.1})
    tiny = FitResult(family="poisson_qmle", names=("a", "b"), coefficients=[0.1, 0.2],
                     vcov=[[-1e-20, 0.0], [0.0, 1.0]], vcov_kind="sandwich", loglik=0.0,
                     iterations=1, converged=True, score_norm=0.0, n_obs=4)
    assert tiny.se("a") == 0.0
    assert proportional_effect(tiny, "a").se_beta == 0.0


def test_t_value_edge_cases():
    fit = FitResult(family="ols", names=("a", "b"), coefficients=[0.0, 2.0],
                    vcov=np.zeros((2, 2)), vcov_kind="sandwich", loglik=0.0,
                    iterations=0, converged=True, score_norm=0.0, n_obs=4)
    assert np.isnan(fit.t_value("a"))
    assert fit.t_value("b") == np.inf
    with pytest.raises(ValueError, match="unknown coefficient"):
        fit.coef("c")


@pytest.mark.parametrize("ids", ["string", "integer"])
def test_cluster_sum_matches_per_cluster_loop(ids):
    rng = np.random.default_rng(8)
    scores = rng.normal(size=(300, 4))
    codes = rng.integers(0, 17, 300)
    clusters = np.array([f"psu-{c}" for c in codes]) if ids == "string" else 7 * codes - 40
    totals = {}
    for label, row in zip(clusters.tolist(), scores):
        totals[label] = totals.get(label, 0.0) + row
    expected = np.array([totals[label] for label in sorted(totals)])
    codes, n_clusters = _cluster_codes(clusters)
    sums = np.column_stack([np.bincount(codes, weights=col, minlength=n_clusters)
                            for col in scores.T])
    np.testing.assert_array_equal(sums, expected)


def _package_modules_binding(name):
    """Every module of the rrdid package that binds name."""
    modules = [importlib.import_module(f"rrdid.{info.name}")
               for info in pkgutil.iter_modules(rrdid.__path__)]
    return [module for module in modules if hasattr(module, name)]


def _unique_pairs(keys, size):
    pairs, pair = np.unique(keys, return_inverse=True)
    return pairs, pair.reshape(-1)


@pytest.mark.parametrize("n_clusters, table", [(150, False), (12, True)])
def test_pair_numbering_matches_unique(monkeypatch, n_clusters, table):
    # 16 cells: many clusters make more (cluster, cell) keys than rows and keep
    # np.unique; few clusters number their keys through the presence table,
    # some of whose keys no row takes
    rng = np.random.default_rng(29)
    n, n_periods = 300, 8
    q, t, x = rng.integers(0, 2, n), rng.integers(0, n_periods, n), rng.normal(size=n)
    y = rng.poisson(np.exp(0.2 + 0.1 * t + 0.3 * q + 0.2 * x)).astype(float)
    w = rng.uniform(0.5, 2.0, n)
    clusters = np.array([f"psu-{c}" for c in rng.integers(0, n_clusters, n)])
    m = build_design(RcsDataset(y=y, q=q, t=t, covariates={"x": x}, n_periods=n_periods),
                     DesignSpec(post_period=4, include_group_trend=True))
    (cell, _, index), _ = _as_design(m)
    codes, groups = _cluster_codes(clusters)
    keys, size = codes * cell.shape[0] + index, groups * cell.shape[0]
    assert (size <= n) == table
    pairs, pair = _number_pairs(keys, size)
    expected = _unique_pairs(keys, size)
    assert pairs.size < size
    for got, want in zip((pairs, pair), expected):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    fit = fit_poisson_qmle(m, y, w, clusters=clusters, options=TIGHT)
    # every package module that binds the name, so that none keeps the real
    # one; blocks (the cluster codes), sandwich (the clustered meat's
    # (cluster, cell) keys) and estimators (the class-label units' keys) call it
    modules = _package_modules_binding("_number_pairs")
    assert {rrdid.blocks, rrdid.sandwich, estimators} <= set(modules)
    for module in modules:
        assert module._number_pairs is _number_pairs, module.__name__
        monkeypatch.setattr(module, "_number_pairs", _unique_pairs)
    reference = fit_poisson_qmle(m, y, w, clusters=clusters, options=TIGHT)
    assert fit.vcov_kind == "cluster_sandwich"
    assert fit.vcov.tobytes() == reference.vcov.tobytes()


def test_cluster_codes_survive_a_hash_collision(monkeypatch):
    # with every multiplier 1 the hash of a label this short is its word,
    # whose top bits are 0, so every row falls into one bucket in every
    # table: each table codes its owner's label alone, and the labels left
    # after the last table go to np.unique
    labels = np.array([b"ab", b"ba", b"c", b"ab", b"d", b"ba", b"e", b"ab", b"c"])
    expected = np.unique(labels, return_inverse=True)[1].reshape(-1)
    monkeypatch.setattr(csv_io, "_odd_multipliers", lambda count, salt: np.ones(count, np.uint64))
    unique, distinct_labels = np.unique, csv_io._distinct_labels
    uniques, tables = [], []

    def counted_unique(values, **kwargs):
        uniques.append(np.asarray(values).dtype.kind)
        return unique(values, **kwargs)

    def counted_tables(labels, salt=0):
        tables.append(labels.size)
        return distinct_labels(labels, salt)

    monkeypatch.setattr(np, "unique", counted_unique)
    monkeypatch.setattr(csv_io, "_distinct_labels", counted_tables)
    distinct, inverse = csv_io._distinct_labels(labels)
    assert len(tables) == csv_io._CODE_TABLES and tables[0] == labels.size
    assert tables == sorted(tables, reverse=True) and uniques == ["S"]
    np.testing.assert_array_equal(distinct[inverse], labels)
    assert sorted(distinct.tolist()) == [b"ab", b"ba", b"c", b"d", b"e"]
    # the CSV loader's coder, on the same labels' UTF-8 bytes padded with spaces
    uniques.clear()
    np.testing.assert_array_equal(csv_io._code_clusters(np.char.add(b" ", labels)), expected)
    assert uniques == ["S", "U"]


def test_cluster_length_mismatch():
    # checked with the inputs: also when the fit stops before converging,
    # whose covariance is NaN, and for a 2-d array of n rows
    X, y, w = poisson_data(seed=24, n=10)
    for clusters, options in [(np.zeros(9), FitOptions()),
                              (np.zeros(9), FitOptions(max_iterations=1)),
                              (np.zeros((10, 2)), FitOptions())]:
        with pytest.raises(ValueError, match="clusters must match"):
            fit_poisson_qmle(X, y, w, clusters=clusters, options=options)


@given(st.floats(0.1, 10.0))
@settings(max_examples=20, deadline=None)
def test_weight_scale_invariance(scale):
    X, y, w = poisson_data(seed=25, n=20)
    a = fit_poisson_qmle(X, y, w, options=TIGHT)
    b = fit_poisson_qmle(X, y, w * scale, options=TIGHT)
    np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-9)


# --- rank check: Gram eigenvalues first, then the QR for the close calls -------------------


@st.composite
def rank_designs(draw):
    """(X, weights): random designs with duplicated, scaled-copy, nearly collinear,
    zero and badly scaled columns."""
    n, p = draw(st.integers(2, 60)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [rng.standard_normal(n)]
    for _ in range(p - 1):
        kind = draw(st.sampled_from(["fresh", "ones", "duplicate", "scaled", "near",
                                     "zero", "rescaled"]))
        base = columns[draw(st.integers(0, len(columns) - 1))]
        if kind == "fresh":
            columns.append(rng.standard_normal(n))
        elif kind == "ones":
            columns.append(np.ones(n))
        elif kind == "duplicate":
            columns.append(base.copy())
        elif kind == "scaled":
            columns.append(base * draw(st.sampled_from([2.0, -0.5, 3.7, 1e-3, 1e6])))
        elif kind == "near":
            noise = draw(st.sampled_from([1e-15, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3]))
            columns.append(base + noise * rng.standard_normal(n))
        elif kind == "zero":
            columns.append(np.zeros(n))
        else:
            columns.append(rng.standard_normal(n) * 10.0 ** draw(st.integers(-9, 9)))
    order = draw(st.permutations(range(p)))
    weights = np.ones(n) if draw(st.booleans()) else rng.uniform(0.1, 10.0, n)
    return np.column_stack([columns[j] for j in order]), weights


def _rank_decision(check, *args):
    try:
        check(*args)
    except SingularDesignError as exc:
        return exc.columns
    return None


def _prefix_rank_names(weighted, names):
    """The columns, in order, that leave np.linalg.matrix_rank of the dense
    leading columns unchanged, at the tolerance of the whole matrix (None:
    no such column)."""
    tol = max(weighted.shape) * np.finfo(float).eps * np.linalg.norm(weighted, 2)
    ranks = [0] + [np.linalg.matrix_rank(weighted[:, :k], tol=tol)
                   for k in range(1, weighted.shape[1] + 1)]
    return tuple(name for j, name in enumerate(names) if ranks[j + 1] <= ranks[j]) or None


def _pivoted_qr_deficiency(weighted):
    """How many columns the pivoted QR finds redundant, at its cutoff
    max(n, p) eps |r_00|."""
    r = scipy.linalg.qr(weighted, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    cutoff = max(weighted.shape) * np.finfo(float).eps * diag[0]
    return weighted.shape[1] - int(np.sum(diag > cutoff))


@settings(max_examples=300, deadline=None)
@given(rank_designs())
def test_rank_check_counts_as_matrix_rank(design):
    X, w = design
    names = [f"x{j}" for j in range(X.shape[1])]
    weighted = X * np.sqrt(w)[:, None]
    named = _rank_decision(_check_full_rank, _as_design(X)[0], w, names)
    assert len(named or ()) == X.shape[1] - np.linalg.matrix_rank(weighted)
    assert named == _prefix_rank_names(weighted, names)


def _rank_case(kind, n_periods, n, seed):
    """Random rows over the (group, period) cells and a covariate x that is
    fresh, collinear with cell columns (t*q; the constant 3; t) or nearly so."""
    rng = np.random.default_rng(seed)
    q, t = rng.integers(0, 2, n), rng.integers(0, n_periods, n)
    x = {"fresh": rng.normal(size=n), "tq": t * q, "three": np.full(n, 3.0), "t": t,
         "near": t + 1e-9 * rng.normal(size=n)}.get(kind)
    return RcsDataset(y=np.ones(n), q=q, t=t, covariates={} if x is None else {"x": x},
                      n_periods=n_periods)


@st.composite
def rank_check_designs(draw):
    """(design, weights): a build_design design with or without trend, period
    dummies and treat:x, some cells possibly empty, and random weights."""
    n_periods = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["none", "fresh", "tq", "three", "t", "near"]))
    data = _rank_case(kind, n_periods, draw(st.integers(4, 60)), draw(st.integers(0, 2**32 - 1)))
    hetero = ("x",) if kind != "none" and draw(st.booleans()) else ()
    spec = DesignSpec(post_period=draw(st.integers(1, n_periods - 1)),
                      include_period_dummies=draw(st.booleans()),
                      include_group_trend=draw(st.booleans()), heterogeneous_covariates=hetero)
    weights = np.random.default_rng(data.n).uniform(0.1, 10.0, data.n)
    return build_design(data, spec), weights if draw(st.booleans()) else np.ones(data.n)


@settings(max_examples=300, deadline=None)
@given(rank_check_designs())
def test_block_rank_check_decides_as_the_dense_qr(case):
    # the check reads the design's cell and row blocks; the references are
    # the pivoted QR of the dense weighted rows, for whether and how many
    # columns are redundant, and the ranks of their leading columns, for which
    design, w = case
    names = list(design.column_names)
    weighted = design.values * np.sqrt(w)[:, None]
    named = _rank_decision(_check_full_rank, _as_design(design)[0], w, names)
    assert len(named or ()) == _pivoted_qr_deficiency(weighted)
    assert named == _prefix_rank_names(weighted, names)


@pytest.mark.parametrize("kind, trend, named", [("tq", True, ("x",)), ("three", False, ("x",)),
                                                ("near", False, None)])
def test_block_rank_check_names_the_qr_columns(kind, trend, named):
    design = build_design(_rank_case(kind, 3, 200, 0),
                          DesignSpec(post_period=2, include_group_trend=trend))
    blocks, names = _as_design(design)
    w = np.random.default_rng(8).uniform(0.1, 10.0, 200)
    assert (_rank_decision(_check_full_rank, blocks, w, names) == named
            == _rank_decision(_check_full_rank_qr, design.values * np.sqrt(w)[:, None], names))
    # every one is a close call, which only the QR of the dense rows decides
    assert not _gram_proves_full_rank(_cross(blocks, w[None]), 200)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind, trend", [("tq", True), ("three", False), ("t", False)])
def test_rank_error_names_the_redundant_covariate(kind, trend, seed):
    # x equals group_trend, 3 const, or a combination of const and the period
    # dummies: the error blames x, the column after those it copies, for any
    # rows and weights
    data = _rank_case(kind, 3, 200, seed)
    design = build_design(data, DesignSpec(post_period=2, include_group_trend=trend))
    for w in (None, np.random.default_rng(seed).uniform(0.1, 10.0, 200)):
        with pytest.raises(SingularDesignError) as info:
            fit_ols(design, data.y, weights=w)
        assert info.value.columns == ("x",)


def test_rank_check_sends_badly_scaled_designs_to_the_qr():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(100)
    well = np.column_stack([np.ones(100), x, x**2])
    assert _gram_proves_full_rank(well.T @ well, 100)
    # full rank, but too badly scaled for the Gram test to prove it
    scaled = np.column_stack([np.ones(100), 1e-7 * x])
    assert not _gram_proves_full_rank(scaled.T @ scaled, 100)
    _check_full_rank(_as_design(scaled)[0], np.ones(100), ["const", "x"])
    # a singular design is never proven full rank, and the QR names its copy
    singular = np.column_stack([np.ones(100), x, 3.0 * x])
    assert not _gram_proves_full_rank(singular.T @ singular, 100)
    with pytest.raises(SingularDesignError) as info:
        _check_full_rank(_as_design(singular)[0], np.ones(100), ["const", "x", "x3"])
    assert info.value.columns == ("x3",)


# --- cell-sum fits of cell-constant designs against the row path --------------

_FITTERS = {"poisson": fit_poisson_qmle, "logit": fit_logit_qmle,
            "fractional": fit_logit_qmle, "multinomial": fit_multinomial_logit,
            "ols": fit_ols}


@st.composite
def cell_constant_fits(draw):
    """(family, dataset, spec): random rows in random (group, period) cells, some
    cells empty, with or without weights, clusters and period or trend columns."""
    family = draw(st.sampled_from(sorted(_FITTERS)))
    n_periods = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = [(g, p) for g in (0, 1) for p in range(n_periods)]
    empty = draw(st.sets(st.sampled_from(cells), max_size=2))
    n_classes = draw(st.integers(3, 4))
    # every cell's rows share one class: perfectly predicted by a saturated design
    separable = family in ("logit", "multinomial") and draw(st.integers(0, 3)) == 0
    ys, qs, ts = [], [], []
    for g, p in cells:
        if (g, p) in empty:
            continue
        size = int(rng.integers(8, 25) if family == "multinomial" else rng.integers(2, 12))
        if family == "poisson":
            y = rng.poisson(rng.uniform(0.3, 4.0), size)
        elif family == "logit":
            y = rng.random(size) < rng.uniform(0.1, 0.9)
        elif family == "fractional":
            y = rng.uniform(0.0, 1.0, size)
            y[rng.random(size) < 0.2] = rng.integers(0, 2)
        elif family == "multinomial":
            y = rng.choice(n_classes, size, p=rng.dirichlet(np.full(n_classes, 4.0)))
        else:
            y = rng.normal(rng.uniform(-2.0, 2.0), 1.0, size)
        if separable:
            y = np.full(size, y[0])
        ys.append(np.asarray(y, float))
        qs.append(np.full(size, g))
        ts.append(np.full(size, p))
    y, q, t = np.concatenate(ys), np.concatenate(qs), np.concatenate(ts)
    # shuffle, so that a cell's rows are not contiguous
    order = rng.permutation(y.size)
    y, q, t = y[order], q[order], t[order]
    weights = rng.uniform(0.2, 3.0, y.size) if draw(st.booleans()) else None
    clusters = draw(st.sampled_from(["none", "across", "single"]))
    clusters = {"none": None, "single": np.arange(y.size),
                "across": rng.integers(0, int(rng.integers(2, 6)), y.size)}[clusters]
    data = RcsDataset(y=y, q=q, t=t, weights=weights, clusters=clusters,
                      n_periods=n_periods)
    spec = DesignSpec(post_period=draw(st.integers(1, n_periods - 1)),
                      include_period_dummies=draw(st.booleans()),
                      include_group_trend=draw(st.booleans()))
    return family, data, spec


def _fit_or_error(fitter, X, data):
    try:
        return fitter(X, data.y, data.weights, clusters=data.clusters)
    except (ValueError, RuntimeError) as err:
        return err


def _close(a, b, rtol=1e-10):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b))) <= rtol * float(np.max(np.abs(b)))


@given(cell_constant_fits())
@settings(max_examples=300, deadline=None)
def test_cell_sum_fit_matches_row_fit(case):
    family, data, spec = case
    design = build_design(data, spec)
    assert design.cells is not None
    cells = _fit_or_error(_FITTERS[family], design, data)
    rows = _fit_or_error(_FITTERS[family], design.values, data)
    assert type(cells) is type(rows)
    if isinstance(rows, SingularDesignError):
        # the row path names the columns of a bare array x0, x1, ...
        assert [f"x{design.index(name)}" for name in cells.columns] == list(rows.columns)
    if isinstance(rows, Exception):
        return
    assert (cells.converged, cells.n_obs, cells.vcov_kind) == \
        (rows.converged, rows.n_obs, rows.vcov_kind)
    # A cell whose outcomes all sit on the domain's boundary puts the optimum
    # at infinity; both paths stop where the score first drops under the
    # tolerance, a point rounding moves, so only their decisions are compared.
    key = data.q * data.n_periods + data.t
    if family == "multinomial":
        boundary = any(np.unique(data.y[key == k]).size < np.unique(data.y).size
                       for k in np.unique(key))
    else:
        low, high = {"poisson": (0, None), "ols": (None, None)}.get(family, (0, 1))
        boundary = any(np.all(data.y[key == k] == low) or np.all(data.y[key == k] == high)
                       for k in np.unique(key))
    if not rows.converged or boundary:
        return
    assert _close(cells.coefficients, rows.coefficients)
    # when the rows of every cell share one outcome, a saturated fit leaves
    # only round-off residuals, and the sandwich (with the OLS loglik) is noise
    if not all(np.unique(data.y[key == k]).size == 1 for k in np.unique(key)):
        assert _close(cells.vcov, rows.vcov)
        assert _close(cells.loglik, rows.loglik)


@pytest.mark.parametrize("fitter, labels", [(fit_logit_qmle, [0, 1, 0, 1]),
                                            (fit_multinomial_logit, [0, 1, 2, 1]),
                                            (fit_multinomial_logit, [0, 1, 0, 2])])
def test_cell_fit_reads_purity_from_rows_not_means(fitter, labels):
    # every cell's rows share one outcome but for one row of negligible weight,
    # which leaves its cell's mean exactly on the boundary; the row fit does not
    # call that perfectly predicted, so neither may the cell fit. With labels
    # [0, 1, 0, 2] that row's label 0 and its cell's label 2 have the same
    # class-1 indicator, so only the class-2 indicators tell them apart
    y = np.append(np.repeat(labels, 3), 0.0)
    q, t = np.repeat([0, 0, 1, 1, 1], [3, 3, 3, 3, 1]), np.repeat([0, 1, 0, 1, 1], [3, 3, 3, 3, 1])
    data = RcsDataset(y=y, q=q, t=t, weights=np.append(np.ones(12), 1e-17))
    design = build_design(data, DesignSpec(post_period=1))
    assert fitter(design.values, data.y, data.weights).converged
    assert fitter(design, data.y, data.weights).converged


def _class_table_case(family, weighted, clustered, trend, cells="mixed", seed=0):
    """(design, dataset) of a cell-only design with a class-label outcome:
    3-class multinomial labels 0..2 or 0/1 logit outcomes, drawn per row, in
    every (group, period) cell but (1, 0) with cells="empty", with every row
    of cell (0, 1) labelled 0 with cells="pure" (and no period dummies, so
    that the optimum stays finite), and with one label per cell with
    cells="separated"."""
    rng = np.random.default_rng(seed)
    n = 400
    q, t = rng.integers(0, 2, n), rng.integers(0, 3, n)
    if cells == "empty":
        q[(q == 1) & (t == 0)] = 0
    n_labels = 3 if family == "multinomial" else 2
    eta = np.column_stack([np.zeros(n)] + [(0.3 * c - 0.4) + 0.2 * c * t - 0.3 * q
                                           + 0.5 * q * (t == 2) for c in range(1, n_labels)])
    y = np.argmax(eta + rng.gumbel(size=eta.shape), axis=1).astype(float)
    if cells == "pure":
        y[(q == 0) & (t == 1)] = 0.0
    elif cells == "separated":
        y = ((q + t) % n_labels).astype(float)
    data = RcsDataset(y=y, q=q, t=t, weights=rng.uniform(0.5, 2.0, n) if weighted else None,
                      clusters=rng.integers(0, 12, n) if clustered else None)
    spec = DesignSpec(post_period=2, include_period_dummies=cells != "pure",
                      include_group_trend=trend)
    return build_design(data, spec), data


_TABLE_CASES = [(family, weighted, clustered, trend, "mixed")
                for family in ("multinomial", "logit") for weighted in (False, True)
                for clustered in (False, True) for trend in (False, True)]
_TABLE_CASES += [(family, True, clustered, trend, cells)
                 for family in ("multinomial", "logit") for clustered in (False, True)
                 for trend, cells in ((False, "empty"), (True, "pure"), (True, "separated"))]


@pytest.mark.parametrize("family, weighted, clustered, trend, cells", _TABLE_CASES)
def test_class_table_fit_matches_row_fit(family, weighted, clustered, trend, cells):
    # a cell-only design with class labels takes its sandwich from the
    # (cell, class) or (cluster, cell, class) weight sums; the reference is
    # the same fit on the dense rows of a plain array
    design, data = _class_table_case(family, weighted, clustered, trend, cells)
    fitter = fit_multinomial_logit if family == "multinomial" else fit_logit_qmle

    def fit(X):
        try:
            return fitter(X, data.y, data.weights, clusters=data.clusters, options=TIGHT)
        except SeparationError as err:
            return err

    table, rows = fit(design), fit(design.values)
    assert type(table) is type(rows)
    if cells == "separated":
        # the trend saturates the design, so every cell is perfectly predicted
        assert isinstance(table, SeparationError)
        return
    assert (table.converged, table.n_obs, table.vcov_kind) == \
        (rows.converged, rows.n_obs, rows.vcov_kind) == \
        (True, 400, "cluster_sandwich" if clustered else "sandwich")
    assert _close(table.coefficients, rows.coefficients, 1e-12)
    assert _close(table.vcov, rows.vcov, 1e-12)
    assert _close(table.loglik, rows.loglik, 1e-12)


@pytest.mark.parametrize("y, units", [([0.0, 1.0, 1.0, 0.0], 8), ([0.0, 0.5, 1.0, 0.25], 12)],
                         ids=["binary", "fractional"])
def test_fractional_logit_takes_the_row_sandwich(monkeypatch, y, units):
    # 0/1 outcomes are class labels, whose sandwich sums over the (cell,
    # class) units, all 4 x 2 of them; a fractional outcome is no label, so
    # its sandwich sums over the rows
    data = RcsDataset(y=np.tile(y, 3), q=np.repeat([0, 1], 6), t=np.tile([0, 1], 6))
    design = build_design(data, DesignSpec(post_period=1, include_period_dummies=False))
    seen = []

    def spy(bread, blocks, resid, clusters=None):
        seen.append(resid.shape)
        return _sandwich(bread, blocks, resid, clusters)

    monkeypatch.setattr(estimators, "_sandwich", spy)
    fit = fit_logit_qmle(design, data.y)
    assert fit.converged and seen == [(1, units)]
    assert _close(fit.vcov, fit_logit_qmle(design.values, data.y).vcov)


def test_covariate_designs_carry_cells_and_cell_columns():
    data = RcsDataset(y=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], q=[0, 0, 1, 1, 0, 1],
                      t=[0, 1, 0, 1, 1, 0], covariates={"x": [0.5, 1.0, 0.2, 0.7, 0.1, 0.9]})
    design = build_design(data, DesignSpec(post_period=1, heterogeneous_covariates=("x",)))
    assert design.cells.tolist() == [0, 1, 2, 3, 1, 2]
    # const, period_1, group and treat are cell columns, held once per cell;
    # x and treat:x are row columns
    assert design.cell_values.tolist() == [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
    assert design.column_names[design.cell_values.shape[1]:] == ("x", "treat:x")
    assert design.row_values.shape == (6, 2)
    plain = RcsDataset(y=data.y, q=data.q, t=data.t)
    plain_design = build_design(plain, DesignSpec(post_period=1))
    assert plain_design.cells.tolist() == [0, 1, 2, 3, 1, 2]
    assert plain_design.cell_values.shape[1] == plain_design.n_columns
    assert plain_design.row_values.shape == (6, 0)


def test_design_matrix_validates_its_blocks():
    cell_values, row_values = np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([[0.5], [2.0], [3.0]])
    names = ("const", "group", "x")
    design = DesignMatrix(cell_values, row_values, [1, 0, 1], names)
    np.testing.assert_array_equal(design.values, [[1, 1, 0.5], [1, 0, 2], [1, 1, 3]])
    for cells in ([0, 2, 1], [-1, 0, 1]):
        with pytest.raises(ValueError, match="cells"):
            DesignMatrix(cell_values, row_values, cells, names)
    with pytest.raises(ValueError, match="one entry per design row"):
        DesignMatrix(cell_values, row_values, [0, 1], names)
    for bad in (names[:2], names + ("z",)):
        with pytest.raises(ValueError, match="column_names"):
            DesignMatrix(cell_values, row_values, [0, 1, 1], bad)


def test_design_and_input_checks_build_no_dense_design():
    # the design holds p1 columns per cell and p2 per row, and the input and
    # rank checks read those blocks, so together they stay below one dense
    # n x p float matrix
    rng = np.random.default_rng(3)
    n = 200_000
    data = RcsDataset(y=rng.poisson(2.0, n).astype(float), q=rng.integers(0, 2, n),
                      t=rng.integers(0, 4, n), covariates={"x": rng.normal(size=n)},
                      weights=rng.uniform(0.5, 2.0, n))
    tracemalloc.start()
    try:
        design = build_design(data, DesignSpec(post_period=2, include_group_trend=True))
        _inputs(_POISSON, design, data.y, data.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert design.n_columns == 8
    assert peak < n * design.n_columns * 8


@pytest.mark.parametrize("family, arrays", [(_POISSON, 3), (_LOGIT, 4)],
                         ids=["poisson", "logit"])
def test_score_holds_few_row_arrays(family, arrays):
    # one whole Poisson evaluation (value, score and Hessian) keeps eta,
    # whose buffer then takes w b'(eta), the means and the Hessian's product
    # of the curvature with the row column alive at once; forming every
    # temporary afresh, the score alone peaked at seven row arrays, and at
    # four with a separate capped eta and scratch array. The softmax moments
    # add the shifted maximum and the log-sum-exp, where their fresh
    # temporaries made six, and its curvature takes the place of the
    # log-sum-exp.
    rng = np.random.default_rng(4)
    n = 200_000
    design = DesignMatrix(np.column_stack([np.ones(8), np.arange(8) % 2]),
                          rng.normal(size=(n, 1)), rng.integers(0, 8, n), ("const", "group", "x"))
    blocks, _ = _as_design(design)
    y, w = rng.poisson(1.0, (1, n)).astype(float), np.ones(n)
    if family is _LOGIT:
        y = np.minimum(y, 1.0)
    beta = np.array([0.1, 0.2, 0.3])
    xwy = design.values.T @ y[0]
    tracemalloc.start()
    try:
        value, grad, hess, max_eta, mean = estimators._evaluate(family, blocks, y, w,
                                                                xwy[None], beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mean.shape == (1, n)
    eta = design.values @ beta
    np.testing.assert_allclose(max_eta, np.max(np.abs(eta)), rtol=1e-14)
    mu = np.exp(eta) if family is _POISSON else 1.0 / (1.0 + np.exp(-eta))
    curvature = mu if family is _POISSON else mu * (1.0 - mu)
    X = design.values
    np.testing.assert_allclose(grad, X.T @ (y[0] - mu), rtol=1e-10)
    np.testing.assert_allclose(hess, -(X.T * curvature) @ X, rtol=1e-12)
    assert peak <= (arrays + 0.5) * n * 8, peak / (n * 8)


def test_clustered_sandwich_peak():
    # the clustered meat numbers the (cluster, cell) pairs in the buffer of
    # the renumbered cluster codes, so the codes, the pair keys and the pair
    # numbers are never alive together: two row arrays at most, where the
    # codes, the keys and a product of the codes made three
    rng = np.random.default_rng(6)
    n = 200_000
    design = DesignMatrix(np.column_stack([np.ones(8), np.arange(8) % 2]),
                          rng.normal(size=(n, 1)), rng.integers(0, 8, n), ("const", "group", "x"))
    blocks, _ = _as_design(design)
    resid = rng.normal(size=(1, n))
    clusters = rng.integers(0, 500, n)
    clusters.setflags(write=False)
    bread = np.eye(3) * n
    tracemalloc.start()
    try:
        vcov = _sandwich(bread, blocks, resid, clusters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scores = resid[0] * design.values.T
    sums = np.array([np.bincount(clusters, weights=s, minlength=500) for s in scores])
    np.testing.assert_allclose(vcov, sums @ sums.T / float(n) ** 2, rtol=1e-10)
    assert peak <= 2.5 * n * 8, peak / (n * 8)


@pytest.mark.parametrize("clustered, arrays", [(False, 2.0), (True, 2.13)],
                         ids=["plain", "clustered"])
def test_class_table_fit_holds_few_row_arrays(clustered, arrays):
    # a cell-only 3-class fit forms no class indicators, residuals or
    # residual moments per row: it peaks at the row keys and one temporary
    # (the float labels' integer copy, or the squared weights), measured
    # here at 2.0 row arrays, 2.13 with clusters (whose codes become the
    # keys); the row sandwich peaked at 9.0 and 8.0. The bound keeps the
    # 22% headroom of test_clustered_load_peak
    rng = np.random.default_rng(5)
    n = 200_000
    data = RcsDataset(y=rng.integers(0, 3, n).astype(float), q=rng.integers(0, 2, n),
                      t=rng.integers(0, 4, n), weights=rng.uniform(0.5, 2.0, n),
                      clusters=rng.integers(0, 500, n) if clustered else None)
    design = build_design(data, DesignSpec(post_period=3))
    tracemalloc.start()
    try:
        fit = fit_multinomial_logit(design, data.y, data.weights, data.clusters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert peak <= 1.22 * arrays * n * 8, peak / (n * 8)


# --- covariate designs: cell columns through cell sums against the dense rows --


@st.composite
def covariate_fits(draw):
    """(family, dataset, spec): random rows in random (group, period) cells, some
    cells empty, with one or two covariates (some interacted with treat), with
    or without weights, string, integer or no clusters, and period or trend
    columns."""
    family = draw(st.sampled_from(sorted(_FITTERS)))
    n_periods = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = [(g, p) for g in (0, 1) for p in range(n_periods)]
    empty = draw(st.sets(st.sampled_from(cells), max_size=2))
    n_classes = draw(st.integers(3, 4))
    separable = family in ("logit", "multinomial") and draw(st.integers(0, 5)) == 0
    ys, qs, ts, xs = [], [], [], []
    for g, p in cells:
        if (g, p) in empty:
            continue
        size = int(rng.integers(8, 25) if family == "multinomial" else rng.integers(3, 14))
        x = rng.normal(size=size)
        level = rng.uniform(-1.0, 1.0) + 0.4 * x
        if family == "poisson":
            y = rng.poisson(np.exp(level))
        elif family == "logit":
            y = rng.random(size) < 1.0 / (1.0 + np.exp(-level))
        elif family == "fractional":
            y = 1.0 / (1.0 + np.exp(-level - rng.normal(0.0, 0.5, size)))
            y[rng.random(size) < 0.2] = rng.integers(0, 2)
        elif family == "multinomial":
            y = rng.choice(n_classes, size, p=rng.dirichlet(np.full(n_classes, 4.0)))
        else:
            y = rng.normal(level, 1.0)
        if separable:
            y = np.full(size, y[0])
        ys.append(np.asarray(y, float))
        xs.append(x)
        qs.append(np.full(size, g))
        ts.append(np.full(size, p))
    y, q, t, x = (np.concatenate(v) for v in (ys, qs, ts, xs))
    order = rng.permutation(y.size)
    y, q, t, x = y[order], q[order], t[order], x[order]
    covariates = {"x": x * draw(st.sampled_from([1.0, 10.0])) + draw(st.sampled_from([0.0, 5.0]))}
    if draw(st.booleans()):
        covariates["z"] = rng.integers(0, 4, y.size).astype(float)
    hetero = draw(st.sets(st.sampled_from(sorted(covariates))))
    weights = rng.uniform(0.2, 3.0, y.size) if draw(st.booleans()) else None
    ids = rng.integers(0, int(rng.integers(2, 8)), y.size)
    clusters = {"none": None, "integer": 5 * ids - 7,
                "string": np.array([f"é{v}" + "x" * (v % 3) for v in ids])}[
        draw(st.sampled_from(["none", "integer", "string"]))]
    data = RcsDataset(y=y, q=q, t=t, covariates=covariates, weights=weights,
                      clusters=clusters, n_periods=n_periods)
    spec = DesignSpec(post_period=draw(st.integers(1, n_periods - 1)),
                      include_period_dummies=draw(st.booleans()),
                      include_group_trend=draw(st.booleans()),
                      heterogeneous_covariates=tuple(sorted(hetero)))
    return family, data, spec


def _no_finite_optimum(family, X, y):
    """Whether the maximand keeps rising along some direction d, so that the
    optimum lies at infinity: no row's linear predictors move against its
    outcome along d (Poisson: x'd <= 0 where y = 0 and x'd = 0 where y > 0;
    logit: x'd >= 0 where y = 1, <= 0 where y = 0, = 0 in between;
    multinomial: the observed class's predictor gains on every other one)
    while some row moves. Decided by the linear program max sum(A d) over
    0 <= A d <= 1, whose optimum is 0 or at least 1."""
    if family == "ols":
        return False
    if family == "multinomial":
        n_classes = int(y.max())
        blocks = np.eye(n_classes + 1)[:, 1:]  # class 0 has predictor 0
        rows = [np.kron(blocks[int(k)] - blocks[j], x)
                for x, k in zip(X, y) for j in range(n_classes + 1) if j != k]
    else:
        top = np.inf if family == "poisson" else 1.0
        rows = []
        for x, value in zip(X, y):
            if value > 0:
                rows.append(x)
            if value < top:
                rows.append(-x)
    A = np.array(rows)
    result = scipy.optimize.linprog(-A.sum(axis=0), A_ub=np.vstack([A, -A]),
                                    b_ub=np.r_[np.ones(len(A)), np.zeros(len(A))],
                                    bounds=(None, None), method="highs")
    assert result.status == 0
    return -result.fun > 0.5


@given(covariate_fits())
@settings(max_examples=300, deadline=None)
def test_covariate_design_fit_matches_dense_fit(case):
    # a plain array has no cell columns, so its fit takes every column row by
    # row: the reference for the cell-sum blocks of a covariate design
    family, data, spec = case
    design = build_design(data, spec)
    assert design.row_values.shape[1] > 0
    blocks = _fit_or_error(_FITTERS[family], design, data)
    dense = _fit_or_error(_FITTERS[family], design.values, data)
    assert type(blocks) is type(dense)
    if isinstance(dense, SingularDesignError):
        assert [f"x{design.index(name)}" for name in blocks.columns] == list(dense.columns)
    if isinstance(dense, Exception):
        return
    assert (blocks.converged, blocks.n_obs, blocks.vcov_kind) == \
        (dense.converged, dense.n_obs, dense.vcov_kind)
    # With the optimum at infinity (an all-boundary cell, or rows separated
    # by a covariate) both fits stop where the score first drops under the
    # tolerance, a point rounding moves, so only their decisions are compared.
    if not dense.converged or _no_finite_optimum(family, design.values, data.y):
        return
    assert blocks.iterations == dense.iterations
    assert _close(blocks.coefficients, dense.coefficients)
    assert _close(blocks.loglik, dense.loglik)
    # Round-off in the Hessian, of relative size eps, moves A^{-1} B A^{-1}
    # by about eps cond(A) relative, in the dense reference as much as in
    # the blocks; a nearly separated fit can make cond(A) large.
    record = {"poisson": "poisson_qmle", "ols": "ols",
              "multinomial": "multinomial_logit"}.get(family, "logit_qmle")
    y = data.y
    if family == "multinomial":
        y = (y[:, None] == np.arange(1, int(y.max()) + 1)).astype(float)
    _, _, hess = fit_objective(record, design.values, y, data.weights)(dense.coefficients)
    rtol = max(1e-10, 100 * np.finfo(float).eps * np.linalg.cond(hess))
    assert _close(blocks.vcov, dense.vcov, rtol)


@pytest.mark.parametrize("labels", [
    ["b", "é", "a", "ab", "", "日本", "a", "é", "zz", "b"],
    ["psu-ä1", "psu-1", "psu-10", "psu-ä1", "q", "psu-1"],
    [7, -3, 7, 0, 12, -3, 5],
    [0.5, -2.25, 0.5, 1e300, -0.0, 0.0, 3.0],
    [3, 0, 2, 3, 5, 0],                   # dense codes: the presence table
    [10**6, 3, 10**6, 42],                # the largest code past n: np.unique
    [True, False, True, True],            # booleans are no codes: np.unique
])
def test_cluster_codes_match_numpy_unique(labels):
    clusters = np.array(labels * 30)
    distinct, expected = np.unique(clusters, return_inverse=True)
    cases = [clusters]
    if clusters.dtype.kind == "U":
        # the same labels as a strided field of a structured array
        records = np.zeros(clusters.size, [("x", "f8"), ("c", clusters.dtype)])
        records["c"] = clusters
        cases.append(records["c"])
    for case in cases:
        codes, n_clusters = _cluster_codes(case)
        np.testing.assert_array_equal(codes, expected.reshape(-1))
        assert n_clusters == distinct.size


# the names each module split off estimators defines, and the package
# modules it may import: the imports run one way, so there is no cycle
_SPLIT = {
    "rrdid.newton": ({"errors"}, ("FitOptions", "NewtonDiagnostics", "maximize",
                                  "_newton_directions", "_STEP_HALVINGS")),
    "rrdid.blocks": ({"design"}, ("_Blocks", "_as_design", "_unit_rows", "_sum_cells",
                                  "_number_pairs", "_cluster_codes", "_class_pairs",
                                  "_transposed", "_cross")),
    "rrdid.rank": ({"blocks", "errors"}, ("_check_full_rank", "_gram_proves_full_rank",
                                          "_check_full_rank_qr")),
    "rrdid.sandwich": ({"blocks", "errors"}, ("_Units", "_sandwich")),
}


@pytest.mark.parametrize("module_name", sorted(_SPLIT))
def test_split_modules_own_their_names(module_name):
    # each name is defined where it lives, and estimators binds one only
    # where its own code reads it: a monkeypatch of a name estimators does
    # not call then raises AttributeError instead of patching nothing
    allowed, names = _SPLIT[module_name]
    module = importlib.import_module(module_name)
    tree = ast.parse(inspect.getsource(module))
    imports = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert imports <= allowed, imports
    read = {node.id for node in ast.walk(ast.parse(inspect.getsource(estimators)))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for name in names:
        value = getattr(module, name)
        if callable(value):
            assert value.__module__ == module_name, name
        assert not hasattr(estimators, name) or name in read, name



def _cell_rows(trend):
    """The eight (q, t) cells' rows of the Monte Carlo design: const, period
    dummies, group, group trend (with trend) and treat, post period 3."""
    return np.array([[1.0, t == 1, t == 2, t == 3, q] + [t * q] * trend + [q * (t == 3)]
                     for q in (0, 1) for t in range(4)])


def _names(X):
    return [f"x{j}" for j in range(X.shape[1])]


def _exact_newton_direction(X, weights, residuals):
    """The solution of X'WX d = X'r, in exact rational arithmetic on the
    floats given, rounded once: X'r is formed from the residuals r, not
    from its rounded float product."""
    k, p = X.shape
    rows = [[sum((Fraction(X[c, i]) * Fraction(weights[c]) * Fraction(X[c, j])
                  for c in range(k)), Fraction(0)) for j in range(p)]
            + [sum((Fraction(X[c, i]) * Fraction(residuals[c]) for c in range(k)), Fraction(0))]
            for i in range(p)]
    for col in range(p):
        pivot = next(r for r in range(col, p) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(p):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return np.array([float(rows[i][p] / rows[i][i]) for i in range(p)])


_SUBNORMAL = np.finfo(float).smallest_subnormal


@given(st.booleans(), st.lists(st.integers(0, 7), max_size=2, unique=True),
       st.sampled_from([_POISSON, _LOGIT]), st.floats(0.0, 30.0),
       st.lists(st.floats(1.0, 1000.0), min_size=8, max_size=8),
       st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
       st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
@settings(max_examples=150, deadline=None)
# an exact direction of about 1e-316, below any bound relative to it
@example(False, [0], _POISSON, 0.0, [5.0, 977.0, 1.0, 1.0, 3.0, 2.0, 1.0, 1.0], [0.0] * 7,
         [0.0, 2.2250738585e-315, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
# saturated (k = p = 6), weights up to e^16: a right-hand side rounded to
# floats before the solve would be amplified 1e-7 off the exact direction
@example(False, [2, 0], _POISSON, 16.0, [1.0] * 8, [0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
         [0.0, -0.7376057020405322, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0])
def test_cell_newton_direction_matches_the_hessian_solve(trend, empty, family, cap,
                                                        counts, beta, residuals):
    # The closed-form direction on the cell null space against the dense
    # Hessian solve, on patterns of empty cells with k - p = 0 and 1, the
    # designs fit_cell_sums accepts, at linear predictors up to the cap.
    # Both are checked against the exact Newton direction. The closed form
    # is within 1e-9 of it, relative to its largest entry, and the dense
    # solve within 100 p eps kappa(H), so the two agree to the sum. Each
    # bound admits one subnormal spacing besides, the least error a float
    # can have where the exact direction is itself subnormal.
    keep = np.setdiff1d(np.arange(8), empty)
    X = _cell_rows(trend)[keep]
    k, p = X.shape
    if np.linalg.matrix_rank(X) < p or k - p > 1:
        return
    counts, beta = np.array(counts[:k]), np.array(beta[:p])
    residuals = np.array(residuals[:k]) * 100.0
    grad = X.T @ residuals
    eta = X @ beta
    if np.max(np.abs(eta)) > 0:
        eta *= cap / np.max(np.abs(eta))
    mean = family.moments(eta[None])[1]
    weights = family.curvature(counts, counts * mean, mean)[0]
    hess = -(X.T * weights) @ X
    try:
        dense = _newton_directions(hess, grad)
    except SingularHessianError:
        dense = None
    curvature = np.stack([weights, residuals])
    direction = _cell_newton_directions(_cell_basis(X, _names(X)), curvature, grad)
    exact = _exact_newton_direction(X, weights, residuals)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(direction - exact)) <= 1e-9 * scale + _SUBNORMAL
    if dense is not None:
        dense_rtol = 100 * p * np.finfo(float).eps * np.linalg.cond(hess)
        assert np.max(np.abs(dense - exact)) <= dense_rtol * scale + _SUBNORMAL
        assert np.max(np.abs(direction - dense)) <= (1e-9 + dense_rtol) * scale + 2 * _SUBNORMAL


@pytest.mark.parametrize("trend, empty", [(True, ()), (False, (0,))],
                         ids=["k-p=1", "k-p=1-no-trend"])
@pytest.mark.parametrize("weight", [0.0, 5e-324, np.nan])
def test_cell_newton_direction_singular_gram(trend, empty, weight):
    # a gram V W^-1 V' that is not finite and positive is the singular
    # decision, which raises SingularHessianError, as a failed LAPACK solve does
    X = np.delete(_cell_rows(trend), list(empty), axis=0)
    basis = _cell_basis(X, _names(X))
    weights = np.linspace(1.0, 2.0, len(X))
    residuals = np.ones(len(X))
    grad = X.T @ residuals
    assert np.all(np.isfinite(_cell_newton_directions(basis, np.stack([weights, residuals]),
                                                      grad)))
    weights[-1] = weight
    with pytest.raises(SingularHessianError):
        _cell_newton_directions(basis, np.stack([weights, residuals]), grad)
