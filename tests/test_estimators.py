"""Fitting code checked against independent oracles.

The grid-search tests re-implement each maximand directly and verify that
no nearby parameter beats the fitted optimum; the covariance tests rebuild
the sandwich with explicit Python loops. Neither path shares code with the
estimators module beyond the fitted numbers themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdid import (
    DesignMatrix,
    DesignSpec,
    FitOptions,
    FitResult,
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
    robust_vcov,
    standard_error,
)
from rrdid.estimators import (
    _check_full_rank,
    _check_full_rank_qr,
    _cluster_sum,
    _gram_proves_full_rank,
)
from rrdid.errors import (
    NegativeVarianceError,
    NonFiniteObjectiveError,
    OverflowGuardError,
    SeparationError,
    SingularDesignError,
    SingularHessianError,
)

from conftest import binary_cells, class_cells, mean_cells

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


def test_maximize_batch_decides_per_problem():
    # two quadratic bowls around a linear problem, whose Hessian is singular:
    # it alone stops, and the bowls end exactly where single runs end
    def bowl(center, A):
        def objective(b):
            d = b - center
            return -0.5 * d @ A @ d, -A @ d, -A
        return objective

    problems = [bowl(np.array([1.5, -2.0]), np.array([[2.0, 0.3], [0.3, 1.0]])),
                lambda b: (float(b.sum()), np.ones(2), np.zeros((2, 2))),
                bowl(np.array([-0.7, 3.0]), np.array([[1.0, -0.2], [-0.2, 0.5]]))]

    def batch(b):
        parts = [problem(row) for problem, row in zip(problems, b)]
        return tuple(np.array(part) for part in zip(*parts))

    beta, diag = maximize(batch, np.full((3, 2), 0.25))
    assert diag.singular.tolist() == [False, True, False]
    assert diag.converged.tolist() == [True, False, True]
    assert beta[1].tolist() == [0.25, 0.25]
    for i in (0, 2):
        single, one = maximize(problems[i], np.full(2, 0.25))
        assert beta[i].tobytes() == single.tobytes()
        assert (diag.iterations[i], diag.value[i]) == (one.iterations, one.value)


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
    from rrdid.estimators import (
        _logit_objective,
        _multinomial_objective,
        _poisson_objective,
    )

    rng = np.random.default_rng(7)
    n = 30
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    w = rng.uniform(0.5, 2.0, n)
    if family == "poisson":
        y = rng.poisson(1.0, n).astype(float)
        obj = _poisson_objective(X, y, w, 30.0)
        p = 3
    elif family == "logit":
        y = rng.integers(0, 2, n).astype(float)
        obj = _logit_objective(X, y, w, 30.0)
        p = 3
    elif family == "multinomial":
        labels = rng.integers(0, 3, n)
        ymat = np.column_stack([(labels == 1), (labels == 2)]).astype(float)
        obj = _multinomial_objective(X, ymat, w, 30.0)
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
    from rrdid.estimators import (
        _logit_objective,
        _multinomial_objective,
        _poisson_objective,
    )

    X, y, w = poisson_data(seed=8)
    fit = fit_poisson_qmle(X, y, w, options=TIGHT)
    _, _, hess = _poisson_objective(X, y, w, 30.0)(fit.coefficients)
    assert np.all(np.linalg.eigvalsh(hess) < 0)

    X, y, w = logit_data(seed=9)
    fit = fit_logit_qmle(X, y, w, options=TIGHT)
    _, _, hess = _logit_objective(X, y, w, 30.0)(fit.coefficients)
    assert np.all(np.linalg.eigvalsh(hess) < 0)

    rng = np.random.default_rng(10)
    labels = rng.integers(0, 3, 50)
    Xm = np.column_stack([np.ones(50), rng.normal(size=50)])
    fit = fit_multinomial_logit(Xm, labels.astype(float), options=TIGHT)
    ymat = np.column_stack([(labels == 1), (labels == 2)]).astype(float)
    _, _, hess = _multinomial_objective(Xm, ymat, np.ones(50), 30.0)(fit.coefficients)
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


def test_poisson_sandwich_matches_loops():
    X, y, w = poisson_data(seed=13, n=10)
    clusters = np.array([0, 0, 0, 1, 1, 1, 2, 2, 3, 3])
    fit = fit_poisson_qmle(X, y, w, clusters=clusters, options=TIGHT)
    mu = np.exp(X @ fit.coefficients)
    scores = (w * (y - mu))[:, None] * X
    bread = np.zeros((2, 2))
    for i in range(10):
        bread += w[i] * mu[i] * np.outer(X[i], X[i])
    expected = looped_sandwich(X, scores, bread, clusters)
    np.testing.assert_allclose(fit.vcov, expected, rtol=1e-10, atol=1e-14)
    assert fit.vcov_kind == "cluster_sandwich"

    plain = robust_vcov("poisson_qmle", X, y, w, fit.coefficients)
    np.testing.assert_allclose(plain, looped_sandwich(X, scores, bread),
                               rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("clustered", [False, True])
@pytest.mark.parametrize("family", ["logit_qmle", "multinomial_logit"])
def test_logit_and_multinomial_sandwich_match_loops(family, clustered):
    # a binary logit is the multinomial with one contrast class, so one loop
    # over classes builds both families' scores and bread
    if family == "logit_qmle":
        X, y, w = logit_data(seed=18, n=20)
        fitter = fit_logit_qmle
    else:
        X, y, w = multinomial_data(seed=19)
        fitter = fit_multinomial_logit
    n, p = X.shape
    clusters = np.arange(n) % 5 if clustered else None
    fit = fitter(X, y, w, clusters=clusters, options=TIGHT)
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
    again = robust_vcov(family, X, y, w, fit.coefficients, clusters=clusters)
    np.testing.assert_allclose(again, expected, rtol=1e-10, atol=1e-14)


def test_ols_sandwich_matches_loops():
    rng = np.random.default_rng(14)
    n = 12
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.normal(size=n)
    w = rng.uniform(0.5, 2.0, n)
    clusters = np.repeat([0, 1, 2, 3], 3)
    fit = fit_ols(X, y, w, clusters=clusters)
    resid = y - X @ fit.coefficients
    scores = (w * resid)[:, None] * X
    bread = (X.T * w) @ X
    np.testing.assert_allclose(
        fit.vcov, looped_sandwich(X, scores, bread, clusters), rtol=1e-10, atol=1e-14
    )


def test_small_sample_correction_factors():
    X, y, w = poisson_data(seed=15, n=10)
    clusters = np.array([0, 0, 1, 1, 1, 2, 2, 3, 3, 3])
    fit = fit_poisson_qmle(X, y, w, clusters=clusters, options=TIGHT)
    base = robust_vcov("poisson_qmle", X, y, w, fit.coefficients, clusters=clusters)
    bumped = robust_vcov("poisson_qmle", X, y, w, fit.coefficients,
                         clusters=clusters, small_sample_correction=True)
    np.testing.assert_allclose(bumped, base * (4 / 3), rtol=1e-12)

    base = robust_vcov("poisson_qmle", X, y, w, fit.coefficients)
    bumped = robust_vcov("poisson_qmle", X, y, w, fit.coefficients,
                         small_sample_correction=True)
    np.testing.assert_allclose(bumped, base * (10 / 8), rtol=1e-12)


def test_robust_vcov_rejects_unknown_family():
    X, y, w = poisson_data(seed=16, n=10)
    with pytest.raises(ValueError, match="family"):
        robust_vcov("probit", X, y, w, np.zeros(2))


def test_robust_vcov_validates_inputs():
    X, y, w = poisson_data(seed=16, n=10)
    beta = fit_poisson_qmle(X, y, w).coefficients
    Xm, labels, wm = multinomial_data(seed=16)
    mbeta = fit_multinomial_logit(Xm, labels, wm).coefficients
    cases = [
        ("poisson_qmle", X, y, -w, beta, "weights"),
        ("poisson_qmle", X, np.full_like(y, np.nan), w, beta, "non-finite"),
        ("poisson_qmle", X, y - 10.0, w, beta, "non-negative"),
        ("logit_qmle", X, y + 2.0, w, beta, r"\[0, 1\]"),
        ("ols", X, y, w, np.zeros(3), "length 2"),
        ("multinomial_logit", Xm, labels + 0.5, wm, mbeta, "integer"),
        ("multinomial_logit", Xm, labels, wm, mbeta[:2], "0..C"),
        ("multinomial_logit", Xm, labels, wm, mbeta[:3], "blocks"),
    ]
    for family, design, outcome, weights, coef, message in cases:
        with pytest.raises(ValueError, match=message):
            robust_vcov(family, design, outcome, weights, coef)


@pytest.mark.parametrize("family, data, error", [
    ("poisson_qmle", poisson_data, OverflowGuardError),
    ("logit_qmle", logit_data, SeparationError),
])
def test_robust_vcov_applies_the_cap_guard(family, data, error):
    # with an intercept, beta = (40, 0) puts every linear predictor past the
    # cap of 30; clamped, it would return the matrix of beta = (35, 0)
    X, y, w = data(seed=16, n=10)
    for beta in ((40.0, 0.0), (-30.0, 0.0)):
        with pytest.raises(error):
            robust_vcov(family, X, y, w, np.array(beta))
    assert np.all(np.isfinite(robust_vcov(family, X, y, w, np.array([5.0, 0.0]))))
    assert np.all(np.isfinite(robust_vcov("ols", X, y, w, np.array([40.0, 0.0]))))


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
    with pytest.raises(ValueError, match="never observed"):
        fit_multinomial_logit(X, np.array([0.0, 0.0, 2.0, 2.0, 2.0]))
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
    # exactly one of the collinear pair is redundant; the intercept is not
    assert set(info.value.columns) <= {"x1", "x2"}
    assert len(info.value.columns) == 1


def test_nonconverged_fit_reports_nan_vcov():
    X, y, w = poisson_data(seed=23)
    fit = fit_poisson_qmle(X, y, w, options=FitOptions(gradient_tolerance=1e-15,
                                                       max_iterations=1))
    assert not fit.converged
    assert np.isnan(fit.vcov).all()


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
    np.testing.assert_array_equal(_cluster_sum(scores, clusters), expected)


def test_cluster_length_mismatch():
    X, y, w = poisson_data(seed=24, n=10)
    with pytest.raises(ValueError, match="clusters"):
        fit_poisson_qmle(X, y, w, clusters=np.zeros(9))


@given(st.floats(0.1, 10.0))
@settings(max_examples=20, deadline=None)
def test_weight_scale_invariance(scale):
    X, y, w = poisson_data(seed=25, n=20)
    a = fit_poisson_qmle(X, y, w, options=TIGHT)
    b = fit_poisson_qmle(X, y, w * scale, options=TIGHT)
    np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-9)


# --- rank check: Gram eigenvalues first, pivoted QR for the close calls -------------------


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


@settings(max_examples=300, deadline=None)
@given(rank_designs())
def test_rank_check_matches_pivoted_qr(design):
    X, w = design
    names = [f"x{j}" for j in range(X.shape[1])]
    weighted = X * np.sqrt(w)[:, None]
    assert (_rank_decision(_check_full_rank, X, w, names)
            == _rank_decision(_check_full_rank_qr, weighted, names))


def test_rank_check_sends_badly_scaled_designs_to_the_qr():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(100)
    well = np.column_stack([np.ones(100), x, x**2])
    assert _gram_proves_full_rank(well)
    # full rank, but too badly scaled for the Gram test to prove it
    scaled = np.column_stack([np.ones(100), 1e-7 * x])
    assert not _gram_proves_full_rank(scaled)
    _check_full_rank(scaled, np.ones(100), ["const", "x"])
    # a singular design is never proven full rank and keeps the QR's names
    singular = np.column_stack([np.ones(100), x, 3.0 * x])
    assert not _gram_proves_full_rank(singular)
    with pytest.raises(SingularDesignError) as info:
        _check_full_rank(singular, np.ones(100), ["const", "x", "x3"])
    assert info.value.columns == _rank_decision(_check_full_rank_qr, singular,
                                                ["const", "x", "x3"])


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
                                            (fit_multinomial_logit, [0, 1, 2, 1])])
def test_cell_fit_reads_purity_from_rows_not_means(fitter, labels):
    # every cell's rows share one outcome but for one row of negligible weight,
    # which leaves its cell's mean exactly on the boundary; the row fit does not
    # call that perfectly predicted, so neither may the cell fit
    y = np.append(np.repeat(labels, 3), 0.0)
    q, t = np.repeat([0, 0, 1, 1, 1], [3, 3, 3, 3, 1]), np.repeat([0, 1, 0, 1, 1], [3, 3, 3, 3, 1])
    data = RcsDataset(y=y, q=q, t=t, weights=np.append(np.ones(12), 1e-17))
    design = build_design(data, DesignSpec(post_period=1))
    assert fitter(design.values, data.y, data.weights).converged
    assert fitter(design, data.y, data.weights).converged


def test_covariate_designs_carry_no_cell_index():
    data = RcsDataset(y=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], q=[0, 0, 1, 1, 0, 1],
                      t=[0, 1, 0, 1, 1, 0], covariates={"x": [0.5, 1.0, 0.2, 0.7, 0.1, 0.9]})
    assert build_design(data, DesignSpec(post_period=1)).cells is None
    plain = RcsDataset(y=data.y, q=data.q, t=data.t)
    assert build_design(plain, DesignSpec(post_period=1)).cells.tolist() == [0, 1, 2, 3, 1, 2]


def test_design_cells_must_hold_constant_rows():
    values = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
    DesignMatrix(values, ("const", "x"), 1, None, cells=[0, 1, 0])
    with pytest.raises(ValueError, match="constant within cells"):
        DesignMatrix(values, ("const", "x"), 1, None, cells=[0, 0, 1])
