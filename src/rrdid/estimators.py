"""Model fitting: weighted OLS and three canonical-link quasi-likelihood fits.

The Poisson QMLE (ratio-in-ratios), the logistic QMLE and the multinomial
logit (ratio-in-odds-ratios) each maximize sum_i w_i (y_i eta_i - b(eta_i))
over the linear predictor eta_i = x_i beta, with score sum_i w_i (y_i -
b'(eta_i)) x_i and Hessian weight b''(eta_i). Each family is one record in
_FAMILIES: cumulant and mean, curvature, outcome domain and separation test.
One Newton routine fits every record; robust_vcov reads the same records, with
OLS as the identity link b(eta) = eta^2 / 2.

Covariances are sandwiches A^{-1} B A^{-1}: A is the negative Hessian at the
optimum, B the outer product of per-observation scores, summed within
clusters first when cluster ids are supplied. No small-sample correction is
applied unless requested. Newton steps are halved until the maximand does
not decrease; linear predictors are clamped at +/- the linear-predictor cap,
and a clamp still active at the optimum, or a perfectly predicted outcome,
raises instead of returning a silently unreliable estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.special import expit

from .design import DesignMatrix
from .errors import (
    NonFiniteObjectiveError,
    OverflowGuardError,
    SeparationError,
    SingularDesignError,
    SingularHessianError,
)

__all__ = [
    "FitOptions",
    "FitResult",
    "NewtonDiagnostics",
    "maximize",
    "fit_ols",
    "fit_poisson_qmle",
    "fit_logit_qmle",
    "fit_multinomial_logit",
    "fit_cell_sums",
    "robust_vcov",
]


@dataclass(frozen=True)
class FitOptions:
    """Iteration controls shared by the quasi-likelihood fits.

    gradient_tolerance applies to the max-abs score and is scaled by
    (1 + total weight) inside the fit functions.
    """

    gradient_tolerance: float = 1e-8
    max_iterations: int = 100
    step_halving_max: int = 30
    linear_predictor_cap: float = 30.0

    def __post_init__(self):
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.step_halving_max < 1:
            raise ValueError("step_halving_max must be at least 1")
        if self.linear_predictor_cap <= 0:
            raise ValueError("linear_predictor_cap must be positive")


@dataclass(frozen=True)
class NewtonDiagnostics:
    """How a Newton ascent ended; for a batch each field holds one entry per
    problem, and singular marks the problems stopped by a singular Hessian
    (a single problem raises SingularHessianError instead)."""

    iterations: int
    converged: bool
    score_norm: float
    value: float
    singular: bool = False


@dataclass(frozen=True)
class FitResult:
    """Estimates plus the diagnostics needed to judge them.

    coefficients are named by design column; multinomial fits append the
    class index, e.g. "treat[2]" for the class-2 contrast. t-values are
    asymptotic z-style ratios (no degrees-of-freedom adjustment). loglik
    drops terms constant in the parameters (e.g. log y! for Poisson).
    """

    family: str
    names: tuple
    coefficients: np.ndarray
    vcov: np.ndarray
    vcov_kind: str
    loglik: float
    iterations: int
    converged: bool
    score_norm: float
    n_obs: int
    n_classes: int = 0

    def __post_init__(self):
        coef = np.array(self.coefficients, float, copy=True)
        coef.setflags(write=False)
        vcov = np.array(self.vcov, float, copy=True)
        vcov.setflags(write=False)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "vcov", vcov)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown coefficient {name!r}") from None

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.index(name)])

    def se(self, name: str) -> float:
        i = self.index(name)
        return float(np.sqrt(self.vcov[i, i]))

    def t_value(self, name: str) -> float:
        se = self.se(name)
        beta = self.coef(name)
        if se == 0:
            return float("nan") if beta == 0 else float("inf") * np.sign(beta)
        return beta / se


def maximize(objective, init, options: FitOptions = FitOptions(), tolerance=None):
    """Newton ascent with step halving, for one problem or a batch of them.

    objective(beta) must return (value, gradient, hessian). Convergence is
    max-abs gradient <= tolerance (default options.gradient_tolerance,
    unscaled); a step shorter than 1e-12 also stops the iteration. Returns
    (argmax, NewtonDiagnostics). An init already at the optimum returns
    immediately with 0 iterations.

    A 2-d init (B, p) runs B problems in one loop: objective then maps (B, p)
    to values (B,), gradients (B, p) and Hessians (B, p, p), tolerance may
    hold one entry per problem, every decision above is taken per problem,
    and the diagnostics hold arrays. A 1-d init is a batch of one.
    """
    tol = options.gradient_tolerance if tolerance is None else np.asarray(tolerance, float)
    beta = np.array(init, float, copy=True)
    if beta.ndim == 1:
        def batch_of_one(b):
            value, grad, hess = objective(b[0])
            return np.array([value]), np.asarray(grad)[None], np.asarray(hess)[None]

        beta, diag = maximize(batch_of_one, beta[None], options, tol)
        if diag.singular[0]:
            raise SingularHessianError("Hessian is singular at the current iterate")
        return beta[0], NewtonDiagnostics(int(diag.iterations[0]), bool(diag.converged[0]),
                                          float(diag.score_norm[0]), float(diag.value[0]))

    value, grad, hess = objective(beta)
    if not np.all(np.isfinite(value)):
        raise NonFiniteObjectiveError("objective non-finite at the starting point")
    n_problems = beta.shape[0]
    iterations = np.zeros(n_problems, int)
    singular = np.zeros(n_problems, bool)
    running = np.ones(n_problems, bool)
    for _ in range(options.max_iterations):
        running &= ~(np.max(np.abs(grad), axis=1, initial=0.0) <= tol)
        if not running.any():
            break
        direction = np.zeros_like(beta)
        direction[running], singular[running] = _newton_directions(hess[running], grad[running])
        running &= ~singular

        step = np.ones(n_problems)
        searching = running.copy()
        for _ in range(options.step_halving_max):
            candidate = beta + step[:, None] * direction
            cand_value, cand_grad, cand_hess = objective(candidate)
            # accept any non-decrease up to rounding noise
            accept = searching & np.isfinite(cand_value) & (
                cand_value >= value - 1e-12 * (1 + np.abs(value)))
            beta[accept], value[accept] = candidate[accept], cand_value[accept]
            grad[accept], hess[accept] = cand_grad[accept], cand_hess[accept]
            searching &= ~accept
            if not searching.any():
                break
            step[searching] /= 2.0
        # a problem with no acceptable step stops where it is
        running &= ~searching
        iterations += running
        running &= ~(step * np.max(np.abs(direction), axis=1, initial=0.0) < 1e-12)

    score_norm = np.max(np.abs(grad), axis=1, initial=0.0)
    return beta, NewtonDiagnostics(iterations, score_norm <= tol, score_norm, value, singular)


def _newton_directions(hess, grad):
    """Solutions of -hess d = grad per problem, and which Hessians are singular (d = 0)."""
    try:
        return np.linalg.solve(-hess, grad[..., None])[..., 0], np.zeros(len(grad), bool)
    except np.linalg.LinAlgError:
        if len(grad) == 1:
            return np.zeros_like(grad), np.ones(1, bool)
    # one singular matrix fails the stacked solve; solve the problems one by one
    parts = [_newton_directions(hess[i:i + 1], grad[i:i + 1]) for i in range(len(grad))]
    return np.concatenate([d for d, _ in parts]), np.concatenate([s for _, s in parts])


def _as_design(X):
    if isinstance(X, DesignMatrix):
        return X.values, list(X.column_names)
    values = np.asarray(X, float)
    if values.ndim != 2:
        raise ValueError("design must be a 2-d array or DesignMatrix")
    return values, [f"x{j}" for j in range(values.shape[1])]


def _check_inputs(values, names, y, weights):
    n, p = values.shape
    if n == 0 or p == 0:
        raise ValueError("design matrix must have at least one row and column")
    y = np.asarray(y, float)
    if y.shape != (n,):
        raise ValueError("y must match the number of design rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, float)
        if w.shape != (n,):
            raise ValueError("weights must match the number of design rows")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be positive and finite")
    if not np.all(np.isfinite(values)):
        raise ValueError("design matrix contains non-finite values")
    _check_full_rank(values, w, names)
    return y, w


def _check_full_rank(values, weights, names):
    weighted = values * np.sqrt(weights)[:, None]
    if not _gram_proves_full_rank(weighted):
        _check_full_rank_qr(weighted, names)


def _gram_proves_full_rank(weighted):
    """Whether the Gram matrix A'A proves that the pivoted QR finds A full rank.

    For A P = Q R, |r_kk| >= sigma_min(A) for every k and |r_00| <= sigma_max(A),
    so the QR's test min |r_kk| > max(n, p) eps |r_00| passes whenever
    sigma_min / sigma_max exceeds max(n, p) eps plus the QR's relative
    backward error, O(n p^1.5 eps). Forming A'A and eigvalsh move its
    eigenvalues, the squared singular values, by about n p eps lambda_max at
    most, so lambda_min >= 100 n p eps lambda_max puts sigma_min / sigma_max
    near 10 (n p eps)^(1/2) or above, far past both terms. Closer calls, and
    Grams near underflow or overflow, are left to the QR.
    """
    n, p = weighted.shape
    gram = weighted.T @ weighted
    if p == 0 or not np.all(np.isfinite(gram)):
        return False
    eigenvalues = np.linalg.eigvalsh(gram)
    tau = 100.0 * max(n, p) * p * np.finfo(float).eps
    return bool(eigenvalues[0] >= tau * eigenvalues[-1]
                and eigenvalues[0] > np.sqrt(np.finfo(float).tiny))


def _check_full_rank_qr(weighted, names):
    # pivoted QR on the weighted design identifies which columns collide
    r, piv = scipy.linalg.qr(weighted, mode="r", pivoting=True)
    diag = np.abs(np.diag(r[: weighted.shape[1], :]))
    if diag.size == 0 or diag[0] == 0:
        raise SingularDesignError(names)
    cutoff = diag[0] * max(weighted.shape) * np.finfo(float).eps
    rank = int(np.sum(diag > cutoff))
    if rank < weighted.shape[1]:
        raise SingularDesignError([names[j] for j in sorted(piv[rank:])])


def _cluster_sum(scores, clusters):
    if clusters is None:
        return scores
    clusters = np.asarray(clusters)
    if clusters.shape[0] != scores.shape[0]:
        raise ValueError("clusters must match the number of observations")
    # codes number the clusters in sorted-label order
    labels, codes = np.unique(clusters, return_inverse=True)
    return np.column_stack([np.bincount(codes, weights=col, minlength=labels.size)
                            for col in scores.T])


def _sandwich(bread, scores, clusters, small_sample_correction=False):
    """A^{-1} B A^{-1} with B accumulated from (cluster-summed) score rows."""
    grouped = _cluster_sum(scores, clusters)
    meat = grouped.T @ grouped
    try:
        half = np.linalg.solve(bread, meat)
        vcov = np.linalg.solve(bread, half.T).T
    except np.linalg.LinAlgError:
        raise SingularHessianError("sandwich bread matrix is singular")
    if small_sample_correction:
        if clusters is not None:
            g = grouped.shape[0]
            if g < 2:
                raise ValueError("small-sample correction needs at least 2 clusters")
            vcov = vcov * (g / (g - 1))
        else:
            n, p = scores.shape[0], bread.shape[0]
            if n <= p:
                raise ValueError("small-sample correction needs n > p")
            vcov = vcov * (n / (n - p))
    return (vcov + vcov.T) / 2.0


@dataclass(frozen=True)
class _Family:
    """One canonical-link family: the fit maximizes sum w (y*eta - b(eta)).

    moments(eta) gives (b(eta), b'(eta)); for the multinomial eta is (n, C)
    and b'(eta) the class probabilities. curvature(w, mean) gives the Hessian
    row weights w * b''(eta), as (C, C, n) class-pair blocks for the
    multinomial. in_domain(y) is False for outcomes outside the domain that
    the string domain names. guard builds the error for a fit that diverges
    toward the linear-predictor cap (None: the identity link is never
    capped), and separated(y, mean) flags a perfectly predicted boundary fit.
    """

    name: str
    moments: Callable
    curvature: Callable
    in_domain: Callable
    domain: str
    guard: Callable | None = None
    separated: Callable | None = None


def _exp_moments(eta):
    mu = np.exp(eta)
    return mu, mu


def _logit_separated(y, p):
    if not np.all((y == 0) | (y == 1)):
        return False
    gap = np.where(y == 1, 1.0 - p, p)
    return bool(np.all(gap <= 1e-6))


def _softmax_moments(eta):
    # class 0 is the base with eta = 0
    top = np.maximum(eta.max(axis=1), 0.0)
    lse = top + np.log(np.exp(-top) + np.sum(np.exp(eta - top[:, None]), axis=1))
    return lse, np.exp(eta - lse[:, None])


def _softmax_curvature(w, probs):
    # block (c, d) weights w * p_c * (1[c == d] - p_d)
    p = probs.T
    return w * (p[:, None, :] * (np.eye(p.shape[0])[:, :, None] - p[None, :, :]))


def _multinomial_separated(ymat, probs):
    # probability of each row's observed class; rows without an indicator are class 0
    p_obs = np.where(ymat.any(axis=1), np.sum(ymat * probs, axis=1), 1.0 - probs.sum(axis=1))
    return bool(np.all(p_obs >= 1.0 - 1e-6))


_GAUSSIAN = _Family("ols", lambda eta: (0.5 * eta**2, eta), lambda w, mu: w,
                    lambda y: True, "finite y")
_POISSON = _Family(
    "poisson_qmle", _exp_moments, lambda w, mu: w * mu,
    lambda y: not np.any(y < 0), "non-negative y",
    guard=partial(OverflowGuardError, "linear-predictor cap active at the optimum; "
                                      "estimates would overflow without the guard"),
)
_LOGIT = _Family(
    "logit_qmle", lambda eta: (np.logaddexp(0.0, eta), expit(eta)),
    lambda w, p: w * p * (1.0 - p),
    lambda y: not np.any((y < 0) | (y > 1)), "y in [0, 1]",
    guard=partial(SeparationError, "coefficients diverged toward the linear-predictor "
                                   "cap; the outcome is perfectly separated"),
    separated=_logit_separated,
)
_MULTINOMIAL = _Family(
    "multinomial_logit", _softmax_moments, _softmax_curvature,
    lambda y: np.all(y == np.floor(y)) and not np.any(y < 0), "integer class labels >= 0",
    guard=partial(SeparationError, "multinomial coefficients diverged toward the "
                                   "linear-predictor cap; a class is perfectly separated"),
    separated=_multinomial_separated,
)
_FAMILIES = {f.name: f for f in (_GAUSSIAN, _POISSON, _LOGIT, _MULTINOMIAL)}


def _inputs(family, X, y, weights):
    """Design, names, outcome and weights after the shared and the family's checks."""
    values, names = _as_design(X)
    y, w = _check_inputs(values, names, y, weights)
    if not family.in_domain(y):
        raise ValueError(f"{family.name} requires {family.domain}")
    return values, names, y, w


def _class_matrix(labels, n_classes):
    """(n, C) indicators of classes 1..C; class 0 is the base."""
    return (labels[:, None] == np.arange(1, n_classes + 1)).astype(float)


def _evaluate(family, values, y, w, beta, cap):
    """(value, grad, hess, eta, mean, resid) at beta; eta is taken before the cap.

    y is (n,), or (n, C) class indicators with C blocks of p in beta. A 2-d
    beta (B, p) evaluates B fits on the same design rows: y and w are then
    (B, n), and value, grad and hess gain a leading axis of length B.
    resid = w * (y - mean) is each row's score before the design row.
    """
    batch = beta.ndim == 2
    blocks = y.ndim == 2 and not batch
    if batch:
        # one product per fit, so a fit's bits do not depend on its batch
        eta = (values @ beta[:, :, None])[:, :, 0]
    else:
        eta = values @ (beta.reshape(y.shape[1], -1).T if blocks else beta)
    capped = eta if family.guard is None else np.clip(eta, -cap, cap)
    cumulant, mean = family.moments(capped)
    if blocks:
        value = float(np.sum(w * (np.sum(y * capped, axis=1) - cumulant)))
        resid = w[:, None] * (y - mean)
        grad = (resid.T @ values).reshape(-1)
    elif batch:
        value = np.sum(w * (y * capped - cumulant), axis=1)
        resid = w * (y - mean)
        grad = (resid[:, None, :] @ values)[:, 0, :]
    else:
        value = float(np.sum(w * (y * capped - cumulant)))
        resid = w * (y - mean)
        grad = values.T @ resid
    return value, grad, _hessian(values, family.curvature(w, mean)), eta, mean, resid


def _hessian(values, weight):
    """-sum_i weight_i x_i x_i': one p x p matrix for (n,) weights, one per fit
    for (B, n), one p x p block per class pair for (C, C, n)."""
    if weight.ndim < 3:
        return -(values.T * weight[..., None, :]) @ values
    n_classes, p = weight.shape[0], values.shape[1]
    hess = np.zeros((n_classes * p, n_classes * p))
    for c in range(n_classes):
        for d in range(c, n_classes):
            h = -(values.T * weight[c, d]) @ values
            hess[c * p:(c + 1) * p, d * p:(d + 1) * p] = h
            if d != c:
                hess[d * p:(d + 1) * p, c * p:(c + 1) * p] = h
    return hess


def _score_rows(values, resid):
    """Per-observation scores resid_i x_i, class block by class block for (n, C) resid."""
    if resid.ndim == 1:
        return resid[:, None] * values
    return np.einsum("nc,nk->nck", resid, values).reshape(values.shape[0], -1)


def _check_cap(family, eta, cap):
    """Raise the family's guard error when a capped linear predictor reaches the cap."""
    if family.guard is not None and float(np.max(np.abs(eta))) >= cap:
        raise family.guard()


def _check_guards(family, y, eta, mean, converged, cap):
    """Raise the family's guard error for a fit that diverged, at or below the cap."""
    _check_cap(family, eta, cap)
    # Divergent fits can stall "converged" below the cap once the saturated
    # rows' score drops under the tolerance; a perfectly predicted boundary
    # fit is the signature of that divergence.
    if converged and family.separated is not None and family.separated(y, mean):
        raise family.guard()


def _identically_zero(w, y):
    """The exponential mean has no finite optimum when every weighted outcome is 0."""
    return np.sum(w * y, axis=-1) == 0.0


def _objective(family, values, y, w, cap):
    return lambda beta: _evaluate(family, values, y, w, beta, cap)[:3]


_poisson_objective = partial(_objective, _POISSON)
_logit_objective = partial(_objective, _LOGIT)
_multinomial_objective = partial(_objective, _MULTINOMIAL)


def fit_ols(X, y, weights=None, clusters=None, robust=True):
    """Weighted least squares with a robust (sandwich) covariance by default.

    robust=False reports the classical homoskedastic covariance instead
    (vcov_kind "classical_ols", sigma^2 = sum w e^2 / (sum w - p)).
    """
    values, names, y, w = _inputs(_GAUSSIAN, X, y, weights)
    n, p = values.shape

    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(values * sw[:, None], y * sw, rcond=None)
    _, score, hess, fitted, _, weighted_resid = _evaluate(_GAUSSIAN, values, y, w, beta, None)
    resid = y - fitted
    score_norm = float(np.max(np.abs(score)))

    if robust:
        vcov = _sandwich(-hess, _score_rows(values, weighted_resid), clusters)
        vcov_kind = "cluster_sandwich" if clusters is not None else "sandwich"
    else:
        total = float(w.sum())
        if total <= p:
            raise ValueError("classical variance needs total weight > p")
        sigma2 = float(np.sum(w * resid**2)) / (total - p)
        vcov = sigma2 * np.linalg.inv(-hess)
        vcov = (vcov + vcov.T) / 2.0
        vcov_kind = "classical_ols"

    return FitResult(
        family="ols",
        names=names,
        coefficients=beta,
        vcov=vcov,
        vcov_kind=vcov_kind,
        loglik=-0.5 * float(np.sum(w * resid**2)),
        iterations=0,
        converged=True,
        score_norm=score_norm,
        n_obs=n,
    )


def _fit_qmle(family, values, names, y, w, clusters, options):
    """Newton fit of one family, its cap and separation guards, and the sandwich."""
    cap = options.linear_predictor_cap
    n_classes = y.shape[1] if y.ndim == 2 else 0
    tol = options.gradient_tolerance * (1.0 + float(w.sum()))
    init = np.zeros(values.shape[1] * max(n_classes, 1))
    beta, diag = maximize(_objective(family, values, y, w, cap), init, options, tolerance=tol)
    value, _, hess, eta, mean, resid = _evaluate(family, values, y, w, beta, cap)
    _check_guards(family, y, eta, mean, diag.converged, cap)
    if diag.converged:
        vcov = _sandwich(-hess, _score_rows(values, resid), clusters)
    else:
        vcov = np.full((beta.size, beta.size), np.nan)
    return FitResult(
        family=family.name,
        names=names,
        coefficients=beta,
        vcov=vcov,
        vcov_kind="cluster_sandwich" if clusters is not None else "sandwich",
        loglik=value,
        iterations=diag.iterations,
        converged=diag.converged,
        score_norm=diag.score_norm,
        n_obs=values.shape[0],
        n_classes=n_classes,
    )


def fit_poisson_qmle(X, y, weights=None, clusters=None, options: FitOptions = FitOptions()):
    """Poisson quasi-MLE for an exponential conditional mean.

    y may be any non-negative reals (counts, positive continuous, or
    censored-at-zero outcomes); only the conditional mean must be
    exponential for the estimate to be consistent.
    """
    values, names, y, w = _inputs(_POISSON, X, y, weights)
    if _identically_zero(w, y):
        raise OverflowGuardError(
            "outcome is identically zero; the exponential mean has no finite optimum"
        )
    return _fit_qmle(_POISSON, values, names, y, w, clusters, options)


def fit_logit_qmle(X, y, weights=None, clusters=None, options: FitOptions = FitOptions()):
    """Logistic quasi-MLE for binary or fractional y in [0, 1]."""
    values, names, y, w = _inputs(_LOGIT, X, y, weights)
    return _fit_qmle(_LOGIT, values, names, y, w, clusters, options)


def fit_multinomial_logit(X, y, weights=None, clusters=None, options: FitOptions = FitOptions()):
    """Multinomial logit with class 0 as base and case-specific regressors.

    y holds integer class labels 0..C with every class observed at least
    once. Coefficients are the C blocks of contrasts against class 0, one
    block per class in design-column order; names carry the class index,
    e.g. "treat[1]".
    """
    values, names, y, w = _inputs(_MULTINOMIAL, X, y, weights)
    labels = y.astype(np.int64)
    n_classes = int(labels.max())
    if n_classes < 1:
        raise ValueError("multinomial_logit needs at least 2 observed classes")
    missing = sorted(set(range(n_classes + 1)) - set(np.unique(labels).tolist()))
    if missing:
        raise ValueError(f"classes never observed: {missing}")
    full_names = [f"{name}[{c}]" for c in range(1, n_classes + 1) for name in names]
    return _fit_qmle(_MULTINOMIAL, values, full_names, _class_matrix(labels, n_classes),
                     w, clusters, options)


def fit_cell_sums(family, X, counts, sums):
    """Fit B datasets whose regressors are constant within cells, in one batch.

    X (k, p) holds the design row of each of k cells; counts and sums (B, k)
    hold each dataset's total weight and weighted outcome sum per cell. The
    weighted least-squares and quasi-likelihood fits depend on the data only
    through these sums, so dataset r's fit equals, up to rounding, the
    row-level fit_ols, fit_poisson_qmle or fit_logit_qmle (family "ols",
    "poisson_qmle" or "logit_qmle") of its rows at the default FitOptions,
    with the same stopping rules and guards. Returns (coefficients (B, p),
    failures): failures[r] is None for a converged fit, "not_converged", or
    the name of the error the row-level fit raises (SingularDesignError,
    SingularHessianError, OverflowGuardError, SeparationError); a failed
    row's coefficients are NaN.
    """
    if family not in ("ols", "poisson_qmle", "logit_qmle"):
        raise ValueError(f"fit_cell_sums fits ols, poisson_qmle or logit_qmle, not {family!r}")
    record = _FAMILIES[family]
    values, names = _as_design(X)
    counts, sums = np.asarray(counts, float), np.asarray(sums, float)
    if counts.ndim != 2 or counts.shape != sums.shape or counts.shape[1] != values.shape[0]:
        raise ValueError("counts and sums must be (B, k) for a design of k cells")
    if not (np.all(np.isfinite(counts)) and np.all(np.isfinite(sums))) or np.any(counts < 0):
        raise ValueError("counts must be non-negative and counts and sums finite")
    if np.any((counts == 0) & (sums != 0)):
        raise ValueError("a cell without observations must have a zero sum")
    # a cell without observations drops out, as absent rows do at row level
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    if not record.in_domain(means):
        raise ValueError(f"{family} requires {record.domain}")

    coefficients = np.full((counts.shape[0], values.shape[1]), np.nan)
    failures = [None] * counts.shape[0]
    # one rank check per pattern of empty cells
    patterns, which = np.unique(counts > 0, axis=0, return_inverse=True)
    for j, keep in enumerate(patterns):
        rows = np.flatnonzero(which.reshape(-1) == j)
        try:
            _check_full_rank(values[keep], np.ones(int(keep.sum())), names)
        except SingularDesignError:
            kinds = ["SingularDesignError"] * rows.size
        else:
            beta, kinds = _fit_cells(record, values[keep], means[rows][:, keep],
                                     counts[rows][:, keep])
            failed = np.array([kind is not None for kind in kinds])
            coefficients[rows] = np.where(failed[:, None], np.nan, beta)
        for r, kind in zip(rows, kinds):
            failures[r] = kind
    return coefficients, failures


def _fit_cells(family, values, y, w):
    """(coefficients, failure kinds) of full-rank cell fits; y is the cell mean."""
    options = FitOptions()
    beta = np.zeros((y.shape[0], values.shape[1]))
    if family is _GAUSSIAN:
        # least squares is one Newton step from zero
        _, grad, hess, *_ = _evaluate(family, values, y, w, beta, None)
        beta, singular = _newton_directions(hess, grad)
        return beta, ["SingularHessianError" if s else None for s in singular]

    cap = options.linear_predictor_cap
    zero = _identically_zero(w, y) if family is _POISSON else np.zeros(y.shape[0], bool)
    kinds = ["OverflowGuardError" if z else None for z in zero]
    fit = np.flatnonzero(~zero)
    y, w = y[fit], w[fit]
    tol = options.gradient_tolerance * (1.0 + w.sum(axis=1))
    beta[fit], diag = maximize(_objective(family, values, y, w, cap), beta[fit], options,
                               tolerance=tol)
    _, _, _, eta, mean, _ = _evaluate(family, values, y, w, beta[fit], cap)
    for i, r in enumerate(fit):
        if diag.singular[i]:
            kinds[r] = "SingularHessianError"
            continue
        try:
            _check_guards(family, y[i], eta[i], mean[i], diag.converged[i], cap)
        except (OverflowGuardError, SeparationError) as err:
            kinds[r] = type(err).__name__
        else:
            kinds[r] = None if diag.converged[i] else "not_converged"
    return beta, kinds


def robust_vcov(family, X, y, weights, beta_hat, clusters=None,
                small_sample_correction=False, options: FitOptions = FitOptions()):
    """Sandwich covariance A^{-1} B A^{-1} at beta_hat for any supported family.

    family is "ols", "poisson_qmle", "logit_qmle" or "multinomial_logit". A
    is the negative Hessian of the weighted quasi-likelihood, B the outer
    product of per-observation scores, summed within clusters first when
    cluster ids are given. The optional correction multiplies by G/(G-1)
    (clustered) or n/(n-p) (unclustered). Inputs are checked as the fits
    check them; beta_hat must hold p coefficients, or C blocks of p for the
    multinomial with labels in 0..C. Bad input raises ValueError. Like the
    fits, a non-identity family raises its guard error when a linear
    predictor reaches linear_predictor_cap, where the clamp would make the
    matrix silently wrong.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    record = _FAMILIES[family]
    values, _, y, w = _inputs(record, X, y, weights)
    beta = np.asarray(beta_hat, float)
    p = values.shape[1]
    if record is _MULTINOMIAL:
        n_classes = beta.size // p
        if n_classes < 1 or beta.shape != (n_classes * p,) or np.any(y > n_classes):
            raise ValueError(f"multinomial beta_hat must hold C blocks of {p} "
                             "coefficients, with class labels in 0..C")
        y = _class_matrix(y, n_classes)
    elif beta.shape != (p,):
        raise ValueError(f"beta_hat must have length {p}")
    cap = options.linear_predictor_cap
    _, _, hess, eta, _, resid = _evaluate(record, values, y, w, beta, cap)
    _check_cap(record, eta, cap)
    return _sandwich(-hess, _score_rows(values, resid), clusters, small_sample_correction)
