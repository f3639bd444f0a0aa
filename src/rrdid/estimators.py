"""Model fitting: weighted OLS and three canonical-link quasi-likelihood fits.

The Poisson QMLE (ratio-in-ratios), the logistic QMLE and the multinomial
logit (ratio-in-odds-ratios) each maximize sum_i w_i (y_i'eta_i - b(eta_i))
over the linear predictors eta_i = (x_i beta_1, ..., x_i beta_C) of C
outcome classes, with score sum_i w_i (y_i - b'(eta_i)) (x) x_i and Hessian
weights b''(eta_i). Each family is one record in _FAMILIES: cumulant and
mean, curvature, outcome domain and separation test. Every outcome is held
in one layout, (classes, units), so each class's pass over the units is
one contiguous row: OLS, Poisson and logit have one class, the
multinomial one per non-base category. The logit is the
one-class softmax, b(eta) = log(1 + e^eta), so it shares the multinomial's
record functions and its fits equal the two-category multinomial's bit for
bit. OLS is the identity link b(eta) = eta^2 / 2, solved by lstsq, not Newton.

One driver, _fit, fits one dataset of any record, by the Newton of
rrdid.newton (least squares for OLS), and one block evaluator (_evaluate,
_cross) gives it values, scores and Hessians on the cell and row columns
of rrdid.blocks. Without row columns, rows that share a cell enter the
maximand only through their total weight n_c and weighted mean outcome
ybar_c, as n_c (ybar_c'eta_c - b(eta_c)), and the fit runs on those at
most 2T cells. A plain array has only row columns, so it runs row by row.
fit_cell_sums fits many cell datasets: one whose cells all have interior
means is solved in its dual (rrdid.dual), vectorized over the datasets,
and each one with a boundary cell goes to the driver on its own. On at
most one cell more than columns, weighted least squares is an exact closed
form on the null space of X' (_cell_least_squares), from one SVD per
pattern of empty cells: it is the linear fit, and it is each Newton
direction of the cell QMLEs, the weighted fit of their working residuals
(_cell_newton_directions), so those fits form no Hessian. Linear
predictors are clamped at +/- _CAP, and a clamp still active at the
optimum, or a perfectly predicted outcome, raises instead of returning a
silently unreliable estimate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .blocks import (_Blocks, _as_design, _class_pairs, _cluster_codes, _cross, _number_pairs,
                     _sum_cells, _transposed, _unit_rows)
from .dual import fit_interior, solves
from .errors import (NegativeVarianceError, NonFiniteObjectiveError, OverflowGuardError,
                     SeparationError, SingularDesignError, SingularHessianError)
from .newton import FitOptions, NewtonDiagnostics, maximize
from .rank import _check_full_rank, _check_full_rank_qr, _eigenvalues_prove_full_rank
from .sandwich import _Units, _sandwich

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
    "standard_error",
]


# the clamp on |linear predictor| of the capped (non-identity) families
_CAP = 30.0


# A variance computed as a sum of terms bounded by scale is off by round-off
# of order eps * scale; below -_ROUND_OFF * scale it is not round-off.
_ROUND_OFF = 1e-8


def standard_error(variance, scale) -> float:
    """sqrt(variance) for a variance computed from terms bounded by scale.

    For a covariance matrix, scale is the largest |diagonal| entry (times
    (sum |c_j|)^2 for a combination c'Vc). A variance a little below zero is
    round-off of a true value near zero and reads as 0; one below -1e-8 *
    scale cannot be round-off and raises NegativeVarianceError. NaN stays
    NaN.
    """
    variance = float(variance)
    if variance < 0:
        if variance < -_ROUND_OFF * float(scale):
            raise NegativeVarianceError(
                f"variance {variance:.3g} is negative beyond round-off of its scale "
                f"{float(scale):.3g}; the covariance matrix is not positive semidefinite")
        variance = 0.0
    return math.sqrt(variance)


@dataclass(frozen=True)
class FitResult:
    """Estimates plus the diagnostics needed to judge them.

    coefficients are named by design column; multinomial fits append the
    class index, e.g. "treat[2]" for the class-2 contrast. t-values are
    asymptotic z-style ratios (no degrees-of-freedom adjustment). loglik
    drops terms constant in the parameters (e.g. log y! for Poisson). vcov
    is the sandwich at the estimate (vcov_kind "sandwich", or
    "cluster_sandwich" when clusters are given), without a small-sample
    factor, or the classical OLS variance; NaN when the fit did not
    converge. step_halvings counts the Newton steps the fit halved, and
    max_abs_eta is the largest |linear predictor| at the estimate, before
    the cap.
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
    step_halvings: int = 0
    max_abs_eta: float = float("nan")

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
        return standard_error(self.vcov[i, i], np.max(np.abs(np.diag(self.vcov))))

    def t_value(self, name: str) -> float:
        se = self.se(name)
        beta = self.coef(name)
        if se == 0:
            return float("nan") if beta == 0 else float("inf") * np.sign(beta)
        return beta / se


def _check_inputs(blocks, names, y, weights, clusters):
    n, p = blocks.rows.shape[0], blocks.cell.shape[1] + blocks.rows.shape[1]
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
    if clusters is not None and np.shape(clusters) != (n,):
        raise ValueError("clusters must match the number of observations")
    if not (np.all(np.isfinite(blocks.cell)) and np.all(np.isfinite(blocks.rows))):
        raise ValueError("design matrix contains non-finite values")
    _check_full_rank(blocks, w, names)
    return y, w


@dataclass(frozen=True)
class _Family:
    """One canonical-link family: the fit maximizes sum w (y'eta - b(eta)).

    Outcomes, linear predictors and means share one layout, (C, m): a fit
    on m units with C outcome classes, one for OLS, Poisson and logit and
    one per non-base class for the multinomial, each class a contiguous row
    over the units. moments(eta) gives (b(eta) (m,), b'(eta) (C, m));
    curvature(w, wm, mean), with wm = w b'(eta), gives the Hessian weights
    w * b''(eta) of the P = C (C + 1) / 2 class pairs c <= d of
    _class_pairs as (P, m), which for Poisson is wm itself. The logit is
    the one-class softmax and shares the multinomial's functions.
    in_domain(y) is False for outcomes outside the domain that the string
    domain names. guard is the error class, raised with message, for a fit
    that diverges toward the linear-predictor cap (None: the identity link
    is never capped), and separated(y, mean) says whether the fit's
    boundary outcomes are all perfectly predicted.
    """

    name: str
    moments: Callable
    curvature: Callable
    in_domain: Callable
    domain: str
    guard: type | None = None
    message: str = ""
    separated: Callable | None = None


def _exp_moments(eta):
    mu = np.exp(eta)
    return mu[0], mu


def _softmax_moments(eta):
    # class 0 is the base with eta = 0, so with top = max(0, max_c eta_c)
    # lse = top + log(exp(-top) + sum_c exp(eta_c - top))
    top = np.maximum(eta.max(axis=0), 0.0)
    probs = np.exp(np.subtract(eta, top))
    lse = np.sum(probs, axis=0)
    # the summed exponentials are scratch: a fresh (m,) array for exp(-top)
    # would be a fifth row array on a logit row design
    base = probs[0]
    np.exp(np.negative(top, out=base), out=base)
    np.add(base, lse, out=lse)
    np.add(top, np.log(lse, out=lse), out=lse)
    return lse, np.exp(np.subtract(eta, lse, out=probs), out=probs)


def _softmax_curvature(w, wm, probs):
    # pair (c, d) weights w p_c (1[c == d] - p_d), each formed in its row
    pairs = _class_pairs(len(probs))
    out = np.empty((len(pairs), probs.shape[1]))
    for row, (c, d) in zip(out, pairs):
        np.multiply(wm[c], np.subtract(c == d, probs[d], out=row), out=row)
    return out


def _softmax_separated(y, probs):
    # probability of each unit's observed class; units without an indicator are class 0
    p_obs = np.where(y.any(axis=0), np.sum(y * probs, axis=0), 1.0 - probs.sum(axis=0))
    return bool(np.all((y == 0) | (y == 1)) and np.all(p_obs >= 1.0 - 1e-6))


_GAUSSIAN = _Family("ols", lambda eta: (0.5 * eta[0]**2, eta),
                    lambda w, wm, mu: w[None], lambda y: True, "finite y")
_POISSON = _Family(
    "poisson_qmle", _exp_moments, lambda w, wm, mu: wm,
    lambda y: not np.any(y < 0), "non-negative y",
    OverflowGuardError, "linear-predictor cap active at the optimum; "
                        "estimates would overflow without the guard",
)
_LOGIT = _Family(
    "logit_qmle", _softmax_moments, _softmax_curvature,
    lambda y: not np.any((y < 0) | (y > 1)), "y in [0, 1]",
    SeparationError, "coefficients diverged toward the linear-predictor cap; "
                     "the outcome is perfectly separated",
    _softmax_separated,
)
_MULTINOMIAL = _Family(
    "multinomial_logit", _softmax_moments, _softmax_curvature,
    lambda y: np.all(y == np.floor(y)) and not np.any(y < 0), "integer class labels >= 0",
    SeparationError, "multinomial coefficients diverged toward the linear-predictor cap; "
                     "a class is perfectly separated",
    _softmax_separated,
)
_FAMILIES = {f.name: f for f in (_GAUSSIAN, _POISSON, _LOGIT, _MULTINOMIAL)}


def _inputs(family, X, y, weights, clusters=None):
    """Row blocks, names, outcome and weights after the shared and the family's checks."""
    blocks, names = _as_design(X)
    y, w = _check_inputs(blocks, names, y, weights, clusters)
    if not family.in_domain(y):
        raise ValueError(f"{family.name} requires {family.domain}")
    return blocks, names, y, w


def _class_matrix(labels, n_classes):
    """(C, n) indicators of classes 1..C; class 0 is the base."""
    return (labels == np.arange(1, n_classes + 1)[:, None]).astype(float)


def _evaluate(family, blocks, y, w, xwy, beta, hessian=True):
    """(value, grad, hess, max_eta, mean) of one fit on m units at beta.

    y is (C, m), w (m,), xwy (C, p) the fit's X'Wy and beta (Cp,); max_eta
    is the largest |linear predictor|, before the cap. With hessian False,
    for a one-class fit whose direction rule needs no p x p Hessian, hess
    is (2, m): each unit's curvature weight w b''(eta) and its working
    residual w (y - b'(eta)).
    wm = w b'(eta), formed once in eta's buffer (unless the mean is eta),
    gives the score xwy - X'wm, whose per-cell sums of wm serve the
    Hessian's cell block when the curvature is wm (Poisson); the value is
    beta'xwy - sum w b(eta), or sum w (y'eta - b(eta)) at the capped eta
    once |eta| reaches the cap. Outside the family's moments and curvature,
    at most three unit-length arrays are alive at once: eta, then wm; the
    means; the Hessian's product of the curvature with a row column.
    """
    cell, rows, index = blocks
    p1 = cell.shape[1]
    coef = beta.reshape(len(y), p1 + rows.shape[1])
    # an overflow leaves inf or NaN, which the Newton's finiteness test and
    # the fit guards decide on
    with np.errstate(over="ignore", invalid="ignore"):
        eta = None
        if p1:
            eta = coef[:, :p1] @ cell.T
            if index is not None:
                eta = eta.take(index, axis=1)
        if rows.shape[1]:
            # a single row column's product rounds each entry once, as a K = 1 matmul does
            on_rows = coef[:, p1:] * rows.T if rows.shape[1] == 1 else coef[:, p1:] @ rows.T
            eta = on_rows if eta is None else np.add(eta, on_rows, out=eta)
            del on_rows
        # np.abs makes an all-zero eta's -0.0 a 0.0, as np.abs(eta) would
        max_eta = np.abs(np.maximum(eta.max(), -eta.min()))
        capped = family.guard is not None and not max_eta < _CAP
        if capped:
            np.clip(eta, -_CAP, _CAP, out=eta)
        cumulant, mean = family.moments(eta)
        if capped:
            value = np.sum(w * (np.sum(y * eta, axis=0) - cumulant))
        else:
            value = np.einsum("cp,cp->", coef, xwy) - np.einsum("m,m->", w, cumulant)
        del cumulant
        wm = np.multiply(w, mean, out=None if mean is eta else eta)
        on_wm, wm_cells = _transposed(blocks, wm)
        grad = (xwy - on_wm).reshape(beta.shape)
        curvature = family.curvature(w, wm, mean)
        if not hessian:
            residual = np.subtract(w * y, wm)
            return value, grad, np.concatenate((curvature, residual)), max_eta, mean
        hess = -_cross(blocks, curvature, wm_cells if curvature is wm else None)
    return value, grad, hess, max_eta, mean


def _identically_zero(w, y):
    """The exponential mean has no finite optimum when every weighted outcome is 0."""
    return np.sum(w * y) == 0.0


def _objective(family, blocks, y, w, last, hessian=True):
    """maximize's objective: (value, grad, hess) of one fit at beta (Cp,),
    with the outcome taken in once, as X'Wy; hessian as _evaluate's.

    The list last holds the latest evaluation's (beta, max_eta, mean) alone:
    it is emptied before each evaluation, so the previous one's means are
    freed before the next allocates its own.
    """
    xwy, _ = _transposed(blocks, np.multiply(w, y, order="C"))
    evaluate = _evaluate if hessian else functools.partial(_evaluate, hessian=False)

    def objective(beta):
        last.clear()
        value, grad, hess, max_eta, mean = evaluate(family, blocks, y, w, xwy, beta)
        last.append((beta.copy(), max_eta, mean))
        return value, grad, hess
    return objective


def _fit(family, blocks, counts, means, options, pure=True, basis=None):
    """Fit one dataset on m units, by maximize or, for OLS, least squares.

    blocks holds the units' design, counts (m,) the dataset's total weight
    per unit and means (C, m) its weighted mean outcome, or class shares,
    per unit; every unit needs a positive count. pure says whether the rows
    of every unit share one outcome, which a perfectly predicted boundary
    fit needs. Least squares is lstsq on the count-weighted unit rows, not
    the normal equations, which square their condition number; a covariate
    such as a calendar year makes it large. A one-class fit on cells may
    pass their _CellBasis, and its Newton directions are then
    _cell_newton_directions, from the cells' curvature weights and working
    residuals instead of the Hessian. A singular Newton direction raises
    SingularHessianError. Returns (beta (Cp,), failure, diag, mean,
    max_eta): failure is None, "not_converged" or the name of the error the
    fit raises, diag the NewtonDiagnostics with the Hessian at beta (with a
    basis, the weights and residuals), mean the fitted unit means (C, m)
    and max_eta the largest |linear predictor|, before the cap.
    """
    objective = _objective(family, blocks, means, counts, last := [], hessian=basis is None)
    if family is _GAUSSIAN:
        # least squares has one class
        root = np.sqrt(counts)
        beta = np.linalg.lstsq(_unit_rows(blocks) * root[:, None], means[0] * root,
                               rcond=None)[0]
        # the Gaussian Hessian does not depend on beta
        value, grad, hess = objective(beta)
        diag = NewtonDiagnostics(0, True, float(np.max(np.abs(grad), initial=0.0)), float(value),
                                 hess)
    else:
        beta = np.zeros((blocks.cell.shape[1] + blocks.rows.shape[1]) * len(means))
        tol = options.gradient_tolerance * (1.0 + counts.sum())
        if basis is None:
            beta, diag = maximize(objective, beta, options, tolerance=tol)
        else:
            beta, diag = maximize(objective, beta, options, tol,
                                  functools.partial(_cell_newton_directions, basis))
    # the bread is the Hessian of the last accepted step; the means are the
    # last evaluation's when it was at beta
    if not (last and np.array_equal(last[0][0], beta)):
        objective(beta)
    _, max_eta, mean = last.pop()

    failure = None if diag.converged else "not_converged"
    if family.guard is not None:
        # A fit that stalls against the clamp stops a rounding error or a
        # halved step away from it, on either side, so a fit that did not
        # converge that close to the cap diverged as well.
        diverged = max_eta >= _CAP or (not diag.converged and max_eta >= _CAP * (1 - 1e-6))
        # Divergent fits can stall "converged" below the cap once the saturated
        # rows' score drops under the tolerance; a perfectly predicted boundary
        # fit is the signature of that divergence.
        if family.separated is not None:
            diverged = diverged or (diag.converged and pure and family.separated(means, mean))
        if diverged:
            failure = family.guard.__name__
    return beta, failure, diag, mean, max_eta


def _units(family, blocks, y, w, clusters, n_classes):
    """(fit units, counts, means, pure, _Units) of one dataset with outcome y (n,);
    with n_classes, y holds the class labels 0..n_classes of a softmax fit.

    A design with row columns fits on its rows, and its sandwich sums over
    them. A design of cell columns alone fits on its non-empty cells: their
    total weights and weighted mean outcomes (C, k), with pure saying
    whether the rows of every cell share one outcome (for the families that
    test separation). Its sandwich sums over its rows, or, for class labels,
    over the groups of rows of one (cell, class), or (cluster, cell, class)
    when clustered, numbered by the key (cluster k + cell) (C + 1) + label:
    neither the class indicators nor the residuals of the rows are formed.
    The fit's class sums are per-key sums of the weights, the rows' sums of
    w y less their exact zeros.
    """
    cell, rows, index = blocks
    if index is None or rows.shape[1]:
        # labels 0 and 1 are their own indicators of class 1
        y = y[None] if n_classes in (None, 1) else _class_matrix(y, n_classes)
        return blocks, w, y, True, _Units(blocks, y, w, None, clusters)
    k = cell.shape[0]
    totals = np.bincount(index, weights=w, minlength=k)
    cells = _Blocks(cell, np.empty((k, 0)), None)
    if n_classes is None:
        y = y[None]
        pure = True
        if family.separated is not None:
            some_row = np.zeros(k, np.intp)
            some_row[index] = np.arange(index.size)
            pure = np.array_equal(y[0], y[0][some_row][index])
        means = _sum_cells(index, k, w * y) / totals
        return cells, totals, means, pure, _Units(blocks, y, w, index, clusters)
    width = n_classes + 1
    keys = index * width
    keys += y.astype(np.intp)
    sums = np.bincount(keys, weights=w, minlength=k * width).reshape(k, width)
    pure = bool(np.all(np.count_nonzero(sums, axis=1) == 1))
    # class-major, as every outcome is held
    means = np.ascontiguousarray(sums.T[1:]) / totals
    if clusters is None:
        groups, group_clusters = np.arange(k * width), None
        scale = np.sqrt(np.bincount(keys, weights=w * w, minlength=k * width))
    else:
        # the cluster codes' buffer becomes the keys in place
        codes, n_clusters = _cluster_codes(clusters)
        codes *= k * width
        codes += keys
        del keys
        groups, group = _number_pairs(codes, n_clusters * k * width)
        del codes
        scale = np.bincount(group, weights=w, minlength=groups.size)
        group_clusters = groups // (k * width)
    at = groups // width % k
    units = _Units(_Blocks(cell, np.empty((groups.size, 0)), at),
                   _class_matrix(groups % width, n_classes), scale, at, group_clusters)
    return cells, totals, means, pure, units


def _fit_dataset(family, blocks, names, y, w, clusters, options, robust=True, n_classes=None):
    """One dataset's fit by _fit on the fit units of _units, then one pass
    over the sandwich's units for the residuals behind the covariance; the
    fitted means are dropped once the residuals are formed, before the
    sandwich.

    y is the (n,) outcome, or with n_classes the class labels 0..n_classes.
    A failed fit raises its error; a fit that did not converge reports a
    NaN covariance.
    """
    fit_units, counts, means, pure, units = _units(family, blocks, y, w, clusters, n_classes)
    beta, failure, diag, mean, max_eta = _fit(family, fit_units, counts, means, options, pure)
    if failure not in (None, "not_converged"):
        raise family.guard(family.message)
    error = units.y - (mean if units.fitted is None else mean.take(units.fitted, axis=1))
    # the sandwich reads only the residuals
    del mean
    if family is _GAUSSIAN:
        # the OLS loglik is the Gaussian one, -1/2 sum w e^2; an overflow
        # leaves inf, which raises below
        with np.errstate(over="ignore"):
            loglik = -0.5 * float(np.sum(w * error**2))
    else:
        loglik = float(diag.value)
    if not math.isfinite(loglik):
        raise NonFiniteObjectiveError("log-likelihood is not finite at the estimate")
    # the residuals overwrite the errors, which nothing reads after the loglik
    resid = np.multiply(units.scale, error, out=error)
    vcov_kind = "cluster_sandwich" if clusters is not None else "sandwich"
    if not robust:
        total, p = float(w.sum()), beta.size
        if total <= p:
            raise ValueError("classical variance needs total weight > p")
        sigma2 = -2.0 * loglik / (total - p)
        with np.errstate(over="ignore", invalid="ignore"):
            vcov = sigma2 * np.linalg.inv(-diag.hessian)
        if not np.all(np.isfinite(vcov)):
            raise NonFiniteObjectiveError("the classical covariance is not finite")
        vcov = (vcov + vcov.T) / 2.0
        vcov_kind = "classical_ols"
    elif diag.converged:
        vcov = _sandwich(-diag.hessian, units.blocks, resid, units.clusters)
    else:
        vcov = np.full((beta.size, beta.size), np.nan)
    return FitResult(
        family=family.name,
        names=names,
        coefficients=beta,
        vcov=vcov,
        vcov_kind=vcov_kind,
        loglik=loglik,
        iterations=diag.iterations,
        converged=diag.converged,
        score_norm=diag.score_norm,
        n_obs=w.size,
        step_halvings=diag.step_halvings,
        max_abs_eta=float(max_eta),
    )


def fit_ols(X, y, weights=None, clusters=None, robust=True):
    """Weighted least squares with a robust (sandwich) covariance by default.

    robust=False reports the classical homoskedastic covariance instead
    (vcov_kind "classical_ols", sigma^2 = sum w e^2 / (sum w - p)); it has
    no clustered form, so clusters must then be None.
    """
    if clusters is not None and not robust:
        raise ValueError("the classical variance has no clustered form; "
                         "drop the clusters or use the robust sandwich")
    blocks, names, y, w = _inputs(_GAUSSIAN, X, y, weights, clusters)
    return _fit_dataset(_GAUSSIAN, blocks, names, y, w, clusters, FitOptions(), robust)


def fit_poisson_qmle(X, y, weights=None, clusters=None, options: FitOptions = FitOptions()):
    """Poisson quasi-MLE for an exponential conditional mean.

    y may be any non-negative reals (counts, positive continuous, or
    censored-at-zero outcomes); only the conditional mean must be
    exponential for the estimate to be consistent.
    """
    blocks, names, y, w = _inputs(_POISSON, X, y, weights, clusters)
    if _identically_zero(w, y):
        raise OverflowGuardError(
            "outcome is identically zero; the exponential mean has no finite optimum"
        )
    return _fit_dataset(_POISSON, blocks, names, y, w, clusters, options)


def fit_logit_qmle(X, y, weights=None, clusters=None, options: FitOptions = FitOptions()):
    """Logistic quasi-MLE for binary or fractional y in [0, 1].

    The logit is the one-class multinomial logit: on 0/1 outcomes its fit
    equals fit_multinomial_logit's, coefficient for coefficient.
    """
    blocks, names, y, w = _inputs(_LOGIT, X, y, weights, clusters)
    # 0/1 outcomes are the labels of the one-class softmax
    n_classes = 1 if np.all((y == 0) | (y == 1)) else None
    return _fit_dataset(_LOGIT, blocks, names, y, w, clusters, options, n_classes=n_classes)


def fit_multinomial_logit(X, y, weights=None, clusters=None, options: FitOptions = FitOptions()):
    """Multinomial logit with class 0 as base and case-specific regressors.

    y holds integer class labels 0..C with every class observed at least
    once. Coefficients are the C blocks of contrasts against class 0, one
    block per class in design-column order; names carry the class index,
    e.g. "treat[1]".
    """
    blocks, names, y, w = _inputs(_MULTINOMIAL, X, y, weights, clusters)
    n_classes = int(y.max())
    if n_classes < 1:
        raise ValueError("multinomial_logit needs at least 2 observed classes")
    # a label past the row count leaves some class unobserved; np.unique
    # numbers such labels as floats, which hold labels past int64 too
    if n_classes < y.size:
        observed = np.flatnonzero(np.bincount(y.astype(np.int64), minlength=n_classes + 1))
    else:
        observed = np.unique(y)
    n_missing = n_classes + 1 - observed.size
    if n_missing:
        # at most the first 20: a huge label leaves too many to list
        seen = set(observed.tolist())
        shown = list(itertools.islice((c for c in range(n_classes + 1) if c not in seen), 20))
        more = f" and {n_missing - len(shown)} more" if n_missing > len(shown) else ""
        raise ValueError(f"classes never observed: {shown}{more}")
    full_names = [f"{name}[{c}]" for c in range(1, n_classes + 1) for name in names]
    return _fit_dataset(_MULTINOMIAL, blocks, full_names, y, w, clusters, options,
                        n_classes=n_classes)


class _CellBasis(NamedTuple):
    """What a full-rank cell design X (k, p) contributes to every weighted
    least squares fit on it, from one SVD: null (k - p, k), whose
    orthonormal rows V span null(X'), pinv_t (k, p), the transpose of X^+,
    and sums (k, k + 1), [1 - I | 1], whose product with a cell vector gives
    its sum over the other cells of each cell and its total."""

    null: np.ndarray
    pinv_t: np.ndarray
    sums: np.ndarray


def _cell_basis(values, names):
    """The _CellBasis of the cell design values (k, p), whose columns are
    named names, or the SingularDesignError of _check_full_rank_qr.

    A design's basis is computed once per process, for the 256 designs last
    asked for (the Monte Carlo's design has 256 patterns of empty cells), and
    every caller shares its arrays, which are read-only.
    """
    values = np.asarray(values, float)
    return _design_basis(values.shape, values.tobytes(), tuple(names))


@functools.lru_cache(maxsize=256)
def _design_basis(shape, data, names):
    """_cell_basis of the design whose rows are the float64 bytes data.

    The rank test shares the SVD: when the squared singular values, the
    Gram's eigenvalues, prove full rank (_eigenvalues_prove_full_rank), the
    QR test is skipped; a closer call, or fewer cells than columns, is left
    to the QR test on the rows themselves. A cell whose row is in no linear
    dependency of the rows (one saturated by its own column, as treat
    saturates the treated post cell) has a zero entry in every row of V.
    The SVD leaves rounding there, of order k eps cond(X), which a fit
    would multiply by that cell's inverse weight, so entries that small are
    set to the zero they stand for.
    """
    values = np.frombuffer(data).reshape(shape)
    u, s, vt = np.linalg.svd(values)
    k = len(values)
    if not (len(s) == values.shape[1] and _eigenvalues_prove_full_rank(s[::-1] ** 2, k)):
        _check_full_rank_qr(values, list(names))
    null = u[:, len(s):].T
    null = np.where(np.abs(null) <= k * np.finfo(float).eps * s[0] / s[-1], 0.0, null)
    basis = _CellBasis(null, u[:, :len(s)] @ (vt / s[:, None]),
                       np.hstack([1.0 - np.eye(k), np.ones((k, 1))]))
    for array in basis:
        array.setflags(write=False)
    return basis


def _cell_least_squares(basis, weights, weighted):
    """((B, p) coefficients, singular (B,)) of the weighted least squares
    fits of B datasets with cell weights W and weighted responses u = W z
    (B, k) on the cell design X (k, p) of basis, in closed form: for OLS
    the cell counts and sums, for a Newton step the curvature weights and
    working residuals. X has at most one cell more than columns, k - p <= 1.

    With k = p the fit is exact, mu = z and beta = X^-1 z. With k - p = 1,
    as in the paper's design, the fitted values mu satisfy X'W (z - mu) = 0,
    so W (z - mu) = v lam for the one row v of basis.null, and v'mu = 0:
    with D = W^-1, lam = v'z / G and mu_i = D_i (u_i G_i - v_i R_i) / G,
    with G the sum of D_k v_k^2 and G_i and R_i the sums of D_k v_k^2 and
    D_k v_k u_k over the other cells k != i, and beta = X^+ mu. A cell of
    tiny weight (huge D_i) enters mu_i only through D_i, where u_i - v_i
    lam would lose D_i eps to cancellation. A fit is singular, and its
    coefficients are not to be used, when its G is not finite and positive
    (a zero weight makes it infinite), or with k = p when a fitted value is
    not finite (a weight too small to invert). Every product is a stacked
    matmul, one per dataset, so a dataset's bits do not depend on its batch.
    """
    null, pinv_t, sums = basis
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inverse = 1.0 / weights
        if len(null):
            v = null[0]
            terms = np.empty((len(weights), 2, len(v)))
            np.multiply(inverse, v * v, out=terms[:, 0])
            np.multiply(inverse * v, weighted, out=terms[:, 1])
            # a zero in sums drops cell i's own term exactly
            others = terms @ sums
            gram = others[:, 0, -1:]
            fitted = inverse * (weighted * others[:, 0, :-1] - v * others[:, 1, :-1]) / gram
            singular = ~((gram[:, 0] > 0) & (gram[:, 0] < np.inf))
        else:
            fitted = inverse * weighted
            singular = ~np.all(np.isfinite(fitted), axis=1)
        return (fitted[:, None] @ pinv_t)[:, 0], singular


def _cell_newton_directions(basis, curvature, grad):
    """maximize's direction rule for a one-class fit on the cells of basis.

    curvature (2, k) holds each cell's weight W = N b''(eta) and working
    residual r = S - N b'(eta), whose X'r is the score grad. The Newton
    direction solves X'WX d = X'r: it is the weighted least squares fit
    (_cell_least_squares) of the responses z = r / W (IRLS; Green 1984),
    whose weighted responses are r itself. No p x p Hessian is formed or
    solved, and each cell's residual enters on its own scale, so a cell of
    tiny weight costs no precision. A singular fit raises
    SingularHessianError, as _newton_directions does.
    """
    (direction,), (singular,) = _cell_least_squares(basis, curvature[:1], curvature[1:])
    if singular:
        raise SingularHessianError("Hessian is singular at the current iterate")
    return direction


def fit_cell_sums(families, X, counts, sums):
    """Fit B datasets whose regressors are constant within cells by each
    family named in families.

    X (k, p) holds the design row of each of k cells, with at most one cell
    more than columns (k - p <= 1, as in the paper's design with its group
    trend); a design with more is refused. counts and sums (B, k) hold
    each dataset's total weight and weighted outcome sum per cell. The fits
    depend on the data only through these sums: dataset r's fit equals, up
    to rounding, the row-level fit_ols, fit_poisson_qmle or fit_logit_qmle
    (family "ols", "poisson_qmle" or "logit_qmle") of its rows. The input
    checks, the numbering of the patterns of empty cells and each pattern's
    one SVD of its cell design, which its rank check shares (_cell_basis),
    serve every family. OLS is the exact closed form on the cells
    (_cell_least_squares), with no stopping rule. A QMLE whose non-empty
    cells all have interior means (above 0, and below 1 for the logit) has
    a finite optimum, which rrdid.dual solves exactly in its one-dimensional
    dual (_fit_interior), with the linear-predictor cap as its guard; these
    solves are vectorized over the datasets. A QMLE with a boundary cell,
    whose optimum may be infinite, runs maximize, the Newton behind every
    fit, on its own dataset at the default FitOptions, with the row-level
    fits' stopping rules and guards (a cell counts as perfectly predicted
    from its mean alone); only its Newton directions are taken in closed
    form, as weighted least squares on the same basis
    (_cell_newton_directions). Returns one (coefficients (B, p), failures)
    per family, in the order of families: failures[r] is None for a
    converged fit, "not_converged", or the name of the error the row-level
    fit raises (SingularDesignError, SingularHessianError,
    OverflowGuardError, SeparationError), where a fit whose closed form or
    dual is singular, as a cell weight too small to invert or a cell mean
    that overflows makes it, reports SingularHessianError; a failed row's
    coefficients are NaN.
    """
    records = []
    for family in families:
        if family not in ("ols", "poisson_qmle", "logit_qmle"):
            raise ValueError(f"fit_cell_sums fits ols, poisson_qmle or logit_qmle, "
                             f"not {family!r}")
        records.append(_FAMILIES[family])
    blocks, names = _as_design(X)
    values = _unit_rows(blocks)
    if values.size == 0:
        raise ValueError("design matrix must have at least one row and column")
    if not np.all(np.isfinite(values)):
        raise ValueError("design matrix contains non-finite values")
    if values.shape[0] - values.shape[1] > 1:
        raise ValueError(f"fit_cell_sums fits designs with at most one cell more than "
                         f"columns, not {values.shape[0]} cells on {values.shape[1]} columns")
    counts, sums = np.asarray(counts, float), np.asarray(sums, float)
    if counts.ndim != 2 or counts.shape != sums.shape or counts.shape[1] != values.shape[0]:
        raise ValueError("counts and sums must be (B, k) for a design of k cells")
    if not (np.all(np.isfinite(counts)) and np.all(np.isfinite(sums))) or np.any(counts < 0):
        raise ValueError("counts must be non-negative and counts and sums finite")
    if np.any((counts == 0) & (sums != 0)):
        raise ValueError("a cell without observations must have a zero sum")
    # a cell without observations drops out, as absent rows do at row level;
    # a mean that overflows makes its fit singular
    with np.errstate(over="ignore"):
        means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    for record in records:
        if not record.in_domain(means):
            raise ValueError(f"{record.name} requires {record.domain}")

    results = [(np.full((counts.shape[0], values.shape[1]), np.nan),
                ["SingularDesignError"] * counts.shape[0]) for _ in records]
    # one rank check and one basis per pattern of empty cells, numbered by its packed bits
    filled = counts > 0
    packed = np.packbits(filled, axis=1)
    _, first, which = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1),
                                return_index=True, return_inverse=True)
    for j, keep in enumerate(filled[first]):
        pattern = np.flatnonzero(which.reshape(-1) == j)
        cells = _Blocks(values[keep], np.empty((int(keep.sum()), 0)), None)
        try:
            basis = _cell_basis(cells.cell, names)
        except SingularDesignError:
            continue  # these rows keep their SingularDesignError
        # contiguous, so that each dataset's sums do not depend on the batch
        pattern_y, pattern_w, pattern_s = (np.ascontiguousarray(a[pattern][:, keep])
                                           for a in (means, counts, sums))
        for record, (coefficients, failures) in zip(records, results):
            if record is _GAUSSIAN:
                beta, singular = _cell_least_squares(basis, pattern_w, pattern_s)
                kinds = np.where(singular, "SingularHessianError", None)
                _store(coefficients, failures, pattern, beta, kinds)
                continue
            dual = solves(record is _LOGIT, basis.null, pattern_y)
            if dual.any():
                beta, kinds = _fit_interior(record, basis, pattern_w[dual], pattern_s[dual],
                                            pattern_y[dual])
                _store(coefficients, failures, pattern[dual], beta, kinds)
            # a row with a boundary cell, whose optimum may be infinite, takes the Newton alone
            for r, y, w in zip(pattern[~dual].tolist(), pattern_y[~dual], pattern_w[~dual]):
                if record is _POISSON and _identically_zero(w, y):
                    failures[r] = "OverflowGuardError"
                    continue
                try:
                    beta, failures[r], *_ = _fit(record, cells, w, y[None], FitOptions(),
                                                 basis=basis)
                except SingularHessianError:
                    failures[r] = "SingularHessianError"
                    continue
                if failures[r] is None:
                    coefficients[r] = beta
    return results


def _fit_interior(family, basis, counts, sums, means):
    """(beta (B, p), failure kinds (B,)) of the Poisson or logit fits of
    cells whose means are all interior, by rrdid.dual.fit_interior: a fit
    whose cell means or fitted links are not finite is singular
    (SingularHessianError), and one whose largest |link| reaches _CAP
    raises the family's guard, as the Newton's clamp decides it."""
    beta, eta, converged = fit_interior(family is _LOGIT, basis.null, basis.pinv_t,
                                        counts, sums)
    kinds = np.where(converged, None, "not_converged").astype(object)
    kinds[~(np.max(np.abs(eta), axis=1) < _CAP)] = family.guard.__name__
    finite = np.all(np.isfinite(means), axis=1) & np.all(np.isfinite(eta), axis=1)
    kinds[~finite] = "SingularHessianError"
    return beta, kinds


def _store(coefficients, failures, rows, beta, kinds):
    """Record the fits of rows: coefficients where kinds[r] is None, which
    marks a converged fit, and each kind among failures."""
    fitted = np.array([kind is None for kind in kinds], bool)
    coefficients[rows[fitted]] = beta[fitted]
    for r, kind in zip(rows.tolist(), kinds):
        failures[r] = kind
