"""Newton ascent for one problem: each step is halved, at most _STEP_HALVINGS
times, until the maximand does not decrease."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteObjectiveError, SingularHessianError

__all__ = ["FitOptions", "NewtonDiagnostics", "maximize"]

# the most halvings of one Newton step
_STEP_HALVINGS = 30


@dataclass(frozen=True)
class FitOptions:
    """Iteration controls shared by the quasi-likelihood fits.

    gradient_tolerance applies to the max-abs score and is scaled by
    (1 + total weight) inside the fit functions; max_iterations bounds the
    Newton iterations.
    """

    gradient_tolerance: float = 1e-8
    max_iterations: int = 100

    def __post_init__(self):
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class NewtonDiagnostics:
    """How the Newton ascent of one problem ended. hessian is the objective's
    curvature output at the returned point, from its last accepted
    evaluation (the Hessian, under the default direction rule), and
    step_halvings counts the halved Newton steps over all iterations."""

    iterations: int
    converged: bool
    score_norm: float
    value: float
    hessian: np.ndarray | None = None
    step_halvings: int = 0


def _newton_directions(hess, grad):
    """The solution d of -hess d = grad; a singular hess raises SingularHessianError."""
    try:
        return np.linalg.solve(-hess, grad)
    except np.linalg.LinAlgError:
        raise SingularHessianError("Hessian is singular at the current iterate") from None


def maximize(objective, init, options: FitOptions = FitOptions(), tolerance=None,
             directions=_newton_directions):
    """Newton ascent with step halving, for one problem.

    objective(beta) must return (value, gradient, curvature) at a 1-d beta,
    and directions(curvature, gradient) the Newton direction, or raise
    SingularHessianError. By default the curvature is the Hessian and the
    direction solves -hessian d = gradient (_newton_directions); a caller
    that knows the Hessian's structure can hand back less and solve for the
    same direction its own way. Convergence is max-abs gradient <= tolerance
    (default options.gradient_tolerance, unscaled). A step is halved until
    the value does not fall by more than rounding; when all _STEP_HALVINGS
    halvings fail, the ascent stops where it is, and that search counts no
    iteration. A step shorter than 1e-12 also stops the ascent. Returns
    (argmax, NewtonDiagnostics). An init already at the optimum returns
    immediately with 0 iterations.
    """
    beta = np.array(init, float, copy=True)
    if beta.ndim != 1:
        raise ValueError("maximize runs one problem: init must be 1-d")
    tol = options.gradient_tolerance if tolerance is None else tolerance
    value, grad, curvature = objective(beta)
    if not np.isfinite(value):
        raise NonFiniteObjectiveError("objective non-finite at the starting point")
    iterations = halvings = 0
    for _ in range(options.max_iterations):
        if np.abs(grad).max(initial=0.0) <= tol:
            break
        direction = directions(curvature, grad)
        step = 1.0
        # accept any non-decrease up to rounding noise
        least = value - 1e-12 * (1 + np.abs(value))
        for _ in range(_STEP_HALVINGS):
            candidate = beta + step * direction
            evaluation = objective(candidate)
            if np.isfinite(evaluation[0]) and evaluation[0] >= least:
                break
            step /= 2.0
            halvings += 1
        else:
            # no acceptable step: stop where it is
            break
        beta, (value, grad, curvature) = candidate, evaluation
        iterations += 1
        if step * np.abs(direction).max(initial=0.0) < 1e-12:
            break

    score_norm = float(np.abs(grad).max(initial=0.0))
    return beta, NewtonDiagnostics(iterations, bool(score_norm <= tol), score_norm, float(value),
                                   curvature, halvings)
