"""Newton ascent, for one problem or a batch of them: each step is halved,
at most _STEP_HALVINGS times, until the maximand does not decrease."""

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
    """How a Newton ascent ended; for a batch each field holds one entry per
    problem, and singular marks the problems stopped by a singular Hessian
    (a single problem raises SingularHessianError instead). hessian is the
    objective's curvature output at the returned point, from its last
    accepted evaluation (the Hessian, under the default direction rule), and
    step_halvings counts the halved Newton steps over all iterations."""

    iterations: int
    converged: bool
    score_norm: float
    value: float
    singular: bool = False
    hessian: np.ndarray | None = None
    step_halvings: int = 0


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


def maximize(objective, init, options: FitOptions = FitOptions(), tolerance=None,
             directions=_newton_directions):
    """Newton ascent with step halving, for one problem or a batch of them.

    objective(beta) must return (value, gradient, curvature), and
    directions(curvature, gradient), for a batch of problems, their Newton
    directions and which of them are singular (direction 0). By default the
    curvature is the Hessian and the directions solve -hessian d = gradient
    (_newton_directions); a caller that knows the Hessian's structure can
    hand back less and solve for the same directions its own way.
    Convergence is max-abs gradient <= tolerance (default
    options.gradient_tolerance, unscaled); a step shorter than 1e-12 also
    stops the iteration. Returns (argmax, NewtonDiagnostics). An init
    already at the optimum returns immediately with 0 iterations.

    A 2-d init (B, p) runs B problems in one loop: objective then maps (B, p)
    to values (B,), gradients (B, p) and curvatures (B, ...), Hessians (B,
    p, p) by default, tolerance may hold one entry per problem, every
    decision above is taken per problem, and the diagnostics hold arrays. A
    1-d init is a batch of one.
    """
    tol = options.gradient_tolerance if tolerance is None else np.asarray(tolerance, float)
    beta = np.array(init, float, copy=True)
    if beta.ndim == 1:
        def batch_of_one(b):
            value, grad, curvature = objective(b[0])
            return np.array([value]), np.asarray(grad)[None], np.asarray(curvature)[None]

        beta, diag = maximize(batch_of_one, beta[None], options, tol, directions)
        if diag.singular[0]:
            raise SingularHessianError("Hessian is singular at the current iterate")
        return beta[0], NewtonDiagnostics(int(diag.iterations[0]), bool(diag.converged[0]),
                                          float(diag.score_norm[0]), float(diag.value[0]),
                                          hessian=diag.hessian[0],
                                          step_halvings=int(diag.step_halvings[0]))

    value, grad, curvature = objective(beta)
    if not np.all(np.isfinite(value)):
        raise NonFiniteObjectiveError("objective non-finite at the starting point")
    n_problems = beta.shape[0]
    iterations = np.zeros(n_problems, int)
    halvings = np.zeros(n_problems, int)
    singular = np.zeros(n_problems, bool)
    running = np.ones(n_problems, bool)
    for _ in range(options.max_iterations):
        running &= ~(np.abs(grad).max(axis=1, initial=0.0) <= tol)
        if not running.any():
            break
        if running.all():
            # no problem has stopped, so none is singular yet
            direction, singular = directions(curvature, grad)
        else:
            direction = np.zeros_like(beta)
            direction[running], singular[running] = directions(curvature[running], grad[running])
        running &= ~singular

        step = np.ones(n_problems)
        searching = running.copy()
        # accept any non-decrease up to rounding noise; a searching problem's
        # value does not change until it accepts
        least = value - 1e-12 * (1 + np.abs(value))
        for _ in range(_STEP_HALVINGS):
            candidate = beta + step[:, None] * direction
            cand_value, cand_grad, cand_curvature = objective(candidate)
            accept = searching & np.isfinite(cand_value) & (cand_value >= least)
            if accept.all():
                # every problem steps: keep the candidate's arrays, as the start keeps the first
                beta, value, grad, curvature = candidate, cand_value, cand_grad, cand_curvature
                searching[:] = False
                break
            for kept, new in zip((beta, value, grad, curvature),
                                 (candidate, cand_value, cand_grad, cand_curvature)):
                np.copyto(kept, new, where=accept.reshape((-1,) + (1,) * (kept.ndim - 1)))
            searching &= ~accept
            if not searching.any():
                break
            step[searching] /= 2.0
            halvings += searching
        # a problem with no acceptable step stops where it is
        running &= ~searching
        iterations += running
        running &= ~(step * np.abs(direction).max(axis=1, initial=0.0) < 1e-12)

    score_norm = np.abs(grad).max(axis=1, initial=0.0)
    return beta, NewtonDiagnostics(iterations, score_norm <= tol, score_norm, value, singular,
                                   curvature, halvings)

