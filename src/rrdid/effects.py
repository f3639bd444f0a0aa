"""Effect transforms: proportional effects, odds-ratio effects, and the
nonparametric ratio statistics they must agree with in saturated designs.

An exponential-mean coefficient b maps to the proportional effect
exp(b) - 1 with delta-method standard error exp(b) * se(b). A logit or
multinomial coefficient maps to the same transform of the (class-c) odds
ratio. The log transform of a linear DD estimate, log(b / ybar_11 + 1),
is undefined when the argument is non-positive; Monte Carlo drivers treat
that as a signal to redraw the replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import RcsDataset, cell_masks, cell_mean
from .errors import EmptyCellError, RedrawRequired
from .estimators import standard_error

__all__ = [
    "EffectReport",
    "effect_report",
    "proportional_effect",
    "lin_dd_proportional",
    "double_ratio",
    "nonparametric_rr",
    "nonparametric_ror",
]

_KIND_BY_FAMILY = {
    "poisson_qmle": "proportional",
    "logit_qmle": "proportional_odds",
    "multinomial_logit": "class_c_proportional_odds",
}


@dataclass(frozen=True)
class EffectReport:
    """A coefficient restated as a percentage-style effect.

    effect = exp(beta) - 1 and se_effect = exp(beta) * se_beta, exactly.
    kind records what the underlying ratio is; rare_event_note marks an
    odds-ratio effect being read as an approximate relative risk.
    """

    beta: float
    se_beta: float
    effect: float
    se_effect: float
    t_value: float
    kind: str
    rare_event_note: bool = False


def effect_report(beta, se_beta, kind="proportional", rare_event_note=False):
    """Build an EffectReport from a raw estimate and standard error."""
    beta = float(beta)
    se_beta = float(se_beta)
    if se_beta < 0 or not math.isfinite(se_beta):
        raise ValueError("se_beta must be finite and non-negative")
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    if kind not in ("proportional", "proportional_odds", "class_c_proportional_odds"):
        raise ValueError(f"unknown effect kind {kind!r}")
    if se_beta == 0:
        t = float("nan") if beta == 0 else math.copysign(float("inf"), beta)
    else:
        t = beta / se_beta
    return EffectReport(
        beta=beta,
        se_beta=se_beta,
        effect=math.exp(beta) - 1.0,
        se_effect=math.exp(beta) * se_beta,
        t_value=t,
        kind=kind,
        rare_event_note=rare_event_note,
    )


def proportional_effect(fit, target, rare_event_note=False):
    """Effect report for one coefficient or a linear combination of them.

    target is a coefficient name, or a mapping name -> weight describing
    c'beta (e.g. {"treat": 1.0, "treat:age": age} for the effect at a
    covariate value); the standard error is sqrt(c' V c). The report kind
    follows the fit family. Non-converged fits are rejected.
    """
    if not fit.converged:
        raise ValueError("cannot report effects from a non-converged fit")
    try:
        kind = _KIND_BY_FAMILY[fit.family]
    except KeyError:
        raise ValueError(
            f"no proportional-effect reading for family {fit.family!r}; "
            "use lin_dd_proportional for linear fits"
        ) from None

    if isinstance(target, str):
        combo = {target: 1.0}
    else:
        combo = dict(target)
        if not combo:
            raise ValueError("target combination is empty")
    c = np.zeros(len(fit.names))
    for name, weight in combo.items():
        c[fit.index(name)] = float(weight)
    beta = float(c @ fit.coefficients)
    var = float(c @ fit.vcov @ c)
    se = standard_error(var, np.sum(np.abs(c)) ** 2 * np.max(np.abs(np.diag(fit.vcov))))
    return effect_report(beta, se, kind, rare_event_note)


def lin_dd_proportional(beta_d_hat, ybar_11):
    """log(beta_d_hat / ybar_11 + 1): the linear DD estimate restated on the
    proportional scale using the treated post-period mean level ybar_11.

    Raises RedrawRequired when the argument is non-positive, so simulation
    drivers can redraw the replication rather than record an undefined value.
    """
    ybar_11 = float(ybar_11)
    if not ybar_11 > 0:
        raise ValueError("ybar_11 must be positive")
    argument = float(beta_d_hat) / ybar_11 + 1.0
    if argument <= 0:
        raise RedrawRequired(
            f"log transform undefined: beta_d/ybar_11 + 1 = {argument:.6g} <= 0"
        )
    return math.log(argument)


def double_ratio(cells) -> float:
    """(r11/r10) / (r01/r00) for per-cell values keyed (group, post)."""
    return (cells[(1, 1)] / cells[(1, 0)]) / (cells[(0, 1)] / cells[(0, 0)])


def _filtered_cells(dataset: RcsDataset, post_period, covariate_cell):
    """cell_masks restricted to the covariate_cell rows; no cell may be empty."""
    masks = cell_masks(dataset, post_period)
    keep = np.ones(dataset.n, dtype=bool)
    if covariate_cell:
        for name, value in covariate_cell.items():
            if name not in dataset.covariates:
                raise ValueError(f"unknown covariate {name!r}")
            keep &= dataset.covariates[name] == value
    for (g, post), mask in masks.items():
        mask &= keep
        if not mask.any():
            raise EmptyCellError(
                f"cell (group={g}, {'post' if post else 'pre'}) is empty"
            )
    return masks


def nonparametric_rr(dataset: RcsDataset, post_period, covariate_cell=None):
    """Ratio-in-ratios of weighted cell means:
    (m11/m10) / (m01/m00) over the four (group, pre/post) cells.

    covariate_cell restricts to rows matching the given covariate values
    exactly. All four cell means must be positive.
    """
    means = {}
    for (g, post), mask in _filtered_cells(dataset, post_period, covariate_cell).items():
        means[(g, post)] = cell_mean(dataset, mask)
        if not means[(g, post)] > 0:
            raise ValueError(
                f"cell (group={g}, {'post' if post else 'pre'}) has non-positive mean"
            )
    return double_ratio(means)


def nonparametric_ror(dataset: RcsDataset, post_period, class_c=1, covariate_cell=None):
    """Ratio-in-odds-ratios for class class_c against class 0:
    R_qs = p(y = c) / p(y = 0) per cell, then (R11/R10) / (R01/R00).

    Weighted proportions; every cell needs positive mass on both classes.
    """
    ratios = {}
    for (g, post), mask in _filtered_cells(dataset, post_period, covariate_cell).items():
        p_c = cell_mean(dataset, mask, dataset.y == class_c)
        p_0 = cell_mean(dataset, mask, dataset.y == 0)
        if p_c <= 0 or p_0 <= 0:
            raise ValueError(
                f"cell (group={g}, {'post' if post else 'pre'}) has zero proportion "
                f"for class {class_c if p_c <= 0 else 0}"
            )
        ratios[(g, post)] = p_c / p_0
    return double_ratio(ratios)
