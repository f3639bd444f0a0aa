"""Monte Carlo machinery for the four-period two-group designs.

Each subject is a short panel (periods 0..3, treatment switches on for the
Q = 1 group in period 3); the repeated cross-section is sampled by keeping
one uniformly chosen period per subject. Replication r of a scenario draws
from an RNG stream keyed by (seed, r), so results are independent of thread
count and redraws within a replication extend that stream only.

The Monte Carlo driver keeps only each draw's (q, t) cell counts and outcome
sums and fits every replication from them, all replications in one batch.

Outcome families:
    positive   Y = exp(lin + N(0,1))
    count      Y ~ Poisson(exp(lin))
    censored   Y = sum of M iid exp(lin + N(0,1)) terms, M ~ Poisson(1)
    binary     Y = 1[lin + Logistic > 0]
    multinomial  argmax over class utilities with Gumbel noise
with lin = beta_t + beta_q Q + beta_qtau t Q + beta_d D.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .design import DesignSpec, RcsDataset, build_design, cell_masks
from .effects import double_ratio, lin_dd_proportional
from .errors import MonteCarloAbort, RedrawRequired
from .estimators import fit_cell_sums
# Not called here, since replications are fitted on cell sums; they stay
# bound because bench/tracing.py wraps these names on this module.
from .estimators import fit_logit_qmle, fit_ols, fit_poisson_qmle  # noqa: F401

__all__ = [
    "Scenario",
    "MultinomialClassParams",
    "Panel",
    "McRow",
    "McSummary",
    "dgp_draw",
    "panel_to_rcs",
    "run_monte_carlo",
    "analytic_trend_check",
    "replication_rng",
]

N_PERIODS = 4
POST_PERIOD = 3
FAMILIES = ("positive", "count", "censored", "binary", "multinomial")
_MAX_REDRAWS = 1000
_DESIGN = DesignSpec(post_period=POST_PERIOD, include_period_dummies=True,
                     include_group_trend=True)
# one row per (q, t) cell, in the order q * N_PERIODS + t
_CELLS = RcsDataset(y=np.zeros(2 * N_PERIODS), q=np.repeat([0, 1], N_PERIODS),
                    t=np.tile(np.arange(N_PERIODS), 2), n_periods=N_PERIODS)
FAILURE_KINDS = ("not_converged", "OverflowGuardError", "SeparationError",
                 "SingularDesignError", "SingularHessianError")


def _check_betas_t(params) -> None:
    """Store params.betas_t as a tuple of N_PERIODS floats, or raise ValueError."""
    betas = tuple(float(b) for b in params.betas_t)
    if len(betas) != N_PERIODS:
        raise ValueError(f"betas_t must have length {N_PERIODS}")
    object.__setattr__(params, "betas_t", betas)


@dataclass(frozen=True)
class MultinomialClassParams:
    """Utility parameters for one outcome class (class 0 included)."""

    betas_t: tuple = (0.0, 0.0, 0.0, 0.0)
    beta_q: float = 0.0
    beta_qtau: float = 0.0
    beta_d: float = 0.0

    def __post_init__(self):
        _check_betas_t(self)


@dataclass(frozen=True)
class Scenario:
    """One Monte Carlo cell: family, true parameters, sample size, seed.

    noise_scale exists for tests that need the noise switched off;
    count_shared_rate_intercept and censored_extra_term expose the
    alternative readings of the count rate and censored sum for
    sensitivity runs (defaults follow the period-specific rate and a
    sum over j = 1..M, which can be zero).
    """

    family: str
    n: int
    repetitions: int
    seed: int
    beta_qtau: float = 0.0
    beta_d: float = 0.0
    betas_t: tuple = (-2.0, -2.0, -1.0, -1.0)
    beta_q: float = 0.5
    noise_scale: float = 1.0
    count_shared_rate_intercept: bool = False
    censored_extra_term: bool = False
    multinomial_extras: tuple | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        _check_betas_t(self)
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")
        if self.family == "multinomial":
            if not self.multinomial_extras or len(self.multinomial_extras) < 2:
                raise ValueError(
                    "multinomial scenarios need class parameters for class 0 "
                    "and at least one more class"
                )
            object.__setattr__(
                self, "multinomial_extras", tuple(self.multinomial_extras)
            )
        elif self.multinomial_extras is not None:
            raise ValueError("multinomial_extras only applies to the multinomial family")


@dataclass(frozen=True)
class Panel:
    """Simulated outcomes for all periods: y is (n, 4), q is (n,)."""

    y: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, float, copy=True)
        q = np.array(self.q, np.int64, copy=True)
        y.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "q", q)


def replication_rng(seed: int, replication_index: int) -> np.random.Generator:
    """The RNG stream owned by one replication of one scenario."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication_index,))
    return np.random.default_rng(ss)


def _linear_index(params, q: np.ndarray) -> np.ndarray:
    """(n, 4) index from a Scenario's or a MultinomialClassParams' betas."""
    t = np.arange(N_PERIODS)
    d = q[:, None] * (t == POST_PERIOD)
    lin = (
        np.asarray(params.betas_t)[None, :]
        + params.beta_q * q[:, None]
        + params.beta_qtau * t[None, :] * q[:, None]
        + params.beta_d * d
    )
    return lin


def _draw_panel(scenario: Scenario, rng: np.random.Generator) -> Panel:
    n = scenario.n
    q = (rng.random(n) < 0.5).astype(np.int64)
    family = scenario.family

    if family == "multinomial":
        n_total = len(scenario.multinomial_extras)
        utilities = np.empty((n, N_PERIODS, n_total))
        for j, params in enumerate(scenario.multinomial_extras):
            utilities[:, :, j] = _linear_index(params, q)
        utilities += scenario.noise_scale * rng.gumbel(size=(n, N_PERIODS, n_total))
        y = np.argmax(utilities, axis=2).astype(float)
        return Panel(y=y, q=q)

    lin = _linear_index(scenario, q)
    if family == "positive":
        y = np.exp(lin + scenario.noise_scale * rng.standard_normal((n, N_PERIODS)))
    elif family == "count":
        if scenario.count_shared_rate_intercept:
            rate_lin = lin - np.asarray(scenario.betas_t)[None, :] + scenario.betas_t[1]
        else:
            rate_lin = lin
        y = rng.poisson(np.exp(rate_lin)).astype(float)
    elif family == "censored":
        m = rng.poisson(1.0, n)
        if scenario.censored_extra_term:
            m = m + 1
        y = np.zeros((n, N_PERIODS))
        for j in range(int(m.max()) if m.size else 0):
            z = np.exp(lin + scenario.noise_scale * rng.standard_normal((n, N_PERIODS)))
            y += np.where((m > j)[:, None], z, 0.0)
    elif family == "binary":
        u = scenario.noise_scale * rng.logistic(size=(n, N_PERIODS))
        y = (lin + u > 0).astype(float)
    else:  # pragma: no cover - guarded by Scenario validation
        raise ValueError(f"unknown family {family!r}")
    if not np.all(np.isfinite(y)):
        raise ValueError("DGP produced non-finite outcomes; check parameters")
    return Panel(y=y, q=q)


def dgp_draw(scenario: Scenario, replication_index: int,
             rng: np.random.Generator | None = None) -> Panel:
    """Draw the full panel for one replication.

    Deterministic given (scenario.seed, replication_index); pass an rng to
    continue an existing replication stream instead (used for redraws).
    """
    if rng is None:
        rng = replication_rng(scenario.seed, replication_index)
    return _draw_panel(scenario, rng)


def panel_to_rcs(panel: Panel, scenario: Scenario, replication_index: int,
                 rng: np.random.Generator | None = None) -> RcsDataset:
    """Keep one uniformly chosen period per subject (repeated cross-section).

    When no rng is passed, the stream is re-derived from (seed,
    replication_index); drivers that already consumed that stream for the
    panel draw should pass their rng so the sampling continues it.
    """
    if rng is None:
        # a fresh (seed, rep) stream would replay the very words the
        # panel's group draw consumed, tying the sampled period to q;
        # a spawned child stream is independent of the parent
        ss = np.random.SeedSequence(entropy=scenario.seed, spawn_key=(replication_index,))
        rng = np.random.default_rng(ss.spawn(1)[0])
    y, s = _sample_periods(panel, rng)
    return RcsDataset(y=y, q=panel.q, t=s, n_periods=N_PERIODS)


def _sample_periods(panel: Panel, rng: np.random.Generator):
    """(y, t): each subject's outcome in one period t drawn uniformly from rng."""
    t = rng.integers(0, N_PERIODS, size=panel.y.shape[0])
    return panel.y[np.arange(t.size), t], t


def _draw_cells(scenario: Scenario, rng: np.random.Generator):
    """Observation counts and outcome sums of the _CELLS cells of one draw from rng."""
    panel = _draw_panel(scenario, rng)
    y, t = _sample_periods(panel, rng)
    cell = panel.q * N_PERIODS + t
    return (np.bincount(cell, minlength=_CELLS.n),
            np.bincount(cell, weights=y, minlength=_CELLS.n))


@dataclass(frozen=True)
class McRow:
    abs_bias: float
    sd: float
    rmse: float


@dataclass(frozen=True)
class McSummary:
    """Bias/SD/RMSE per estimator row, plus bookkeeping.

    Row keys: qmle_beta_qtau, qmle_beta_d (exponential-mean or logit QMLE),
    lindd_beta_qtau, lindd_beta_d (linear DD), and lindd_transform
    (log(beta_d/ybar + 1), absent for the binary family). SDs use the
    replication count as denominator, so rmse^2 = abs_bias^2 + sd^2.
    failures_by_kind counts the failed replications by FAILURE_KINDS entry:
    a QMLE that did not converge, or the error the row-level fit raises.
    """

    scenario: Scenario
    rows: dict = field(default_factory=dict)
    redraw_count: int = 0
    failures_by_kind: dict = field(default_factory=dict)
    effective_repetitions: int = 0
    failed_repetitions: int = 0


def _fit_draws(scenario, design, counts, sums, counterfactual):
    """(failure kind, estimates) of each draw, fitted on its cell counts and sums.

    estimates is None for a failed fit and for a draw whose log transform is
    undefined, which the caller draws again.
    """
    trend, treat = design.index("group_trend"), design.index("treat")
    qmle = "logit_qmle" if scenario.family == "binary" else "poisson_qmle"
    qbeta, qfailed = fit_cell_sums(qmle, design, counts, sums)
    lbeta, lfailed = fit_cell_sums("ols", design, counts, sums)
    post = cell_masks(_CELLS, POST_PERIOD)[(1, 1)]
    out = []
    for i in range(counts.shape[0]):
        kind = qfailed[i] or lfailed[i]
        if kind is not None:
            out.append((kind, None))
            continue
        est = {
            "qmle_beta_qtau": float(qbeta[i, trend]),
            "qmle_beta_d": float(qbeta[i, treat]),
            "lindd_beta_qtau": float(lbeta[i, trend]),
            "lindd_beta_d": float(lbeta[i, treat]),
        }
        if scenario.family != "binary":
            # a fitted design has observations in the treated post cell
            ybar = float(sums[i, post].sum() / counts[i, post].sum())
            if counterfactual:
                ybar = ybar - est["lindd_beta_d"]
            if ybar <= 0:
                est = None
            else:
                try:
                    est["lindd_transform"] = lin_dd_proportional(est["lindd_beta_d"], ybar)
                except RedrawRequired:
                    est = None
        out.append((None, est))
    return out


def run_monte_carlo(scenario: Scenario, threads: int = 1,
                    counterfactual_transform_mean: bool = False) -> McSummary:
    """Replicate a scenario and summarize |bias|, SD, and RMSE per estimator.

    Each replication fits the family's QMLE (Poisson for the exponential-mean
    families, logit for binary) and the linear DD regression on the same
    design (period dummies, group, group trend, treatment). Regressors are
    constant within the eight (q, t) cells, so each replication is kept as
    its cell counts and sums, and all of them are fitted in one batch by
    fit_cell_sums, with the row-level fits' stopping rules and guards.
    Replications whose QMLE fails are excluded; more than 5% failures aborts.
    A draw whose log transform is undefined is redrawn in full, extending
    only that replication's stream, and the redrawn replications are refitted
    as a smaller batch; summaries are identical for any thread count, which
    only spreads the draws.

    counterfactual_transform_mean rescales the transform by the implied
    untreated mean (observed treated-post mean minus the DD estimate)
    instead of the observed mean.
    """
    if scenario.family == "multinomial":
        raise ValueError(
            "run_monte_carlo covers the positive, count, censored, and binary "
            "families; multinomial scenarios are for dgp_draw and the analytic checks"
        )
    reps = scenario.repetitions
    design = build_design(_CELLS, _DESIGN)
    rngs = [replication_rng(scenario.seed, rep) for rep in range(reps)]
    estimates = [None] * reps
    failures = dict.fromkeys(FAILURE_KINDS, 0)
    redraws = 0
    pending = list(range(reps))
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for _ in range(_MAX_REDRAWS):
            draws = (pool.map if pool else map)(lambda rep: _draw_cells(scenario, rngs[rep]),
                                                pending)
            counts, sums = (np.array(part, float) for part in zip(*draws))
            redrawn = []
            fits = _fit_draws(scenario, design, counts, sums, counterfactual_transform_mean)
            for rep, (kind, est) in zip(pending, fits):
                if kind is not None:
                    failures[kind] += 1
                elif est is None:
                    redrawn.append(rep)
                else:
                    estimates[rep] = est
            redraws += len(redrawn)
            pending = redrawn
            if not pending:
                break
    if pending:
        raise MonteCarloAbort(
            f"replication {pending[0]} exceeded {_MAX_REDRAWS} redraws of the log transform"
        )

    ok = [est for est in estimates if est is not None]
    failed = reps - len(ok)
    if failed > 0.05 * reps:
        raise MonteCarloAbort(
            f"{failed} of {reps} replications failed to converge; "
            "the summary would be misleading"
        )

    # the abort rule leaves at least one replication, and every one
    # carries the same rows
    rows = {}
    for key in ok[0]:
        values = np.array([est[key] for est in ok])
        truth = scenario.beta_qtau if key.endswith("beta_qtau") else scenario.beta_d
        mean = float(values.mean())
        rows[key] = McRow(
            abs_bias=abs(mean - truth),
            sd=float(np.sqrt(np.mean((values - mean) ** 2))),
            rmse=float(np.sqrt(np.mean((values - truth) ** 2))),
        )

    return McSummary(
        scenario=scenario,
        rows=rows,
        redraw_count=redraws,
        failures_by_kind=failures,
        effective_repetitions=len(ok),
        failed_repetitions=failed,
    )


def analytic_trend_check(model: str, beta_qtau: float, *,
                         beta_pre: float = -1.0, beta_tau: float = 0.5,
                         beta_q: float = 0.5, covariate_shift: float = 0.0,
                         class_contrasts=None, class_c: int = 1) -> float:
    """Population double ratio of the untreated process across periods 2 and 3.

    Evaluates the four cell means (exponential model), odds (logit), or
    class-c odds against class 0 (multinomial, class_contrasts giving
    (pre, post, group) contrast terms per non-base class), then forms the
    ratio-in-ratios. With a group trend beta_qtau per unit of t this equals
    exp(beta_qtau) exactly; it is the identification check that the double
    ratio is 1 when no differential trend exists.
    """
    pre_t, post_t = 2, 3

    def index(q, s):
        t = pre_t + s
        return (beta_pre + beta_tau * s + beta_q * q
                + beta_qtau * t * q + covariate_shift)

    if model in ("exponential", "logit"):
        # the exponential mean is exp(index), and so are the population odds
        # p/(1-p) of a logistic model; the closed form avoids the 1-p
        # cancellation at extreme indexes
        return double_ratio({(q, s): math.exp(index(q, s)) for q in (0, 1) for s in (0, 1)})
    if model == "multinomial":
        if not class_contrasts:
            raise ValueError("multinomial check needs class_contrasts")
        contrasts = [tuple(float(v) for v in c) for c in class_contrasts]
        if any(len(c) != 3 for c in contrasts):
            raise ValueError("each class contrast is (pre, post, group)")
        if not 1 <= class_c <= len(contrasts):
            raise ValueError("class_c outside the contrast classes")
        r = {}
        for q in (0, 1):
            for s in (0, 1):
                t = pre_t + s
                etas = [d_pre if s == 0 else d_post for (d_pre, d_post, _) in contrasts]
                etas = [
                    e + dq * q + beta_qtau * t * q
                    for e, (_, _, dq) in zip(etas, contrasts)
                ]
                # p_c / p_0: the shared softmax denominator cancels
                r[(q, s)] = math.exp(etas[class_c - 1])
        return double_ratio(r)
    raise ValueError(f"unknown model {model!r}")
