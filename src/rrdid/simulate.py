"""Monte Carlo machinery for the four-period two-group designs.

Each subject is a short panel (periods 0..3, treatment switches on for the
Q = 1 group in period 3); the repeated cross-section is sampled by keeping
one uniformly chosen period per subject. Replication r of a scenario draws
from an RNG stream keyed by (seed, r), so results depend only on the
scenario, and redraws within a replication extend that stream only. The
Monte Carlo driver seeds each stream once per process (the paper's tables
share one seed and one set of replication indices) and carries every
stream of a run on one generator, whose state it sets before each draw and
saves after it.

The Monte Carlo driver keeps only each draw's (q, t) cell counts and outcome
sums and fits every replication from them, all replications in one batch.
Its draw takes every random variate the panel draw takes, in the same order,
so its cells are bit for bit those of panel_to_rcs(dgp_draw(...)), but it
forms only the outcome of each subject's kept period, and it reduces each
draw to its cells before the next: no batch of draws is concatenated. Each
family's outcome formula is written once (_outcomes) and serves both draws.

Outcome families:
    positive   Y = exp(lin + N(0,1))
    count      Y ~ Poisson(exp(lin))
    censored   Y = sum of M iid exp(lin + N(0,1)) terms, M ~ Poisson(1)
    binary     Y = 1[lin + Logistic > 0]
    multinomial  argmax over class utilities with Gumbel noise
with lin = beta_t + beta_q Q + beta_qtau t Q + beta_d D.
"""

from __future__ import annotations

import functools
import math
import numbers
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
# the largest rate Generator.poisson accepts
_POISSON_RATE_MAX = float(np.iinfo(np.int64).max) - np.sqrt(np.iinfo(np.int64).max) * 10
_DESIGN = DesignSpec(post_period=POST_PERIOD, include_period_dummies=True,
                     include_group_trend=True)
# one row per (q, t) cell, in the order q * N_PERIODS + t
_CELLS = RcsDataset(y=np.zeros(2 * N_PERIODS), q=np.repeat([0, 1], N_PERIODS),
                    t=np.tile(np.arange(N_PERIODS), 2), n_periods=N_PERIODS)
_TREATED_POST = cell_masks(_CELLS, POST_PERIOD)[(1, 1)]
FAILURE_KINDS = ("not_converged", "OverflowGuardError", "SeparationError",
                 "SingularDesignError", "SingularHessianError")
# the McSummary rows; the binary family has no lindd_transform
_ROWS = ("qmle_beta_qtau", "qmle_beta_d", "lindd_beta_qtau", "lindd_beta_d",
         "lindd_transform")


def _integer(name: str, value, least: int) -> int:
    """value as an int, or ValueError unless it is a non-bool integer >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}")
    return int(value)


def _finite(name: str, value) -> float:
    """value as a float, or ValueError unless it is a finite number."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number, not {value!r}")
    return x


def _check_params(params, names) -> None:
    """Store params' betas_t and the named fields as finite floats, or raise ValueError."""
    betas = tuple(_finite("each betas_t entry", b) for b in params.betas_t)
    if len(betas) != N_PERIODS:
        raise ValueError(f"betas_t must have length {N_PERIODS}")
    object.__setattr__(params, "betas_t", betas)
    for name in names:
        object.__setattr__(params, name, _finite(name, getattr(params, name)))


@dataclass(frozen=True)
class MultinomialClassParams:
    """Utility parameters for one outcome class (class 0 included)."""

    betas_t: tuple = (0.0, 0.0, 0.0, 0.0)
    beta_q: float = 0.0
    beta_qtau: float = 0.0
    beta_d: float = 0.0

    def __post_init__(self):
        _check_params(self, ("beta_q", "beta_qtau", "beta_d"))


@dataclass(frozen=True)
class Scenario:
    """One Monte Carlo cell: family, true parameters, sample size, seed.

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
    count_shared_rate_intercept: bool = False
    censored_extra_term: bool = False
    multinomial_extras: tuple | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name, least in (("n", 1), ("repetitions", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        _check_params(self, ("beta_qtau", "beta_d", "beta_q"))
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
    """The RNG stream owned by one replication of one scenario: the stream of
    np.random.default_rng(ss), built without its argument checks."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication_index,))
    return np.random.Generator(np.random.PCG64(ss))


@functools.lru_cache(maxsize=1024)
def _initial_state(seed: int, replication_index: int) -> dict:
    """The bit generator state replication_rng(seed, replication_index)
    starts from, kept for the 1024 streams last asked for, which hold the
    1000 replications of the paper's tables. Every caller gets the same
    dict, to set a generator's state from, never to modify."""
    return replication_rng(seed, replication_index).bit_generator.state


@functools.cache
def _cell_design():
    """The Monte Carlo's design of the _CELLS cells, built once per process
    (a DesignMatrix, whose arrays are read-only)."""
    return build_design(_CELLS, _DESIGN)


def _linear_index(params) -> np.ndarray:
    """(2, 4) index of each (q, t) cell from a Scenario's or a MultinomialClassParams' betas."""
    q = np.arange(2)
    t = np.arange(N_PERIODS)
    d = q[:, None] * (t == POST_PERIOD)
    with np.errstate(over="ignore", invalid="ignore"):
        lin = (
            np.asarray(params.betas_t)[None, :]
            + params.beta_q * q[:, None]
            + params.beta_qtau * t[None, :] * q[:, None]
            + params.beta_d * d
        )
    if not np.isfinite(lin).all():
        raise ValueError("DGP linear index is not finite; check parameters")
    return lin


def _draw_group(n: int, rng: np.random.Generator) -> np.ndarray:
    """Each subject's group Q, the first draw of every replication."""
    return (rng.random(n) < 0.5).astype(np.int64)


class _NormalBuffer:
    """One buffer that draws of standard normals reuse, grown when a draw
    needs more; a draw's normals are valid until the next draw."""

    def __init__(self):
        self._buffer = np.empty(0)

    def draw(self, rng: np.random.Generator, shape: tuple) -> np.ndarray:
        """rng.standard_normal(shape), the same stream, in the buffer."""
        size = math.prod(shape)
        if self._buffer.size < size:
            self._buffer = np.empty(size)
        return rng.standard_normal(out=self._buffer[:size].reshape(shape))


def _count_rates(scenario: Scenario, lin: np.ndarray) -> np.ndarray:
    """(2, 4) Poisson rate of each (q, t) cell for the count family, from the
    _linear_index table lin; an overflow gives inf, which _draw_variates
    refuses for the draws it reaches."""
    if scenario.count_shared_rate_intercept:
        lin = lin - np.asarray(scenario.betas_t)[None, :] + scenario.betas_t[1]
    return np.exp(lin)


def _draw_variates(scenario: Scenario, rates: np.ndarray, q: np.ndarray,
                   rng: np.random.Generator, normals: _NormalBuffer) -> tuple:
    """The family's random variates for every (subject, period), drawn from rng.

    rates is the count family's _count_rates table, which the other families
    ignore. Each returned array ends in the (n, 4) subject and period axes,
    so the outcomes of any set of entries are _outcomes of the arrays indexed
    there. The censored family's normals go into normals, so they are valid
    until its next draw. The caller ignores overflow, which the rate and
    outcome checks decide on, and division by zero, the log of a binary
    uniform of 0.

    The binary family draws uniforms u, which take the same words of the
    stream as rng.logistic, and _outcomes turns the kept ones into the
    logistic variate log(u / (1 - u)), rng.logistic's own formula. An
    outcome can differ from lin + rng.logistic(...) > 0 on the same stream
    in two cases: a uniform that is exactly 0, with probability 2^-53, for
    which rng.logistic draws again; and np.log's SIMD loop, which differs
    from the C library's log by one ulp in about 0.2% of values, which flips
    an outcome only when |lin + u| is within an ulp of 0.
    """
    n = q.size
    family = scenario.family
    if family == "positive":
        return (rng.standard_normal((n, N_PERIODS)),)
    if family == "count":
        rate = rates[q]
        if not np.all(rate <= _POISSON_RATE_MAX):
            raise ValueError("DGP produced a Poisson rate too large to draw from; "
                             "check parameters")
        return (rng.poisson(rate),)
    if family == "censored":
        m = rng.poisson(1.0, n)
        if scenario.censored_extra_term:
            m = m + 1
        # one call draws the same stream as m.max() calls of shape (n, 4)
        z = normals.draw(rng, (int(m.max()), n, N_PERIODS))
        return np.broadcast_to(m[:, None], (n, N_PERIODS)), z
    if family == "binary":
        return (rng.random((n, N_PERIODS)),)
    raise ValueError(f"unknown family {family!r}")  # pragma: no cover - Scenario checks


def _outcomes(scenario: Scenario, lin: np.ndarray, variates: tuple) -> np.ndarray:
    """Outcomes of a set of (subject, period) entries from their index and variates."""
    family = scenario.family
    if family == "positive":
        (z,) = variates
        y = np.exp(lin + z)
    elif family == "count":
        (k,) = variates
        y = k.astype(float)
    elif family == "censored":
        m, z = variates
        j = np.arange(len(z)).reshape((-1,) + (1,) * m.ndim)
        # the builtin sum adds the summands j < M in the order of j, from 0;
        # an axis-0 np.sum of one subject's summands would add them pairwise
        y = sum(np.where(j < m, np.exp(lin + z), 0.0), np.zeros(lin.shape))
    else:  # binary, from uniforms; a uniform of 0 gives a variate of -inf
        (u,) = variates
        y = (lin + np.log(u / (1.0 - u)) > 0).astype(float)
    if not np.isfinite(y).all():
        raise ValueError("DGP produced non-finite outcomes; check parameters")
    return y


def _draw_panel(scenario: Scenario, rng: np.random.Generator) -> Panel:
    n = scenario.n
    q = _draw_group(n, rng)

    if scenario.family == "multinomial":
        n_total = len(scenario.multinomial_extras)
        utilities = np.empty((n, N_PERIODS, n_total))
        for j, params in enumerate(scenario.multinomial_extras):
            utilities[:, :, j] = _linear_index(params)[q]
        utilities += rng.gumbel(size=(n, N_PERIODS, n_total))
        y = np.argmax(utilities, axis=2).astype(float)
        return Panel(y=y, q=q)

    lin = _linear_index(scenario)
    with np.errstate(over="ignore", divide="ignore"):
        variates = _draw_variates(scenario, _count_rates(scenario, lin), q, rng,
                                  _NormalBuffer())
        return Panel(y=_outcomes(scenario, lin[q], variates), q=q)


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


def _draw_cells(scenario: Scenario, rng: np.random.Generator, states: list, reps):
    """(counts, sums) of the _CELLS cells of one draw from each replication
    stream in reps, as (len(reps), 8) float arrays.

    states[r] is the bit generator state of replication r's stream. rng
    carries every draw: its state is set from states[r] before replication
    r's draw, and states[r] is replaced by the state after it, so a redraw
    continues that stream only. Bit for bit the cells of
    panel_to_rcs(dgp_draw(...)) on the same stream: each draw takes every
    random variate _draw_panel and _sample_periods take, in their order, but
    forms only the outcome of each subject's kept period, and only those
    outcomes are checked for overflow. Each draw is reduced to its cells, by
    a bincount as for its own rows, before the next is drawn, so no array
    spans the batch's subjects, and the censored family's normals of every
    draw share one buffer.
    """
    n = scenario.n
    lin = _linear_index(scenario)
    # each subject's first entry in the flattened subject and period axes
    first = np.arange(0, n * N_PERIODS, N_PERIODS)
    counts, sums = np.empty((2, len(reps), _CELLS.n))
    normals = _NormalBuffer()
    bit_generator = rng.bit_generator
    with np.errstate(over="ignore", divide="ignore"):
        rates = _count_rates(scenario, lin)
        for rep, count, total in zip(reps, counts, sums):
            bit_generator.state = states[rep]
            q = _draw_group(n, rng)
            variates = _draw_variates(scenario, rates, q, rng, normals)
            t = rng.integers(0, N_PERIODS, size=n)
            states[rep] = bit_generator.state
            kept = first + t
            cell = q * N_PERIODS + t
            y = _outcomes(scenario, lin.reshape(-1).take(cell),
                          [v.reshape(v.shape[:-2] + (n * N_PERIODS,)).take(kept, axis=-1)
                           for v in variates])
            count[:] = np.bincount(cell, minlength=_CELLS.n)
            total[:] = np.bincount(cell, weights=y, minlength=_CELLS.n)
    return counts, sums


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
    """(failure kinds, estimates) of the draws, fitted on their cell counts and sums.

    kinds holds each draw's FAILURE_KINDS entry, or None for a fitted draw.
    estimates is a (draws, rows) array in _ROWS order, without the
    transform row for the binary family; a fitted draw's lindd_transform is
    NaN where the log transform is undefined, and the caller draws it again.
    """
    trend, treat = design.index("group_trend"), design.index("treat")
    binary = scenario.family == "binary"
    (qbeta, qfailed), (lbeta, lfailed) = fit_cell_sums(
        ("logit_qmle" if binary else "poisson_qmle", "ols"), design, counts, sums)
    kinds = [q or l for q, l in zip(qfailed, lfailed)]
    rows = [qbeta[:, trend], qbeta[:, treat], lbeta[:, trend], lbeta[:, treat]]
    if not binary:
        # a failed draw may have no observation in the treated post cell
        with np.errstate(divide="ignore", invalid="ignore"):
            ybar = sums[:, _TREATED_POST].sum(axis=1) / counts[:, _TREATED_POST].sum(axis=1)
        if counterfactual:
            ybar = ybar - lbeta[:, treat]
        transform = np.full(len(kinds), math.nan)
        beta_d, level = lbeta[:, treat].tolist(), ybar.tolist()
        for i in np.flatnonzero([kind is None for kind in kinds]).tolist():
            try:
                transform[i] = lin_dd_proportional(beta_d[i], level[i])
            except (ValueError, RedrawRequired):  # undefined where ybar <= 0, too
                pass
        rows.append(transform)
    return kinds, np.column_stack(rows)


def run_monte_carlo(scenario: Scenario, counterfactual_transform_mean: bool = False) -> McSummary:
    """Replicate a scenario and summarize |bias|, SD, and RMSE per estimator.

    Each replication fits the family's QMLE (Poisson for the exponential-mean
    families, logit for binary) and the linear DD regression on the same
    design (period dummies, group, group trend, treatment). Regressors are
    constant within the eight (q, t) cells, so _draw_cells reduces each draw
    to its cell counts and sums as it draws it, and fit_cell_sums fits the
    batch: the QMLE exactly in its dual where every cell's mean is interior,
    else by one Newton per replication, with the row-level fits' stopping
    rules and guards, and the linear DD in closed form. The estimates are one replications x rows
    array, summarized over a mask of the fitted replications. Replications
    whose QMLE fails are excluded; more than 5% failures aborts. A fitted
    draw whose transform is NaN (undefined) is redrawn in full, extending
    only that replication's stream, within a smaller batch. The draws run in
    one thread, in replication order, all carried by one generator: each
    replication's stream starts from its replication_rng state, computed
    once per process for the streams last used (_initial_state), and its
    state is saved after each draw for its redraws. The cell design and
    its bases are likewise built once per process.

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
    design = _cell_design()
    names = _ROWS[:4] if scenario.family == "binary" else _ROWS
    states = [_initial_state(scenario.seed, rep) for rep in range(reps)]
    # its own seed is never drawn from: _draw_cells sets its state
    rng = np.random.Generator(np.random.PCG64(0))
    estimates = np.empty((reps, len(names)))
    fitted = np.zeros(reps, dtype=bool)
    failures = dict.fromkeys(FAILURE_KINDS, 0)
    redraws = 0
    pending = np.arange(reps)
    for _ in range(_MAX_REDRAWS):
        counts, sums = _draw_cells(scenario, rng, states, pending.tolist())
        kinds, est = _fit_draws(scenario, design, counts, sums,
                                counterfactual_transform_mean)
        for kind in filter(None, kinds):
            failures[kind] += 1
        ok = np.array([kind is None for kind in kinds])
        redraw = ok & np.isnan(est).any(axis=1)
        done = ok & ~redraw
        estimates[pending[done]] = est[done]
        fitted[pending[done]] = True
        pending = pending[redraw]
        redraws += pending.size
        if not pending.size:
            break
    if pending.size:
        raise MonteCarloAbort(
            f"replication {pending[0]} exceeded {_MAX_REDRAWS} redraws of the log transform"
        )

    effective = int(fitted.sum())
    failed = reps - effective
    if failed > 0.05 * reps:
        by_kind = ", ".join(f"{kind} {count}" for kind, count in failures.items() if count)
        raise MonteCarloAbort(
            f"{failed} of {reps} replications failed ({by_kind}); "
            "the summary would be misleading"
        )

    # the abort rule leaves at least one replication; each row's values are
    # contiguous, so every reduction adds them in replication order
    rows = {}
    for key, values in zip(names, np.ascontiguousarray(estimates[fitted].T)):
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
        effective_repetitions=effective,
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
