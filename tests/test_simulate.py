import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from rrdid import (
    DesignSpec,
    MultinomialClassParams,
    RcsDataset,
    build_design,
    fit_logit_qmle,
    fit_ols,
    fit_poisson_qmle,
    Scenario,
    analytic_trend_check,
    dgp_draw,
    panel_to_rcs,
    replication_rng,
    run_monte_carlo,
)
from rrdid import simulate
from rrdid.errors import (
    MonteCarloAbort,
    OverflowGuardError,
    SeparationError,
    SingularDesignError,
    SingularHessianError,
)
from rrdid.estimators import FitOptions, fit_cell_sums
from rrdid.simulate import (_CELLS, _DESIGN, _POISSON_RATE_MAX, _ROWS, FAILURE_KINDS,
                            N_PERIODS, POST_PERIOD, McRow, McSummary, _draw_cells,
                            _fit_draws, _initial_state)


TIGHT = FitOptions(gradient_tolerance=1e-13)


def scenario(**kw):
    base = dict(family="positive", n=100, repetitions=2, seed=0)
    base.update(kw)
    return Scenario(**base)


def linear_index(sc, q, t):
    d = q * (t == POST_PERIOD)
    return (sc.betas_t[t] + sc.beta_q * q + sc.beta_qtau * t * q + sc.beta_d * d)


def draw_cells(sc, rngs):
    """_draw_cells of one draw from each of rngs, carried by one generator as
    run_monte_carlo carries them; each of rngs is left in the state its own
    draw would leave it in."""
    states = [rng.bit_generator.state for rng in rngs]
    cells = _draw_cells(sc, np.random.Generator(np.random.PCG64(0)), states, range(len(rngs)))
    for rng, state in zip(rngs, states):
        rng.bit_generator.state = state
    return cells


# --- scenario validation ------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(family="gamma"),
    dict(n=0),
    dict(repetitions=0),
    dict(seed=-1),
    dict(seed=1.5),
    dict(seed=True),
    dict(n=2.5),
    dict(n=True),
    dict(n=np.bool_(True)),
    dict(repetitions=2.5),
    dict(repetitions=False),
    dict(betas_t=(0.0, 0.0)),
    dict(betas_t=(0.0, 0.0, math.nan, 0.0)),
    dict(beta_d=math.nan),
    dict(beta_qtau=math.inf),
    dict(beta_q=-math.inf),
    dict(beta_d="half"),
    dict(family="multinomial"),
    dict(family="multinomial", multinomial_extras=(MultinomialClassParams(),)),
    dict(multinomial_extras=(MultinomialClassParams(), MultinomialClassParams())),
])
def test_scenario_validation(bad):
    with pytest.raises(ValueError):
        scenario(**bad)


def test_multinomial_class_params_length():
    with pytest.raises(ValueError):
        MultinomialClassParams(betas_t=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="beta_d must be a finite number"):
        MultinomialClassParams(beta_d=math.nan)


def test_scenario_takes_numpy_integers_as_python_ints():
    sc = scenario(n=np.int64(40), repetitions=np.int32(2), seed=np.uint8(3))
    assert (sc.n, sc.repetitions, sc.seed) == (40, 2, 3)
    assert all(type(v) is int for v in (sc.n, sc.repetitions, sc.seed))
    assert dgp_draw(sc, 0).y.tobytes() == dgp_draw(scenario(n=40, seed=3), 0).y.tobytes()


# --- reproducible streams -----------------------------------------------------


def test_replication_rng_is_keyed_by_seed_and_rep():
    a = replication_rng(7, 3).random(5)
    b = replication_rng(7, 3).random(5)
    c = replication_rng(7, 4).random(5)
    d = replication_rng(8, 3).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_dgp_draw_deterministic():
    sc = scenario(family="count", beta_qtau=0.5, beta_d=0.5)
    first = dgp_draw(sc, 2)
    again = dgp_draw(sc, 2)
    np.testing.assert_array_equal(first.y, again.y)
    np.testing.assert_array_equal(first.q, again.q)
    other = dgp_draw(sc, 3)
    assert not np.array_equal(first.y, other.y)


def test_panel_shapes_and_supports():
    for family, check in [
        ("positive", lambda y: np.all(y > 0)),
        ("count", lambda y: np.all((y >= 0) & (y == np.floor(y)))),
        ("censored", lambda y: np.all(y >= 0) and np.any(y == 0)),
        ("binary", lambda y: set(np.unique(y)) <= {0.0, 1.0}),
    ]:
        panel = dgp_draw(scenario(family=family, n=400), 0)
        assert panel.y.shape == (400, N_PERIODS)
        assert panel.q.shape == (400,)
        assert set(np.unique(panel.q)) <= {0, 1}
        assert check(panel.y), family


def test_panel_arrays_read_only():
    panel = dgp_draw(scenario(), 0)
    with pytest.raises(ValueError):
        panel.y[0, 0] = 1.0


# --- the documented data-generating processes ---------------------------------


def big(family, **kw):
    return scenario(family=family, n=1_000_000, beta_qtau=0.5, beta_d=0.5, **kw)


def cell_mean(panel, q, t):
    return float(panel.y[panel.q == q, t].mean())


def test_positive_family_lognormal_mean():
    sc = big("positive")
    panel = dgp_draw(sc, 0)
    for q, t in [(0, 0), (1, 2), (1, 3)]:
        expected = math.exp(linear_index(sc, q, t) + 0.5)
        assert cell_mean(panel, q, t) == pytest.approx(expected, rel=0.01)


def test_count_family_poisson_mean_and_variance():
    sc = big("count")
    panel = dgp_draw(sc, 0)
    for q, t in [(0, 1), (1, 3)]:
        rate = math.exp(linear_index(sc, q, t))
        values = panel.y[panel.q == q, t]
        assert values.mean() == pytest.approx(rate, rel=0.01)
        assert values.var() == pytest.approx(rate, rel=0.02)


def test_censored_family_compound_mean_and_zero_share():
    sc = big("censored")
    panel = dgp_draw(sc, 0)
    # M ~ Poisson(1) summands: E Y = E M * exp(lin + 1/2), P(Y = 0) = e^{-1}
    for q, t in [(0, 2), (1, 3)]:
        expected = math.exp(linear_index(sc, q, t) + 0.5)
        assert cell_mean(panel, q, t) == pytest.approx(expected, rel=0.015)
    zero_share = float((panel.y[:, 0] == 0).mean())
    assert zero_share == pytest.approx(math.exp(-1), abs=0.005)


def test_binary_family_logistic_share():
    sc = big("binary")
    panel = dgp_draw(sc, 0)
    for q, t in [(0, 3), (1, 0), (1, 3)]:
        expected = float(expit(linear_index(sc, q, t)))
        assert cell_mean(panel, q, t) == pytest.approx(expected, abs=0.005)


def test_binary_outcomes_equal_the_logistic_draw():
    # the binary draw takes uniforms and forms log(u / (1 - u)) itself; on the
    # same stream its outcomes are those of rng.logistic, 400 000 of them here
    sc = scenario(family="binary", n=1000, beta_qtau=0.5, beta_d=0.5, seed=11)
    lin = np.array([[linear_index(sc, q, t) for t in range(N_PERIODS)] for q in (0, 1)])
    for rep in range(100):
        rng = replication_rng(sc.seed, rep)
        q = (rng.random(sc.n) < 0.5).astype(np.int64)
        expected = (lin[q] + rng.logistic(size=(sc.n, N_PERIODS)) > 0).astype(float)
        panel = dgp_draw(sc, rep)
        np.testing.assert_array_equal(panel.q, q)
        np.testing.assert_array_equal(panel.y, expected)


@pytest.mark.parametrize("n", [1, 50])
@pytest.mark.parametrize("extra_term", [False, True])
def test_censored_outcomes_add_their_summands_in_order(n, extra_term):
    # the reference replays the stream and adds summand j of every entry in
    # the order of j, from 0; both draws must give its sums bit for bit, at
    # n = 1 too, where an axis-0 np.sum of eight or more summands of one
    # subject would add them pairwise: replications 4950, 12472 and 27476
    # draw M = 8, 7 and 7 for their one subject (one more with the extra term)
    sc = scenario(family="censored", n=n, seed=13, beta_qtau=0.5, beta_d=0.5,
                  censored_extra_term=extra_term)
    lin = np.array([[linear_index(sc, g, t) for t in range(N_PERIODS)] for g in (0, 1)])
    deep = 0
    for rep in [*range(200), 4950, 12472, 27476]:
        rng = replication_rng(sc.seed, rep)
        q = (rng.random(n) < 0.5).astype(np.int64)
        m = rng.poisson(1.0, n) + extra_term
        z = rng.standard_normal((int(m.max()), n, N_PERIODS))
        y = np.zeros((n, N_PERIODS))
        for j in range(len(z)):
            y += np.where(m[:, None] > j, np.exp(lin[q] + z[j]), 0.0)
        t = rng.integers(0, N_PERIODS, size=n)
        deep += int(m.max() >= 3)
        assert dgp_draw(sc, rep).y.tobytes() == y.tobytes()
        (counts,), (sums,) = draw_cells(sc, [replication_rng(sc.seed, rep)])
        assert sums.tobytes() == np.bincount(q * N_PERIODS + t, weights=y[np.arange(n), t],
                                             minlength=_CELLS.n).tobytes()
    assert deep >= 10


def test_multinomial_family_softmax_shares():
    extras = (
        MultinomialClassParams(),
        MultinomialClassParams(betas_t=(-0.5, -0.4, -0.2, 0.1), beta_q=0.4,
                               beta_qtau=0.5, beta_d=0.5),
        MultinomialClassParams(betas_t=(0.3, 0.2, 0.1, 0.0), beta_q=-0.3),
    )
    sc = scenario(family="multinomial", n=400_000, multinomial_extras=extras)
    panel = dgp_draw(sc, 0)
    for q, t in [(0, 1), (1, 3)]:
        etas = np.array([
            p.betas_t[t] + p.beta_q * q + p.beta_qtau * t * q
            + p.beta_d * q * (t == POST_PERIOD)
            for p in extras
        ])
        shares = np.exp(etas) / np.exp(etas).sum()
        values = panel.y[panel.q == q, t]
        for c in range(3):
            assert float((values == c).mean()) == pytest.approx(shares[c], abs=0.006)


def test_panel_draw_replays_from_the_replication_stream():
    # the panel is the group draw, then one noise draw per (subject, period),
    # both from the replication's stream; replaying them checks the index and
    # the noise together
    for family in ("positive", "binary"):
        sc = scenario(family=family, n=50, seed=3, beta_qtau=0.5, beta_d=0.5)
        rng = replication_rng(sc.seed, 0)
        q = (rng.random(sc.n) < 0.5).astype(np.int64)
        lin = np.array([[linear_index(sc, g, t) for t in range(N_PERIODS)] for g in q])
        panel = dgp_draw(sc, 0)
        np.testing.assert_array_equal(panel.q, q)
        if family == "positive":
            expected = np.exp(lin + rng.standard_normal((sc.n, N_PERIODS)))
            np.testing.assert_allclose(panel.y, expected, rtol=1e-12)
        else:
            expected = (lin + rng.logistic(size=(sc.n, N_PERIODS)) > 0).astype(float)
            np.testing.assert_array_equal(panel.y, expected)
            assert 0 < expected.sum() < expected.size


def test_count_shared_rate_intercept_switch():
    # the switch replaces each period's intercept with the pre-period one,
    # scaling the t = 3 rate by exp(betas_t[1] - betas_t[3])
    on = big("count", count_shared_rate_intercept=True)
    off = big("count")
    rate_ratio = math.exp(on.betas_t[1] - on.betas_t[3])
    mean_on = cell_mean(dgp_draw(on, 0), 1, 3)
    mean_off = cell_mean(dgp_draw(off, 0), 1, 3)
    assert mean_on / mean_off == pytest.approx(rate_ratio, rel=0.02)


def test_censored_extra_term_switch():
    # M + 1 summands: the mean doubles and exact zeros disappear
    sc = scenario(family="censored", n=200_000, censored_extra_term=True,
                  beta_qtau=0.5, beta_d=0.5)
    panel = dgp_draw(sc, 0)
    expected = 2.0 * math.exp(linear_index(sc, 1, 3) + 0.5)
    assert cell_mean(panel, 1, 3) == pytest.approx(expected, rel=0.02)
    assert np.all(panel.y > 0)


# --- repeated cross-section sampling -------------------------------------------


def test_panel_to_rcs_shapes_and_determinism():
    sc = scenario(n=4000)
    panel = dgp_draw(sc, 1)
    data = panel_to_rcs(panel, sc, 1)
    again = panel_to_rcs(panel, sc, 1)
    assert data.n == sc.n
    assert data.n_periods == N_PERIODS
    np.testing.assert_array_equal(data.t, again.t)
    np.testing.assert_array_equal(data.y, again.y)
    # each subject keeps the outcome of its sampled period
    idx = np.arange(sc.n)
    np.testing.assert_array_equal(data.y, panel.y[idx, data.t])
    # all periods are represented in a draw of this size
    assert set(np.unique(data.t)) == set(range(N_PERIODS))


def test_panel_to_rcs_period_draw_independent_of_group():
    sc = scenario(n=200_000)
    panel = dgp_draw(sc, 0)
    data = panel_to_rcs(panel, sc, 0)
    assert abs(float(np.corrcoef(data.q, data.t)[0, 1])) < 0.01


# --- the Monte Carlo draw ------------------------------------------------------


@given(st.sampled_from(["positive", "count", "censored", "binary"]),
       st.integers(1, 60), st.booleans(),
       st.floats(-1, 1), st.floats(-1, 1), st.integers(0, 2**16), st.integers(0, 50),
       st.integers(1, 4))
@settings(max_examples=150, deadline=None)
@example("censored", 1, True, 0.5, 0.5, 0, 0, 1)
@example("count", 1, True, 0.5, -0.5, 0, 0, 1)
@example("censored", 3, False, 0.5, 0.5, 0, 0, 4)
def test_draw_cells_matches_the_panel_draw(family, n, switch,
                                           beta_qtau, beta_d, seed, rep, batch):
    # the Monte Carlo's draw takes the panel draw's variates from the same
    # stream and forms only the kept outcomes; one bincount collapses a batch
    # of draws, and each draw's cells must match its own panel's bit for bit
    sc = Scenario(family=family, n=n, repetitions=1, seed=seed, beta_qtau=beta_qtau,
                  beta_d=beta_d,
                  count_shared_rate_intercept=switch and family == "count",
                  censored_extra_term=switch and family == "censored")
    reps = range(rep, rep + batch)
    fast = [replication_rng(seed, r) for r in reps]
    slow = [replication_rng(seed, r) for r in reps]
    for _ in range(2):  # a redraw continues each replication's stream
        counts, sums = draw_cells(sc, fast)
        assert counts.shape == sums.shape == (batch, _CELLS.n)
        for j, r in enumerate(reps):
            data = panel_to_rcs(dgp_draw(sc, r, rng=slow[j]), sc, r, rng=slow[j])
            cell = data.q * N_PERIODS + data.t
            assert counts[j].tobytes() == np.bincount(
                cell, minlength=_CELLS.n).astype(float).tobytes()
            assert sums[j].tobytes() == np.bincount(cell, weights=data.y,
                                                    minlength=_CELLS.n).tobytes()
            assert fast[j].bit_generator.state == slow[j].bit_generator.state


@pytest.mark.parametrize("family", ["positive", "count", "censored", "binary"])
@pytest.mark.parametrize("n", [1, 2, 250, 1000])
@pytest.mark.parametrize("switch", [False, True])
def test_draw_cells_matches_each_replication_bit_for_bit(family, n, switch):
    # each draw is reduced to its cells on its own; a batch of them must give
    # every replication's own cells, at the sizes of the tables too
    sc = Scenario(family=family, n=n, repetitions=3, seed=7, beta_qtau=0.5, beta_d=0.5,
                  count_shared_rate_intercept=switch and family == "count",
                  censored_extra_term=switch and family == "censored")
    fast = [replication_rng(sc.seed, r) for r in range(3)]
    slow = [replication_rng(sc.seed, r) for r in range(3)]
    for _ in range(2):
        counts, sums = draw_cells(sc, fast)
        for r in range(3):
            data = panel_to_rcs(dgp_draw(sc, r, rng=slow[r]), sc, r, rng=slow[r])
            cell = data.q * N_PERIODS + data.t
            assert counts[r].tobytes() == np.bincount(
                cell, minlength=_CELLS.n).astype(float).tobytes()
            assert sums[r].tobytes() == np.bincount(cell, weights=data.y,
                                                    minlength=_CELLS.n).tobytes()


def _raises_value_error(draw):
    try:
        draw()
    except ValueError as err:
        return str(err).split(";")[0]
    return None


@pytest.mark.parametrize("family, params", [
    # exp(lin + z) overflows in the treated post cell only, for most z
    ("positive", dict(beta_d=710.5)),
    # the Poisson rate is too large to draw in the treated post cell only
    ("count", dict(beta_d=44.5)),
])
def test_draw_cells_raises_on_the_same_draws(family, params):
    # the reference follows each replication's stream by hand: a kept
    # outcome that is not finite, or any subject's rate past the largest
    # that Generator.poisson takes, raises, whether or not it is kept
    sc = scenario(family=family, n=2, **params)
    raised = set()
    for rep in range(60):
        got = _raises_value_error(lambda: draw_cells(sc, [replication_rng(sc.seed, rep)]))
        rng = replication_rng(sc.seed, rep)
        q = (rng.random(sc.n) < 0.5).astype(np.int64)
        lin = np.array([[linear_index(sc, g, t) for t in range(N_PERIODS)] for g in (0, 1)])
        if family == "positive":
            z = rng.standard_normal((sc.n, N_PERIODS))
            t = rng.integers(0, N_PERIODS, size=sc.n)
            with np.errstate(over="ignore"):
                kept = np.exp(lin[q, t] + z[np.arange(sc.n), t])
            want = None if np.isfinite(kept).all() else "DGP produced non-finite outcomes"
        else:
            with np.errstate(over="ignore"):
                rate = np.exp(lin)[q]
            want = (None if np.all(rate <= _POISSON_RATE_MAX) else
                    "DGP produced a Poisson rate too large to draw from")
        assert got == want, rep
        raised.add(got)
    assert None in raised and len(raised) == 2


@pytest.mark.parametrize("family, params, message", [
    ("positive", dict(betas_t=(800.0,) * 4), "non-finite outcomes"),
    ("censored", dict(betas_t=(800.0,) * 4), "non-finite outcomes"),
    ("count", dict(betas_t=(50.0,) * 4), "Poisson rate too large"),
    ("binary", dict(betas_t=(1e308,) * 4, beta_q=1e308), "linear index is not finite"),
])
def test_dgp_overflow_is_a_typed_error_without_warnings(family, params, message):
    sc = scenario(family=family, n=50, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            dgp_draw(sc, 0)
        with pytest.raises(ValueError, match=message):
            draw_cells(sc, [replication_rng(sc.seed, 0)])


def test_draw_cells_checks_only_the_kept_outcomes():
    # exp(800) overflows in the treated post period only; a lone treated
    # subject kept in an earlier period draws fine, while its panel does not
    sc = scenario(family="positive", n=1, beta_d=800.0)
    kept_early = 0
    for rep in range(40):
        try:
            (counts,), (sums,) = draw_cells(sc, [replication_rng(sc.seed, rep)])
        except ValueError:  # kept in the treated post period
            continue
        if counts[N_PERIODS:N_PERIODS + POST_PERIOD].sum() == 1:
            kept_early += 1
            assert np.all(np.isfinite(sums))
            with pytest.raises(ValueError, match="non-finite outcomes"):
                dgp_draw(sc, rep)
    assert kept_early > 0


# --- the Monte Carlo driver ----------------------------------------------------


def test_run_monte_carlo_rows_and_identity():
    sc = scenario(family="count", n=300, repetitions=40, seed=11,
                  beta_qtau=0.5, beta_d=0.5)
    summary = run_monte_carlo(sc)
    assert set(summary.rows) == {
        "qmle_beta_qtau", "qmle_beta_d", "lindd_beta_qtau", "lindd_beta_d",
        "lindd_transform",
    }
    assert summary.effective_repetitions == 40
    assert summary.failed_repetitions == 0
    for row in summary.rows.values():
        assert row.rmse**2 == pytest.approx(row.abs_bias**2 + row.sd**2, abs=1e-10)


def test_run_monte_carlo_binary_has_no_transform_row():
    sc = scenario(family="binary", n=400, repetitions=20, seed=1,
                  beta_qtau=0.5, beta_d=0.5)
    summary = run_monte_carlo(sc)
    assert "lindd_transform" not in summary.rows
    assert set(summary.rows) == {
        "qmle_beta_qtau", "qmle_beta_d", "lindd_beta_qtau", "lindd_beta_d",
    }


def test_run_monte_carlo_redraws_on_undefined_transform():
    # beta_d = -0.5 at n = 120 makes the DD estimate occasionally undershoot
    # -ybar, so the log transform forces redraws without aborting
    sc = Scenario(family="positive", n=120, repetitions=80, seed=9,
                  beta_qtau=0.0, beta_d=-0.5)
    summary = run_monte_carlo(sc)
    assert summary.redraw_count == 64
    assert summary.effective_repetitions == 80
    assert summary.failed_repetitions == 0


def test_run_monte_carlo_mixes_failures_and_redraws():
    # at n = 30 some draws fail and some are redrawn, and one of the two
    # failures comes from a redraw batch; the counts are pinned exactly, and
    # the rows to 1e-12, since a change in the fits' summation order moves
    # them by a few ulps
    sc = Scenario(family="positive", n=30, repetitions=40, seed=3, beta_d=-0.5)
    summary = run_monte_carlo(sc)
    assert summary.redraw_count == 24
    assert summary.failures_by_kind == {
        "not_converged": 0, "OverflowGuardError": 0, "SeparationError": 0,
        "SingularDesignError": 2, "SingularHessianError": 0,
    }
    assert summary.effective_repetitions == 38
    assert summary.failed_repetitions == 2
    expected = {
        "qmle_beta_qtau": (0.2990185231451051, 0.5298956559819163, 0.6084418488338761),
        "qmle_beta_d": (0.9045365140357442, 1.1771492985766696, 1.4845426152062735),
        "lindd_beta_qtau": (0.030836943913720178, 0.29589033377631796,
                            0.29749286837199773),
        "lindd_beta_d": (0.6357019961327324, 0.528265334173238, 0.8265478154204409),
        "lindd_transform": (0.46723788045973985, 0.859688976053406, 0.9784561167902542),
    }
    assert list(summary.rows) == list(expected)
    for key, (abs_bias, sd, rmse) in expected.items():
        row = summary.rows[key]
        assert (row.abs_bias, row.sd, row.rmse) == pytest.approx((abs_bias, sd, rmse),
                                                                 rel=1e-12, abs=0)


def reference_monte_carlo(sc):
    """run_monte_carlo as a Generator of each replication's own computes it:
    replication r draws its panel, and every redraw of it, from
    replication_rng(seed, r), and is fitted alone (the fits' bits do not
    depend on their batch). Scenarios that abort are not covered."""
    design = build_design(_CELLS, _DESIGN)
    estimates, redraws = [], 0
    failures = dict.fromkeys(FAILURE_KINDS, 0)
    for rep in range(sc.repetitions):
        rng = replication_rng(sc.seed, rep)
        while True:
            data = panel_to_rcs(dgp_draw(sc, rep, rng=rng), sc, rep, rng=rng)
            cell = data.q * N_PERIODS + data.t
            counts = np.bincount(cell, minlength=_CELLS.n).astype(float)
            sums = np.bincount(cell, weights=data.y, minlength=_CELLS.n)
            (kind,), (est,) = _fit_draws(sc, design, counts[None], sums[None], False)
            if kind is not None:
                failures[kind] += 1
            elif np.isnan(est).any():
                redraws += 1
                continue
            else:
                estimates.append(est)
            break
    names = list(_ROWS[:4] if sc.family == "binary" else _ROWS)
    rows = {}
    for key, values in zip(names, np.ascontiguousarray(np.array(estimates).T)):
        truth = sc.beta_qtau if key.endswith("beta_qtau") else sc.beta_d
        mean = float(values.mean())
        rows[key] = McRow(abs_bias=abs(mean - truth),
                          sd=float(np.sqrt(np.mean((values - mean) ** 2))),
                          rmse=float(np.sqrt(np.mean((values - truth) ** 2))))
    return McSummary(scenario=sc, rows=rows, redraw_count=redraws, failures_by_kind=failures,
                     effective_repetitions=len(estimates),
                     failed_repetitions=sc.repetitions - len(estimates))


def test_run_monte_carlo_equals_a_generator_per_replication():
    # run_monte_carlo carries every stream on one generator, from states
    # seeded once per process; neither the seeding cache, cold or warm, nor
    # another scenario of the same seed run in between may change a bit,
    # redraws and failures included
    a = Scenario(family="count", n=100, repetitions=50, seed=5, beta_qtau=0.5, beta_d=0.5)
    b = Scenario(family="censored", n=40, repetitions=1000, seed=5, beta_qtau=0.5, beta_d=0.5)
    redraws = Scenario(family="positive", n=30, repetitions=40, seed=3, beta_d=-0.5)
    expected = {sc: reference_monte_carlo(sc) for sc in (a, b, redraws)}
    assert expected[redraws].redraw_count and expected[redraws].failed_repetitions
    _initial_state.cache_clear()
    for sc in (a, a, b, a, redraws):
        assert run_monte_carlo(sc) == expected[sc]
    # the cached states are shared, never modified
    for seed, rep in ((5, 0), (5, 49), (5, 999), (3, 39)):
        assert _initial_state(seed, rep) == replication_rng(seed, rep).bit_generator.state


def test_run_monte_carlo_aborts_on_frequent_failures():
    sc = scenario(family="binary", n=16, repetitions=40, seed=3,
                  beta_qtau=0.5, beta_d=0.5)
    with pytest.raises(MonteCarloAbort, match=r"^24 of 40 replications failed "
                                              r"\(SeparationError 4, SingularDesignError 20\);"):
        run_monte_carlo(sc)


def test_run_monte_carlo_aborts_past_the_redraw_limit(monkeypatch):
    # a replication whose log transform stays undefined after _MAX_REDRAWS
    # redraws ends the run, naming the replication
    monkeypatch.setattr(simulate, "_MAX_REDRAWS", 1)
    sc = Scenario("positive", n=40, repetitions=50, seed=3, beta_d=-1.0)
    with pytest.raises(MonteCarloAbort,
                       match=r"^replication 3 exceeded 1 redraws of the log transform$"):
        run_monte_carlo(sc)


def test_run_monte_carlo_decides_overflowing_fits_without_warnings():
    # outcomes near e^700: the linear fit's maximand overflows, and the fit
    # guards, not a numpy RuntimeWarning, decide every replication
    sc = scenario(family="censored", n=50, repetitions=5, seed=1, betas_t=(700.0,) * 4)
    with pytest.raises(MonteCarloAbort, match=r"^5 of 5 replications failed "
                                              r"\(OverflowGuardError 5\);"):
        run_monte_carlo(sc)


@pytest.mark.parametrize("family, n, seed, kinds", [
    ("censored", 40, 2, {"OverflowGuardError": 1, "SingularDesignError": 2}),
    ("binary", 80, 3, {"SeparationError": 3}),
])
def test_run_monte_carlo_counts_failures_by_kind(family, n, seed, kinds):
    # the row-level fits of these draws fail with exactly these errors
    sc = Scenario(family=family, n=n, repetitions=100, seed=seed,
                  beta_qtau=0.5, beta_d=0.5)
    summary = run_monte_carlo(sc)
    assert summary.failures_by_kind == {
        "not_converged": 0, "OverflowGuardError": 0, "SeparationError": 0,
        "SingularDesignError": 0, "SingularHessianError": 0, **kinds,
    }
    assert summary.failed_repetitions == sum(kinds.values())
    assert summary.effective_repetitions == 100 - sum(kinds.values())


_ROW_ERRORS = (OverflowGuardError, SeparationError, SingularDesignError,
               SingularHessianError)


@given(st.sampled_from(["positive", "count", "censored", "binary"]),
       st.integers(20, 400), st.floats(-1, 1), st.floats(-1, 1),
       st.integers(0, 2**16), st.integers(0, 50))
@settings(max_examples=120, deadline=None)
# every row perfectly predicted while the fit stops below the linear-predictor cap
@example("binary", 21, 0.55, 0.44, 6270, 14)
# an all-zero count draw: no dataset is left for the Newton
@example("count", 20, 0.0, 0.0, 36, 0)
# accepted boundary fits with no finite optimum: an all-zero control post
# cell, and all-1 treated post cells
@example("count", 250, 0.0, 0.0, 1, 153)
@example("binary", 250, 0.5, 0.5, 5, 6)
@example("binary", 250, 0.5, 0.5, 5, 546)
@example("binary", 250, 0.5, 0.5, 5, 1312)
def test_cell_fits_match_row_level_fits(family, n, beta_qtau, beta_d, seed, rep):
    sc = Scenario(family=family, n=n, repetitions=1, seed=seed,
                  beta_qtau=beta_qtau, beta_d=beta_d)
    counts, sums = draw_cells(sc, [replication_rng(seed, rep)])
    rng = replication_rng(seed, rep)
    data = panel_to_rcs(dgp_draw(sc, rep, rng=rng), sc, rep, rng=rng)
    design = build_design(data, _DESIGN)
    qmle = ("logit_qmle", fit_logit_qmle) if family == "binary" else \
        ("poisson_qmle", fit_poisson_qmle)
    # A cell whose outcomes all sit on the domain's boundary (all 0, or all 1
    # for binary) may put the QMLE optimum at infinity; such a fit stops
    # wherever the score first drops under the tolerance, and both paths run
    # the same Newton on the same cells, so they stop at the same bits. A
    # table of interior cells is solved exactly in its dual, while a row fit
    # at the default tolerance stops up to ~1e-6 away, so the QMLE is compared
    # with a row fit iterated to a tight tolerance.
    means = sums[counts > 0] / counts[counts > 0]
    finite = not np.any((means == 0) | ((means == 1) & (family == "binary")))
    for name, row_fit in (qmle, ("ols", fit_ols)):
        (beta, (failure,)), = fit_cell_sums((name,), build_design(_CELLS, _DESIGN),
                                            counts, sums)
        try:
            fit = row_fit(design, data.y, data.weights)
        except _ROW_ERRORS as err:
            assert failure == type(err).__name__
            continue
        assert failure == (None if fit.converged else "not_converged")
        if failure is None and not finite and name != "ols":
            assert beta[0].tobytes() == fit.coefficients.tobytes()
        elif failure is None:
            if name != "ols":
                fit = row_fit(design, data.y, data.weights, options=TIGHT)
            np.testing.assert_allclose(beta[0], fit.coefficients, rtol=0, atol=1e-9)


@given(st.lists(st.integers(0, 4), min_size=2 * N_PERIODS, max_size=2 * N_PERIODS),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
# every cell filled; one empty (saturated with the trend); two empty
@example([3, 1, 2, 4, 1, 2, 3, 1], 0)
@example([3, 1, 2, 0, 1, 2, 3, 1], 1)
@example([3, 1, 0, 4, 1, 2, 0, 1], 2)
def test_cell_least_squares_matches_fit_ols(per_cell, seed):
    # the closed form on cell sums against lstsq on the rows themselves
    counts = np.array(per_cell, float)
    if not counts.any():
        return
    rng = np.random.default_rng(seed)
    cell = np.repeat(np.arange(2 * N_PERIODS), per_cell)
    y = rng.normal(5.0, 3.0, cell.size) * 10.0 ** rng.integers(-3, 4)
    data = RcsDataset(y=y, q=cell // N_PERIODS, t=cell % N_PERIODS, n_periods=N_PERIODS)
    sums = np.bincount(cell, weights=y, minlength=2 * N_PERIODS)
    (beta, (failure,)), = fit_cell_sums(("ols",), build_design(_CELLS, _DESIGN),
                                        counts[None], sums[None])
    try:
        fit = fit_ols(build_design(data, _DESIGN), y)
    except SingularDesignError:
        assert failure == "SingularDesignError"
        assert np.isnan(beta).all()
        return
    assert failure is None
    scale = 1.0 + np.max(np.abs(fit.coefficients))
    assert np.max(np.abs(beta[0] - fit.coefficients)) <= 1e-12 * scale


def test_cell_ols_reports_a_singular_closed_form():
    # a cell weight whose inverse overflows leaves the closed form no finite
    # gram, and the QMLE's dual no finite link
    counts = np.array([[3, 2, 4, 5, 1, 2, 3, 5e-324]])
    fits = fit_cell_sums(("ols", "poisson_qmle"), build_design(_CELLS, _DESIGN),
                         counts, 1.5 * counts)
    for beta, failures in fits:
        assert failures == ["SingularHessianError"]
        assert np.isnan(beta).all()


def test_boundary_row_whose_total_overflows_fails_alone():
    # a boundary row whose weighted total overflows leaves its Newton no
    # finite start; that row reports SingularHessianError, as the dual does
    # for a row whose means are not finite, and the other row's fit is the
    # one it gets alone, with no warning escaping
    cells = build_design(_CELLS, _DESIGN)
    counts = np.array([[1e308, 1e308, 10, 10, 10, 10, 10, 10], np.arange(5.0, 13.0)])
    sums = np.array([[1e308, 1e308, 5, 5, 5, 5, 5, 0], np.arange(1.0, 9.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (beta, failures), = fit_cell_sums(("poisson_qmle",), cells, counts, sums)
        (alone, alone_failures), = fit_cell_sums(("poisson_qmle",), cells, counts[1:], sums[1:])
    assert failures == ["SingularHessianError", None]
    assert alone_failures == [None]
    assert np.isnan(beta[0]).all()
    assert beta[1].tobytes() == alone[0].tobytes()


def test_saturated_cells_report_a_singular_closed_form():
    # with one empty cell the design is saturated (k = p) and each fit is
    # mu = S / N; a weight too small to invert leaves the linear fit no finite
    # value, and a mean S / N that overflows leaves the QMLE none
    counts = np.array([[3, 2, 0, 5, 1, 2, 3, 5e-324], [3, 2, 0, 5, 1, 2, 3, 1e-310]])
    sums = 1.5 * counts
    sums[1, -1] = 1.0
    cells = build_design(_CELLS, _DESIGN)
    (beta, failures), = fit_cell_sums(("ols",), cells, counts[:1], sums[:1])
    assert failures == ["SingularHessianError"]
    assert np.isnan(beta).all()
    (beta, failures), = fit_cell_sums(("poisson_qmle",), cells, counts, sums)
    assert failures == [None, "SingularHessianError"]
    # the first table's last mean is 2 S / N, since 1.5 x 5e-324 rounds to 1e-323
    keep = counts[0] > 0
    X = cells.cell_values[keep]
    np.testing.assert_allclose(X @ beta[0], np.log(sums[0, keep] / counts[0, keep]),
                               rtol=0, atol=1e-14)
    assert np.isnan(beta[1]).all()


def _with(array, index, value):
    array = np.array(array, float)
    array[index] = value
    return array


_CELL_X = build_design(_CELLS, _DESIGN).cell_values
_TWOS = np.full((1, 2 * N_PERIODS), 2.0)


@pytest.mark.parametrize("families, X, counts, sums, message", [
    (("ols", "probit"), _CELL_X, _TWOS, _TWOS, "not 'probit'"),
    (("ols",), _CELL_X, _TWOS[0], _TWOS[0], r"must be \(B, k\)"),
    (("ols",), _CELL_X, _TWOS, _TWOS[:, 1:], r"must be \(B, k\)"),
    (("ols",), _CELL_X, _TWOS[:, 1:], _TWOS[:, 1:], r"must be \(B, k\)"),
    (("ols",), _CELL_X, _with(_TWOS, (0, 0), -1.0), _TWOS, "non-negative"),
    (("ols",), _CELL_X, _with(_TWOS, (0, 0), np.inf), _TWOS, "finite"),
    (("ols",), _CELL_X, _TWOS, _with(_TWOS, (0, 0), np.nan), "finite"),
    (("ols",), _CELL_X, _with(_TWOS, (0, 0), 0.0), _TWOS, "zero sum"),
    (("ols", "poisson_qmle"), _CELL_X, _TWOS, _with(_TWOS, (0, 0), -1.0), "non-negative y"),
    (("ols", "logit_qmle"), _CELL_X, _TWOS, _with(_TWOS, (0, 0), 3.0), r"y in \[0, 1\]"),
    (("ols",), build_design(_CELLS, DesignSpec(post_period=POST_PERIOD)), _TWOS, _TWOS,
     "at most one cell more than columns"),
    (("ols",), _with(_CELL_X, (0, 0), np.nan), _TWOS, _TWOS, "non-finite"),
    (("ols",), _with(_CELL_X, (0, 0), np.inf), _TWOS, _TWOS, "non-finite"),
], ids=["family", "one-dimensional", "sums-shape", "cells", "negative-count",
        "infinite-count", "nan-sum", "empty-cell-sum", "poisson-domain", "logit-domain",
        "no-trend", "nan-design", "inf-design"])
def test_fit_cell_sums_refuses_bad_input(families, X, counts, sums, message):
    with pytest.raises(ValueError, match=message):
        fit_cell_sums(families, X, counts, sums)


@pytest.mark.parametrize("family, qmle", [("positive", "poisson_qmle"),
                                          ("count", "poisson_qmle"),
                                          ("binary", "logit_qmle")])
def test_cell_fit_bits_do_not_depend_on_the_batch(family, qmle):
    # at n = 12 one batch mixes patterns of empty cells: full (k - p = 1),
    # saturated (one empty cell) and rank-deficient ones; at n = 30 the count
    # batch mixes tables of interior cells, full and saturated, which the dual
    # solves, with tables of a boundary cell, full and saturated, which keep
    # the Newton; the families fitted together, as the Monte Carlo fits them,
    # equal each fitted alone
    cells = build_design(_CELLS, _DESIGN)
    for n in (60, 30, 12):
        sc = Scenario(family=family, n=n, repetitions=37, seed=4,
                      beta_qtau=0.5, beta_d=0.5)
        draws = [draw_cells(sc, [replication_rng(sc.seed, rep)]) for rep in range(37)]
        counts, sums = (np.concatenate(part) for part in zip(*draws))
        if family == "count" and n == 30:
            interior = np.all((sums > 0) | (counts == 0), axis=1)
            saturated = np.sum(counts == 0, axis=1) == 1
            assert {(True, False), (True, True), (False, False), (False, True)} <= \
                set(zip(interior.tolist(), saturated.tolist()))
        together = fit_cell_sums((qmle, "ols"), cells, counts, sums)
        for name, (joint, joint_failures) in zip((qmle, "ols"), together):
            (batch, failures), = fit_cell_sums((name,), cells, counts, sums)
            assert joint_failures == failures
            assert joint.tobytes() == batch.tobytes()
            for r in range(37):
                (alone, (failure,)), = fit_cell_sums((name,), cells, counts[r:r + 1],
                                                     sums[r:r + 1])
                assert failure == failures[r]
                assert alone[0].tobytes() == batch[r].tobytes()
        if n == 12:
            assert {0, 1, 2} <= set(np.sum(counts == 0, axis=1).tolist())
            assert None in failures and "SingularDesignError" in failures


def test_run_monte_carlo_rejects_multinomial():
    sc = scenario(family="multinomial",
                  multinomial_extras=(MultinomialClassParams(),
                                      MultinomialClassParams(beta_d=0.5)))
    with pytest.raises(ValueError, match="multinomial"):
        run_monte_carlo(sc)


def test_run_monte_carlo_single_repetition():
    sc = scenario(family="count", n=500, repetitions=1, seed=2,
                  beta_qtau=0.5, beta_d=0.5)
    summary = run_monte_carlo(sc)
    for row in summary.rows.values():
        assert row.sd == 0.0
        assert row.rmse == pytest.approx(row.abs_bias, abs=1e-12)


def test_run_monte_carlo_counterfactual_transform():
    sc = scenario(family="positive", n=400, repetitions=30, seed=4,
                  beta_qtau=0.5, beta_d=0.5)
    observed = run_monte_carlo(sc)
    counter = run_monte_carlo(sc, counterfactual_transform_mean=True)
    assert (counter.rows["lindd_transform"].abs_bias
            != observed.rows["lindd_transform"].abs_bias)
    # the non-transform rows are untouched by the flag
    assert counter.rows["qmle_beta_d"] == observed.rows["qmle_beta_d"]


def test_run_monte_carlo_sd_shrinks_with_n():
    kw = dict(family="positive", repetitions=150, seed=6,
              beta_qtau=0.5, beta_d=0.5)
    small = run_monte_carlo(scenario(n=250, **kw))
    large = run_monte_carlo(scenario(n=1000, **kw))
    assert large.rows["qmle_beta_d"].sd < small.rows["qmle_beta_d"].sd


# --- the analytic identification check ------------------------------------------


def test_analytic_trend_check_is_one_without_trend():
    for model in ("exponential", "logit"):
        assert analytic_trend_check(model, 0.0) == pytest.approx(1.0, abs=1e-12)
    value = analytic_trend_check(
        "multinomial", 0.0,
        class_contrasts=[(0.2, -0.1, 0.3), (-0.4, 0.2, 0.1)], class_c=2,
    )
    assert value == pytest.approx(1.0, abs=1e-12)


def test_analytic_trend_check_recovers_exp_trend():
    for model in ("exponential", "logit"):
        assert analytic_trend_check(model, 0.3) == pytest.approx(
            math.exp(0.3), abs=1e-12
        )
    value = analytic_trend_check(
        "multinomial", -0.7, class_contrasts=[(0.5, 0.1, -0.2)],
    )
    assert value == pytest.approx(math.exp(-0.7), abs=1e-12)


def test_analytic_trend_check_covariate_shift_cancels():
    plain = analytic_trend_check("exponential", 0.4)
    shifted = analytic_trend_check("exponential", 0.4, covariate_shift=1.3)
    assert shifted == pytest.approx(plain, rel=1e-12)


def test_analytic_trend_check_validation():
    with pytest.raises(ValueError, match="unknown model"):
        analytic_trend_check("probit", 0.0)
    with pytest.raises(ValueError, match="class_contrasts"):
        analytic_trend_check("multinomial", 0.0)
    with pytest.raises(ValueError, match="pre, post, group"):
        analytic_trend_check("multinomial", 0.0, class_contrasts=[(1.0, 2.0)])
    with pytest.raises(ValueError, match="class_c"):
        analytic_trend_check("multinomial", 0.0,
                             class_contrasts=[(0.0, 0.0, 0.0)], class_c=2)


@given(
    st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
    st.floats(-2, 2),
)
@settings(max_examples=80)
def test_analytic_trend_check_property(beta_qtau, beta_pre, beta_tau, beta_q, shift):
    for model in ("exponential", "logit"):
        value = analytic_trend_check(
            model, beta_qtau, beta_pre=beta_pre, beta_tau=beta_tau,
            beta_q=beta_q, covariate_shift=shift,
        )
        assert abs(value - math.exp(beta_qtau)) <= 1e-12 * max(1.0, math.exp(beta_qtau))


@given(
    st.floats(-2, 2),
    st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
             min_size=1, max_size=3),
    st.data(),
)
@settings(max_examples=80)
def test_analytic_trend_check_multinomial_property(beta_qtau, contrasts, data):
    class_c = data.draw(st.integers(1, len(contrasts)))
    value = analytic_trend_check("multinomial", beta_qtau,
                                 class_contrasts=contrasts, class_c=class_c)
    assert abs(value - math.exp(beta_qtau)) <= 1e-12 * max(1.0, math.exp(beta_qtau))
