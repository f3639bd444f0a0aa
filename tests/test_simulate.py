import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from rrdid import (
    MultinomialClassParams,
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
from rrdid.errors import (
    MonteCarloAbort,
    OverflowGuardError,
    SeparationError,
    SingularDesignError,
    SingularHessianError,
)
from rrdid.estimators import fit_cell_sums
from rrdid.simulate import _CELLS, _DESIGN, N_PERIODS, POST_PERIOD, _draw_cells


def scenario(**kw):
    base = dict(family="positive", n=100, repetitions=2, seed=0)
    base.update(kw)
    return Scenario(**base)


def linear_index(sc, q, t):
    d = q * (t == POST_PERIOD)
    return (sc.betas_t[t] + sc.beta_q * q + sc.beta_qtau * t * q + sc.beta_d * d)


# --- scenario validation ------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(family="gamma"),
    dict(n=0),
    dict(repetitions=0),
    dict(seed=-1),
    dict(seed=1.5),
    dict(betas_t=(0.0, 0.0)),
    dict(noise_scale=-0.1),
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


def test_noise_scale_zero_is_deterministic():
    sc = scenario(family="positive", n=50, noise_scale=0.0,
                  beta_qtau=0.5, beta_d=0.5)
    panel = dgp_draw(sc, 0)
    for t in range(N_PERIODS):
        expected = np.exp([linear_index(sc, q, t) for q in panel.q])
        np.testing.assert_allclose(panel.y[:, t], expected, rtol=1e-12)

    sb = scenario(family="binary", n=50, noise_scale=0.0, beta_qtau=0.5)
    panel = dgp_draw(sb, 0)
    for t in range(N_PERIODS):
        expected = np.array([float(linear_index(sb, q, t) > 0) for q in panel.q])
        np.testing.assert_array_equal(panel.y[:, t], expected)


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


def test_run_monte_carlo_thread_count_does_not_change_results():
    sc = scenario(family="positive", n=200, repetitions=30, seed=5,
                  beta_qtau=0.5, beta_d=0.5)
    serial = run_monte_carlo(sc, threads=1)
    threaded = run_monte_carlo(sc, threads=4)
    assert serial.redraw_count == threaded.redraw_count
    for key in serial.rows:
        assert serial.rows[key] == threaded.rows[key]


def test_run_monte_carlo_redraws_on_undefined_transform():
    # beta_d = -0.5 at n = 120 makes the DD estimate occasionally undershoot
    # -ybar, so the log transform forces redraws without aborting
    sc = Scenario(family="positive", n=120, repetitions=80, seed=9,
                  beta_qtau=0.0, beta_d=-0.5)
    summary = run_monte_carlo(sc)
    assert summary.redraw_count == 64
    assert summary.effective_repetitions == 80
    assert summary.failed_repetitions == 0


def test_run_monte_carlo_aborts_on_frequent_failures():
    sc = scenario(family="binary", n=16, repetitions=40, seed=3,
                  beta_qtau=0.5, beta_d=0.5)
    with pytest.raises(MonteCarloAbort, match="failed to converge"):
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
def test_cell_fits_match_row_level_fits(family, n, beta_qtau, beta_d, seed, rep):
    sc = Scenario(family=family, n=n, repetitions=1, seed=seed,
                  beta_qtau=beta_qtau, beta_d=beta_d)
    counts, sums = _draw_cells(sc, replication_rng(seed, rep))
    rng = replication_rng(seed, rep)
    data = panel_to_rcs(dgp_draw(sc, rep, rng=rng), sc, rep, rng=rng)
    design = build_design(data, _DESIGN)
    qmle = ("logit_qmle", fit_logit_qmle) if family == "binary" else \
        ("poisson_qmle", fit_poisson_qmle)
    # A cell whose outcomes all sit on the domain's boundary (all 0, or all 1
    # for binary) puts the QMLE optimum at infinity; such a fit stops wherever
    # the score first drops under the tolerance, and the two paths' rounding
    # moves that point by up to ~1e-5, so only their decisions are compared.
    means = sums[counts > 0] / counts[counts > 0]
    finite = not np.any((means == 0) | ((means == 1) & (family == "binary")))
    for name, row_fit in (qmle, ("ols", fit_ols)):
        beta, (failure,) = fit_cell_sums(name, build_design(_CELLS, _DESIGN),
                                         counts[None], sums[None])
        try:
            fit = row_fit(design, data.y, data.weights)
        except _ROW_ERRORS as err:
            assert failure == type(err).__name__
            continue
        assert failure == (None if fit.converged else "not_converged")
        if failure is None and (finite or name == "ols"):
            np.testing.assert_allclose(beta[0], fit.coefficients, rtol=0, atol=1e-9)


@pytest.mark.parametrize("family, qmle", [("positive", "poisson_qmle"),
                                          ("binary", "logit_qmle")])
def test_cell_fit_bits_do_not_depend_on_the_batch(family, qmle):
    sc = Scenario(family=family, n=60, repetitions=37, seed=4,
                  beta_qtau=0.5, beta_d=0.5)
    draws = [_draw_cells(sc, replication_rng(sc.seed, rep)) for rep in range(37)]
    counts, sums = (np.array(part, float) for part in zip(*draws))
    cells = build_design(_CELLS, _DESIGN)
    for name in (qmle, "ols"):
        batch, failures = fit_cell_sums(name, cells, counts, sums)
        for r in range(37):
            alone, (failure,) = fit_cell_sums(name, cells, counts[r:r + 1], sums[r:r + 1])
            assert failure == failures[r]
            assert alone[0].tobytes() == batch[r].tobytes()


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
