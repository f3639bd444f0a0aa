import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdid import (
    DesignSpec,
    FitOptions,
    build_design,
    effect_report,
    fit_logit_qmle,
    fit_multinomial_logit,
    fit_ols,
    fit_poisson_qmle,
    lin_dd_proportional,
    nonparametric_ror,
    nonparametric_rr,
    proportional_effect,
)
from rrdid.errors import EmptyCellError, RedrawRequired

from conftest import binary_cells, cell_dataset, class_cells, mean_cells

TIGHT = FitOptions(gradient_tolerance=1e-13)


def test_effect_report_known_values():
    r = effect_report(0.5, 0.2)
    assert r.effect == pytest.approx(0.6487, abs=5e-5)
    assert r.se_effect == pytest.approx(0.3297, abs=5e-5)
    assert r.t_value == pytest.approx(2.5)
    assert r.kind == "proportional"

    r = effect_report(0.0, 0.1)
    assert r.effect == 0.0
    assert r.se_effect == pytest.approx(0.1)
    assert r.t_value == 0.0
    assert math.isnan(effect_report(0.0, 0.0).t_value)

    r = effect_report(math.log(2), 0.0, kind="proportional_odds")
    assert r.effect == pytest.approx(1.0)
    assert r.se_effect == 0.0
    assert r.t_value == math.inf


def test_effect_report_validation():
    with pytest.raises(ValueError):
        effect_report(0.1, -0.5)
    with pytest.raises(ValueError):
        effect_report(math.inf, 0.1)
    with pytest.raises(ValueError):
        effect_report(0.1, math.nan)
    with pytest.raises(ValueError, match="kind"):
        effect_report(0.1, 0.1, kind="percent")
    # exp(beta) overflows, or exp(beta) * se_beta does
    with pytest.raises(ValueError, match="beta = 800.0"):
        effect_report(800.0, 1.0)
    with pytest.raises(ValueError, match="beta = 1.0"):
        effect_report(1.0, 1e308)


@given(st.floats(-5, 5), st.floats(0, 3))
@settings(max_examples=80)
def test_effect_report_identities(beta, se):
    r = effect_report(beta, se, rare_event_note=True)
    assert r.effect == math.exp(beta) - 1.0
    assert r.se_effect == math.exp(beta) * se
    assert r.effect > -1.0
    assert r.rare_event_note


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=60)
def test_effect_is_monotone_in_beta(a, b):
    lo, hi = sorted([a, b])
    assert effect_report(lo, 1.0).effect <= effect_report(hi, 1.0).effect


# --- effects read off fitted models ------------------------------------------


def test_proportional_effect_kinds_follow_family():
    data = mean_cells(1.2, 0.9, 2.5, 4.0)
    m = build_design(data, DesignSpec(post_period=1))
    pfit = fit_poisson_qmle(m, data.y, data.weights, options=TIGHT)
    report = proportional_effect(pfit, "treat")
    assert report.kind == "proportional"
    assert report.beta == pytest.approx(pfit.coef("treat"))
    assert report.se_beta == pytest.approx(pfit.se("treat"))

    bdata = binary_cells(0.2, 0.25, 0.4, 0.7)
    bm = build_design(bdata, DesignSpec(post_period=1))
    lfit = fit_logit_qmle(bm, bdata.y, bdata.weights, options=TIGHT)
    assert proportional_effect(lfit, "treat").kind == "proportional_odds"

    table = {
        (0, 0): (0.5, 0.3, 0.2), (0, 1): (0.4, 0.35, 0.25),
        (1, 0): (0.45, 0.25, 0.3), (1, 1): (0.3, 0.45, 0.25),
    }
    cdata = class_cells(table)
    cm = build_design(cdata, DesignSpec(post_period=1))
    mfit = fit_multinomial_logit(cm, cdata.y, cdata.weights, options=TIGHT)
    assert proportional_effect(mfit, "treat[2]").kind == "class_c_proportional_odds"


def test_proportional_effect_linear_combination():
    rng = np.random.default_rng(0)
    n = 80
    x = rng.normal(size=n)
    X = np.column_stack([np.ones(n), x])
    y = rng.poisson(np.exp(0.2 + 0.4 * x)).astype(float)
    fit = fit_poisson_qmle(X, y, options=TIGHT)
    combo = {"x0": 1.0, "x1": 2.5}
    report = proportional_effect(fit, combo)
    c = np.array([1.0, 2.5])
    assert report.beta == pytest.approx(float(c @ fit.coefficients))
    assert report.se_beta == pytest.approx(float(np.sqrt(c @ fit.vcov @ c)))


def test_proportional_effect_rejections():
    data = mean_cells(1.2, 0.9, 2.5, 4.0)
    m = build_design(data, DesignSpec(post_period=1))
    ols = fit_ols(m, data.y, data.weights)
    with pytest.raises(ValueError, match="lin_dd_proportional"):
        proportional_effect(ols, "treat")

    pfit = fit_poisson_qmle(m, data.y, data.weights, options=TIGHT)
    with pytest.raises(ValueError, match="empty"):
        proportional_effect(pfit, {})
    with pytest.raises(ValueError, match="unknown coefficient"):
        proportional_effect(pfit, "nope")

    bad = fit_poisson_qmle(m, data.y, data.weights,
                           options=FitOptions(gradient_tolerance=1e-16,
                                              max_iterations=1))
    with pytest.raises(ValueError, match="non-converged"):
        proportional_effect(bad, "treat")


# --- the log transform of a linear DD estimate -------------------------------


def test_lin_dd_proportional():
    assert lin_dd_proportional(0.5, 1.0) == pytest.approx(math.log(1.5))
    assert lin_dd_proportional(0.0, 2.0) == 0.0
    with pytest.raises(RedrawRequired):
        lin_dd_proportional(-1.2, 1.0)
    with pytest.raises(ValueError, match="ybar_11"):
        lin_dd_proportional(0.5, 0.0)
    with pytest.raises(ValueError, match="ybar_11"):
        lin_dd_proportional(0.5, -2.0)


@given(st.floats(-0.99, 10.0), st.floats(0.01, 50.0))
@settings(max_examples=60)
def test_lin_dd_transform_inverts_scaling(ratio, ybar):
    # the transform depends on beta_d only through beta_d / ybar
    value = lin_dd_proportional(ratio * ybar, ybar)
    assert value == pytest.approx(math.log1p(ratio), rel=1e-12, abs=1e-12)


# --- nonparametric double ratios ----------------------------------------------


def test_nonparametric_rr_exact():
    data = mean_cells(2.0, 3.0, 5.0, 15.0, spread=0.5)
    assert nonparametric_rr(data, post_period=1) == pytest.approx(
        (15.0 / 5.0) / (3.0 / 2.0), rel=1e-12
    )


def test_nonparametric_rr_is_scale_invariant():
    data = mean_cells(2.0, 3.0, 5.0, 15.0)
    scaled = cell_dataset({
        (g, s): [(7.0 * y, w) for y, w in rows]
        for (g, s), rows in {
            (0, 0): [(1.4, 1.0), (2.6, 1.0)],
            (0, 1): [(2.1, 1.0), (3.9, 1.0)],
            (1, 0): [(3.5, 1.0), (6.5, 1.0)],
            (1, 1): [(10.5, 1.0), (19.5, 1.0)],
        }.items()
    })
    assert nonparametric_rr(scaled, 1) == pytest.approx(
        nonparametric_rr(data, 1), rel=1e-12
    )


def test_nonparametric_rr_weights_act_like_frequencies():
    weighted = cell_dataset({
        (0, 0): [(1.0, 2.0), (4.0, 1.0)],
        (0, 1): [(2.0, 1.0)],
        (1, 0): [(3.0, 1.0)],
        (1, 1): [(5.0, 3.0)],
    })
    repeated = cell_dataset({
        (0, 0): [(1.0, 1.0), (1.0, 1.0), (4.0, 1.0)],
        (0, 1): [(2.0, 1.0)],
        (1, 0): [(3.0, 1.0)],
        (1, 1): [(5.0, 1.0), (5.0, 1.0), (5.0, 1.0)],
    })
    assert nonparametric_rr(weighted, 1) == pytest.approx(
        nonparametric_rr(repeated, 1), rel=1e-12
    )


def test_nonparametric_rr_covariate_cell_filter():
    y = np.array([1.0, 9.0, 2.0, 9.0, 3.0, 9.0, 12.0, 9.0])
    q = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    t = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    x = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    from rrdid import RcsDataset

    data = RcsDataset(y=y, q=q, t=t, covariates={"x": x}, n_periods=2)
    rr = nonparametric_rr(data, 1, covariate_cell={"x": 1.0})
    assert rr == pytest.approx((12.0 / 3.0) / (2.0 / 1.0), rel=1e-12)
    with pytest.raises(ValueError, match="unknown covariate"):
        nonparametric_rr(data, 1, covariate_cell={"z": 1.0})


def test_nonparametric_rr_failure_modes():
    data = mean_cells(2.0, 3.0, 5.0, 15.0)
    with pytest.raises(ValueError, match="post_period"):
        nonparametric_rr(data, 4)
    missing = cell_dataset({
        (0, 0): [(1.0, 1.0)], (0, 1): [(2.0, 1.0)], (1, 0): [(3.0, 1.0)],
    })
    with pytest.raises(EmptyCellError):
        nonparametric_rr(missing, 1)
    zeroed = cell_dataset({
        (0, 0): [(0.0, 1.0)], (0, 1): [(2.0, 1.0)],
        (1, 0): [(3.0, 1.0)], (1, 1): [(5.0, 1.0)],
    })
    with pytest.raises(ValueError, match="non-positive mean"):
        nonparametric_rr(zeroed, 1)


def test_nonparametric_ror_exact():
    data = binary_cells(0.2, 0.25, 0.4, 0.7)
    odds = {
        (0, 0): 0.2 / 0.8, (0, 1): 0.25 / 0.75,
        (1, 0): 0.4 / 0.6, (1, 1): 0.7 / 0.3,
    }
    expected = (odds[(1, 1)] / odds[(1, 0)]) / (odds[(0, 1)] / odds[(0, 0)])
    assert nonparametric_ror(data, 1) == pytest.approx(expected, rel=1e-12)


def test_nonparametric_ror_class_argument():
    table = {
        (0, 0): (0.5, 0.3, 0.2), (0, 1): (0.4, 0.35, 0.25),
        (1, 0): (0.45, 0.25, 0.3), (1, 1): (0.3, 0.45, 0.25),
    }
    data = class_cells(table)
    for c in (1, 2):
        r = {key: p[c] / p[0] for key, p in table.items()}
        expected = (r[(1, 1)] / r[(1, 0)]) / (r[(0, 1)] / r[(0, 0)])
        assert nonparametric_ror(data, 1, class_c=c) == pytest.approx(
            expected, rel=1e-12
        )


@pytest.mark.parametrize("class_c", [0, -1, 1.0, 1.5, "1", True, None])
def test_nonparametric_ror_rejects_bad_class(class_c):
    # class 0 against itself would read as exactly 1.0
    data = class_cells({key: (0.5, 0.3, 0.2) for key in ((0, 0), (0, 1), (1, 0), (1, 1))})
    with pytest.raises(ValueError, match="class_c"):
        nonparametric_ror(data, 1, class_c=class_c)
    assert nonparametric_ror(data, 1, class_c=np.int64(2)) == pytest.approx(1.0, rel=1e-12)


def test_nonparametric_ror_zero_proportion():
    # class 1 never occurs in the (0, pre) cell
    data = cell_dataset({
        (0, 0): [(0.0, 1.0), (0.0, 1.0)],
        (0, 1): [(1.0, 0.25), (0.0, 0.75)],
        (1, 0): [(1.0, 0.4), (0.0, 0.6)],
        (1, 1): [(1.0, 0.7), (0.0, 0.3)],
    })
    with pytest.raises(ValueError, match="zero proportion"):
        nonparametric_ror(data, 1)


def test_ror_approximates_rr_for_rare_outcomes():
    # with outcome probabilities near zero the odds ratio tracks the risk
    # ratio, so the double ratios agree to a few percent
    probs = {(0, 0): 0.010, (0, 1): 0.012, (1, 0): 0.008, (1, 1): 0.015}
    data = binary_cells(*[probs[k] for k in [(0, 0), (0, 1), (1, 0), (1, 1)]])
    rr = nonparametric_rr(data, 1)
    ror = nonparametric_ror(data, 1)
    assert abs(ror / rr - 1.0) <= 0.05

    common = binary_cells(0.5, 0.55, 0.45, 0.75)
    assert abs(
        nonparametric_ror(common, 1) / nonparametric_rr(common, 1) - 1.0
    ) > 0.05
