import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdid import DesignSpec, RcsDataset, build_design, summarize_cells


def toy_dataset():
    return RcsDataset(
        y=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        q=np.array([0, 0, 1, 1, 1, 0]),
        t=np.array([0, 1, 1, 2, 2, 2]),
        covariates={"x": np.array([0.5, -1.0, 2.0, 0.0, 1.0, 3.0])},
        n_periods=3,
    )


def test_column_order_and_markers():
    data = toy_dataset()
    spec = DesignSpec(post_period=2, include_group_trend=True,
                      heterogeneous_covariates=("x",))
    m = build_design(data, spec)
    assert m.column_names == (
        "const", "period_1", "period_2", "group", "group_trend",
        "treat", "x", "treat:x",
    )
    assert m.index("group_trend") == 4
    assert m.index("treat") == 5
    np.testing.assert_array_equal(m.column("const"), np.ones(6))
    np.testing.assert_array_equal(m.column("period_2"), (data.t == 2).astype(float))
    np.testing.assert_array_equal(m.column("group"), data.q.astype(float))
    np.testing.assert_array_equal(m.column("group_trend"), data.t * data.q * 1.0)
    expected_treat = (data.q * (data.t == 2)).astype(float)
    np.testing.assert_array_equal(m.column("treat"), expected_treat)
    np.testing.assert_array_equal(m.column("treat:x"), expected_treat * data.covariates["x"])


def test_base_period_controls_omitted_dummy():
    data = toy_dataset()
    m = build_design(data, DesignSpec(post_period=2, base_period=1))
    assert "period_0" in m.column_names
    assert "period_1" not in m.column_names


def test_design_values_reproduce_the_dense_layout():
    # the dense design the columns' formulas give row by row
    rng = np.random.default_rng(5)
    q, t = rng.integers(0, 2, 40), rng.integers(0, 4, 40)
    x, z = rng.normal(size=40), rng.normal(size=40)
    data = RcsDataset(y=np.ones(40), q=q, t=t, covariates={"x": x, "z": z}, n_periods=4)
    design = build_design(data, DesignSpec(post_period=2, base_period=1, include_group_trend=True,
                                           heterogeneous_covariates=("z",)))
    treat = q * (t >= 2)
    dense = np.column_stack([np.ones(40), t == 0, t == 2, t == 3, q, t * q, treat, x, z,
                             treat * z])
    np.testing.assert_array_equal(design.values, dense)
    assert design.values.flags.writeable is False
    for j, name in enumerate(design.column_names):
        np.testing.assert_array_equal(design.column(name), dense[:, j])
        assert design.column(name).flags.writeable is False


def test_period_dummies_can_be_dropped():
    data = toy_dataset()
    m = build_design(data, DesignSpec(post_period=2, include_period_dummies=False))
    assert m.column_names == ("const", "group", "treat", "x")
    assert "group_trend" not in m.column_names


def test_design_rejects_out_of_range_periods():
    data = toy_dataset()
    with pytest.raises(ValueError, match="post_period"):
        build_design(data, DesignSpec(post_period=3))
    with pytest.raises(ValueError, match="base_period"):
        build_design(data, DesignSpec(post_period=2, base_period=-1))


def test_design_rejects_covariates_named_like_design_columns():
    base = toy_dataset()
    for name in ("treat", "group_trend", "period_1"):
        data = RcsDataset(y=base.y, q=base.q, t=base.t, n_periods=3,
                          covariates={name: base.covariates["x"]})
        with pytest.raises(ValueError, match=name):
            build_design(data, DesignSpec(post_period=2, include_group_trend=True))


def test_heterogeneous_covariates_must_exist():
    data = toy_dataset()
    spec = DesignSpec(post_period=2, heterogeneous_covariates=("nope",))
    with pytest.raises(ValueError, match="nope"):
        build_design(data, spec)


def test_unknown_column_lookup():
    m = build_design(toy_dataset(), DesignSpec(post_period=2))
    with pytest.raises(ValueError, match="wat"):
        m.index("wat")


@pytest.mark.parametrize("bad", [
    dict(q=np.array([0, 2, 1, 1, 0, 0])),
    dict(t=np.array([0, 1, 1, 2, 2, 3])),
    dict(t=np.array([0.5, 1, 1, 2, 2, 2])),
    dict(t=np.array([-1, 1, 1, 2, 2, 2])),
    dict(weights=np.zeros(6)),
    dict(weights=np.ones(5)),
    dict(y=np.array([1.0, np.inf, 3, 4, 5, 6])),
    dict(covariates={"x": np.array([np.nan] * 6)}),
])
def test_dataset_validation(bad):
    base = dict(
        y=np.arange(1.0, 7.0),
        q=np.array([0, 0, 1, 1, 1, 0]),
        t=np.array([0, 1, 1, 2, 2, 2]),
        n_periods=3,
    )
    base.update(bad)
    with pytest.raises(ValueError):
        RcsDataset(**base)


@pytest.mark.parametrize("period", [np.inf, 1e19, 2.0**53])
def test_dataset_rejects_periods_beyond_2_53(period):
    with pytest.raises(ValueError, match=r"magnitude below 2\*\*53"):
        RcsDataset(y=[1.0, 2.0, 3.0], q=[0, 1, 1], t=[0, 1, period])


def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        RcsDataset(y=np.array([]), q=np.array([]), t=np.array([]))


def test_dataset_arrays_are_read_only():
    data = toy_dataset()
    with pytest.raises(ValueError):
        data.y[0] = 99.0
    with pytest.raises(ValueError):
        data.covariates["x"][0] = 99.0


def test_dataset_copies_writeable_inputs():
    # changing an input later leaves the dataset as it was
    y, w, x = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 1.0]), np.array([0.5, 0.1, 0.2])
    data = RcsDataset(y=y, q=[0, 1, 1], t=[0, 1, 1], weights=w, covariates={"x": x})
    for arr in (y, w, x):
        arr[0] = 99.0
    assert (data.y[0], data.weights[0], data.covariates["x"][0]) == (1.0, 1.0, 0.5)


def test_dataset_adopts_frozen_arrays_that_own_their_data():
    y, q, t = np.array([1.0, 2.0, 3.0]), np.array([0, 1, 1]), np.array([0, 1, 1])
    w, x, clusters = np.array([1.0, 2.0, 1.0]), np.array([0.5, 0.1, 0.2]), np.array([3, 3, 4])
    for arr in (y, q, t, w, x, clusters):
        arr.setflags(write=False)
    data = RcsDataset(y=y, q=q, t=t, weights=w, covariates={"x": x}, clusters=clusters)
    assert data.y is y and data.q is q and data.t is t and data.weights is w
    assert data.covariates["x"] is x and data.clusters is clusters
    # one of another dtype is converted, into a frozen copy
    labels = np.array([1, 2, 3])
    labels.setflags(write=False)
    data = RcsDataset(y=labels, q=q, t=t)
    assert data.y.dtype == np.float64 and not data.y.flags.writeable


def test_dataset_copies_read_only_views():
    # a read-only view of a writeable base can still change through the base
    base = np.array([1.0, 2.0, 3.0, 4.0])
    view = base[:3]
    view.setflags(write=False)
    data = RcsDataset(y=view, q=[0, 1, 1], t=[0, 1, 1], weights=view)
    assert data.y is not view and data.weights is not view
    base[0] = 99.0
    assert data.y[0] == 1.0 and data.weights[0] == 1.0


def test_default_weights_and_period_count():
    data = RcsDataset(y=[1.0, 2.0], q=[0, 1], t=[0, 3])
    assert data.n_periods == 4
    np.testing.assert_array_equal(data.weights, np.ones(2))


# --- cell summaries ---------------------------------------------------------


def test_summarize_cells_weighted_means():
    data = RcsDataset(
        y=np.array([1.0, 3.0, 2.0, 6.0, 10.0]),
        q=np.array([0, 0, 1, 1, 1]),
        t=np.array([0, 0, 0, 1, 1]),
        weights=np.array([1.0, 3.0, 2.0, 1.0, 1.0]),
        n_periods=2,
    )
    cells = {(c.group, c.post): c for c in summarize_cells(data, post_period=1)}
    assert cells[(0, False)].count == 2
    assert cells[(0, False)].mean == pytest.approx((1 + 3 * 3) / 4)
    # population-weighted sd
    m = 2.5
    expected_sd = np.sqrt((1 * (1 - m) ** 2 + 3 * (3 - m) ** 2) / 4)
    assert cells[(0, False)].sd == pytest.approx(expected_sd)
    assert cells[(1, True)].mean == pytest.approx(8.0)
    assert cells[(0, True)].count == 0
    assert np.isnan(cells[(0, True)].mean)


def test_summarize_cells_pools_pre_periods():
    data = RcsDataset(
        y=np.array([1.0, 5.0, 9.0, 2.0]),
        q=np.array([0, 0, 0, 1]),
        t=np.array([0, 1, 2, 2]),
        n_periods=3,
    )
    cells = {(c.group, c.post): c for c in summarize_cells(data, post_period=2)}
    assert cells[(0, False)].count == 2
    assert cells[(0, False)].mean == pytest.approx(3.0)
    assert cells[(0, True)].mean == pytest.approx(9.0)


def test_summarize_cells_rejects_bad_post():
    data = toy_dataset()
    with pytest.raises(ValueError):
        summarize_cells(data, post_period=5)


# --- properties -------------------------------------------------------------


@st.composite
def datasets(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    n_periods = draw(st.integers(min_value=2, max_value=4))
    q = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    t = draw(st.lists(st.integers(0, n_periods - 1), min_size=n, max_size=n))
    y = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n))
    post = draw(st.integers(0, n_periods - 1))
    data = RcsDataset(y=np.array(y), q=np.array(q), t=np.array(t),
                      n_periods=n_periods)
    return data, post


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_design_invariants(case):
    data, post = case
    m = build_design(data, DesignSpec(post_period=post, include_group_trend=True))
    assert len(set(m.column_names)) == len(m.column_names)
    assert m.values.shape == (data.n, m.n_columns)
    np.testing.assert_array_equal(m.values[:, 0], np.ones(data.n))
    np.testing.assert_array_equal(
        m.values[:, m.index("treat")], (data.q * (data.t >= post)).astype(float)
    )
    # treated rows are exactly the group-1 rows in the post periods
    assert m.column("treat").sum() == np.sum((data.q == 1) & (data.t >= post))
