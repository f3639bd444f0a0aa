"""Repeated cross-section data model and design-matrix construction.

The regressor layout is fixed so that downstream code can locate the
treatment and group-trend columns by name: intercept, period dummies
(base period omitted), group dummy Q, group trend t*Q (optional),
treatment D = Q * 1[t == post], covariates, then treatment-interacted
covariates for heterogeneous effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RcsDataset",
    "DesignSpec",
    "DesignMatrix",
    "CellStats",
    "build_design",
    "cell_masks",
    "cell_mean",
    "summarize_cells",
]


def _frozen_array(values, dtype=None):
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RcsDataset:
    """One observation per sampled subject.

    Attributes:
        y: outcome, real valued (class labels for multinomial fits).
        q: group indicator in {0, 1}.
        t: integer period index in [0, n_periods).
        covariates: mapping from name to per-row values.
        weights: positive sampling weights, default 1.
        clusters: optional cluster ids for clustered variance estimation.
        n_periods: declared number of periods; defaults to max(t) + 1.
    """

    y: np.ndarray
    q: np.ndarray
    t: np.ndarray
    covariates: dict = field(default_factory=dict)
    weights: np.ndarray | None = None
    clusters: np.ndarray | None = None
    n_periods: int | None = None

    def __post_init__(self):
        y = _frozen_array(self.y, float)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("y must be a non-empty 1-d array")
        n = y.size
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite values")

        q = np.asarray(self.q)
        if q.shape != (n,):
            raise ValueError("q must match the length of y")
        if not np.all(np.isin(q, (0, 1))):
            raise ValueError("q must contain only 0/1 group indicators")
        q = _frozen_array(q, np.int64)

        t = np.asarray(self.t)
        if t.shape != (n,):
            raise ValueError("t must match the length of y")
        if not np.all(t == np.floor(t)):
            raise ValueError("t must contain integer period indices")
        t = _frozen_array(t, np.int64)
        n_periods = self.n_periods if self.n_periods is not None else int(t.max()) + 1
        if n_periods < 1:
            raise ValueError("n_periods must be at least 1")
        if t.min() < 0 or t.max() >= n_periods:
            raise ValueError("t outside the declared period range")

        if self.weights is None:
            w = np.ones(n)
        else:
            w = np.asarray(self.weights, float)
            if w.shape != (n,):
                raise ValueError("weights must match the length of y")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("weights must be positive and finite")
            w = w.copy()
        w.setflags(write=False)

        cov = {}
        for name, values in dict(self.covariates).items():
            arr = np.asarray(values, float)
            if arr.shape != (n,):
                raise ValueError(f"covariate {name!r} must match the length of y")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"covariate {name!r} contains non-finite values")
            cov[str(name)] = _frozen_array(arr)

        clusters = self.clusters
        if clusters is not None:
            clusters = np.asarray(clusters)
            if clusters.shape != (n,):
                raise ValueError("clusters must match the length of y")
            clusters = _frozen_array(clusters)

        object.__setattr__(self, "y", y)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "n_periods", int(n_periods))

    @property
    def n(self) -> int:
        return self.y.size

    def covariate_matrix(self, names) -> np.ndarray:
        unknown = [name for name in names if name not in self.covariates]
        if unknown:
            raise ValueError(f"unknown covariates: {', '.join(unknown)}")
        if not names:
            return np.empty((self.n, 0))
        return np.column_stack([self.covariates[name] for name in names])


@dataclass(frozen=True)
class DesignSpec:
    """Options controlling which columns enter the design matrix."""

    post_period: int
    include_period_dummies: bool = True
    include_group_trend: bool = False
    heterogeneous_covariates: tuple = ()
    base_period: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "heterogeneous_covariates", tuple(self.heterogeneous_covariates)
        )


@dataclass(frozen=True)
class DesignMatrix:
    """Numeric regressor matrix with named columns.

    cells, when given, holds each row's cell index, and every column is
    constant within a cell: the fits then run on the cells' sums.
    """

    values: np.ndarray
    column_names: tuple
    treatment_column: int
    trend_column: int | None
    cells: np.ndarray | None = None

    def __post_init__(self):
        values = _frozen_array(self.values, float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if self.cells is not None:
            cells = _frozen_array(self.cells, np.intp)
            if cells.shape != values.shape[:1] or cells.size == 0 or cells.min() < 0:
                raise ValueError("cells must hold one non-negative index per design row")
            some_row = np.zeros(cells.max() + 1, np.intp)
            some_row[cells] = np.arange(cells.size)
            if not np.array_equal(values, values[some_row[cells]]):
                raise ValueError("design rows must be constant within cells")
            object.__setattr__(self, "cells", cells)

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    def index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise ValueError(f"unknown design column {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.index(name)]


def _check_period(dataset: RcsDataset, period: int, what: str) -> None:
    if not 0 <= period < dataset.n_periods:
        raise ValueError(f"{what} outside the dataset's period range")


def build_design(dataset: RcsDataset, spec: DesignSpec) -> DesignMatrix:
    """Assemble the regressor matrix for a two-group DD design.

    Column order: intercept, period dummies (base omitted), group,
    group trend, treatment, covariates, treatment-interacted covariates.
    Treatment is D = Q * 1[t == post_period]. Without covariates every
    column is a function of the (group, period) cell, and the design records
    each row's cell q * n_periods + t.
    """
    T = dataset.n_periods
    _check_period(dataset, spec.post_period, "post_period")
    _check_period(dataset, spec.base_period, "base_period")

    cols = [np.ones(dataset.n)]
    names = ["const"]
    if spec.include_period_dummies:
        for p in range(T):
            if p == spec.base_period:
                continue
            cols.append((dataset.t == p).astype(float))
            names.append(f"period_{p}")
    cols.append(dataset.q.astype(float))
    names.append("group")

    trend_column = None
    if spec.include_group_trend:
        cols.append(dataset.t.astype(float) * dataset.q)
        names.append("group_trend")
        trend_column = len(names) - 1

    treat = (dataset.q * (dataset.t == spec.post_period)).astype(float)
    cols.append(treat)
    names.append("treat")
    treatment_column = len(names) - 1

    for name in dataset.covariates:
        cols.append(dataset.covariates[name])
        names.append(name)
    hetero = spec.heterogeneous_covariates
    unknown = [name for name in hetero if name not in dataset.covariates]
    if unknown:
        raise ValueError(f"heterogeneous covariates not in dataset: {', '.join(unknown)}")
    for name in hetero:
        cols.append(treat * dataset.covariates[name])
        names.append(f"treat:{name}")
    # coefficients are looked up by name, so a covariate named like a design
    # column would silently stand in for it
    clashes = sorted({name for name in names if names.count(name) > 1})
    if clashes:
        raise ValueError(f"covariate names clash with design columns: {', '.join(clashes)}")

    return DesignMatrix(
        values=np.column_stack(cols),
        column_names=names,
        treatment_column=treatment_column,
        trend_column=trend_column,
        cells=None if dataset.covariates else dataset.q * T + dataset.t,
    )


@dataclass(frozen=True)
class CellStats:
    """Weighted outcome summary for one (group, pre/post) cell.

    mean and sd are NaN when the cell is empty; sd uses the population
    convention (weights treated as frequencies).
    """

    group: int
    post: bool
    count: int
    mean: float
    sd: float


def cell_masks(dataset: RcsDataset, post_period: int) -> dict:
    """Row masks of the four (group, pre/post) cells, keyed (group, post).

    Post pools every period t >= post_period and pre every earlier one;
    keys come in the order (0, False), (0, True), (1, False), (1, True).
    This is the one place the cell statistics decide which rows are post.
    """
    _check_period(dataset, post_period, "post_period")
    is_post = dataset.t >= post_period
    return {(g, post): (dataset.q == g) & (is_post == post)
            for g in (0, 1) for post in (False, True)}


def cell_mean(dataset: RcsDataset, mask: np.ndarray, values=None) -> float:
    """Weighted mean over the rows in mask of values (default dataset.y)."""
    y = dataset.y if values is None else values
    w = dataset.weights[mask]
    return float(np.sum(w * y[mask]) / np.sum(w))


def summarize_cells(dataset: RcsDataset, post_period: int) -> list:
    """Weighted mean/SD/count of y in the four (group, pre/post) cells.

    Pre pools every period before post_period. Empty cells are reported
    with count 0 rather than raised.
    """
    out = []
    for (g, post), mask in cell_masks(dataset, post_period).items():
        count = int(mask.sum())
        if count == 0:
            out.append(CellStats(g, post, 0, float("nan"), float("nan")))
            continue
        mean = cell_mean(dataset, mask)
        sd = float(np.sqrt(cell_mean(dataset, mask, (dataset.y - mean) ** 2)))
        out.append(CellStats(g, post, count, mean, sd))
    return out
