"""Repeated cross-section data model and design-matrix construction.

The regressor layout is fixed so that downstream code can locate the
treatment and group-trend columns by name: intercept, period dummies
(base period omitted), group dummy Q, group trend t*Q (optional),
treatment D = Q * 1[t >= post], covariates, then treatment-interacted
covariates for heterogeneous effects. Every column up to the treatment is
a function of the row's (group, period) cell, so the design holds those
cell columns once per cell, beside each row's cell and the covariate row
columns; no n x p matrix is built unless a caller asks for values. The
fits handle the cell columns through per-cell sums, leaving only the row
columns to the rows. Post means t >= post everywhere: the treatment column
and the (group, pre/post) cell statistics pool every period from post on,
the pooled-QMLE reading of Wooldridge (2023).
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
    """values as a read-only array of dtype. A read-only array of that dtype
    that owns its data is adopted as it is; any other input is copied, so
    that a later change to a writeable input, or to the base of a read-only
    view, leaves the result unchanged."""
    if (isinstance(values, np.ndarray) and values.flags.owndata and not values.flags.writeable
            and (dtype is None or values.dtype == dtype)):
        return values
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RcsDataset:
    """One observation per sampled subject.

    Every column is held read-only: a read-only array of the column's dtype
    that owns its data, such as the CSV loader's, is adopted without a copy,
    and any other input is copied.

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
        if not np.all((q == 0) | (q == 1)):
            raise ValueError("q must contain only 0/1 group indicators")
        q = _frozen_array(q, np.int64)

        t = np.asarray(self.t)
        if t.shape != (n,):
            raise ValueError("t must match the length of y")
        if t.dtype.kind not in "iu" and not np.all(t == np.floor(t)):
            raise ValueError("t must contain integer period indices")
        # from 2**53 on, distinct integers can share one float; two-sided,
        # since np.abs leaves the smallest int64 negative
        if not np.all((t > -2**53) & (t < 2**53)):
            raise ValueError("t must contain integer period indices of magnitude below 2**53")
        t = _frozen_array(t, np.int64)
        n_periods = self.n_periods if self.n_periods is not None else int(t.max()) + 1
        if n_periods < 1:
            raise ValueError("n_periods must be at least 1")
        if t.min() < 0 or t.max() >= n_periods:
            raise ValueError("t outside the declared period range")

        if self.weights is None:
            w = np.ones(n)
            w.setflags(write=False)
        else:
            w = np.asarray(self.weights, float)
            if w.shape != (n,):
                raise ValueError("weights must match the length of y")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("weights must be positive and finite")
            w = _frozen_array(w)

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
    """Numeric regressors with named columns, held as a cell design and row columns.

    cell_values (k, p1) holds the leading p1 columns once per cell and
    row_values (n, p2) the trailing p2 columns once per row; cells (n,) holds
    each row's cell, so row i's regressors are cell_values[cells[i]] followed
    by row_values[i], and the cell columns are constant within cells by
    construction. The fits handle the cell columns through per-cell sums of
    the rows' weights and residuals, and only the row columns row by row; a
    design without row columns fits on its cells' sums alone. values and
    column() assemble the dense n x p layout on demand.
    """

    cell_values: np.ndarray
    row_values: np.ndarray
    cells: np.ndarray
    column_names: tuple

    def __post_init__(self):
        cell_values = _frozen_array(self.cell_values, float)
        row_values = _frozen_array(self.row_values, float)
        cells = _frozen_array(self.cells, np.intp)
        names = tuple(self.column_names)
        if cell_values.ndim != 2 or row_values.ndim != 2 or cells.ndim != 1:
            raise ValueError("cell_values and row_values must be 2-d and cells 1-d")
        if row_values.shape[0] != cells.size:
            raise ValueError("row_values and cells must hold one entry per design row")
        if cells.size == 0 or cells.min() < 0 or cells.max() >= cell_values.shape[0]:
            raise ValueError("cells must hold at least one row, each a row of cell_values")
        if len(names) != cell_values.shape[1] + row_values.shape[1]:
            raise ValueError("column_names must name every cell and row column")
        object.__setattr__(self, "cell_values", cell_values)
        object.__setattr__(self, "row_values", row_values)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "column_names", names)

    @property
    def n_columns(self) -> int:
        return len(self.column_names)

    @property
    def values(self) -> np.ndarray:
        """The dense (n, p) regressor matrix, a read-only copy."""
        values = np.hstack([self.cell_values[self.cells], self.row_values])
        values.setflags(write=False)
        return values

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
    """Assemble the regressors for a two-group DD design.

    Column order: intercept, period dummies (base omitted), group,
    group trend, treatment, covariates, treatment-interacted covariates.
    Treatment is D = Q * 1[t >= post_period], the rule cell_masks uses, so
    one treat coefficient pools every period from post_period on. Every
    column up to treat is a function of the (group, period) cell, so these
    are evaluated once on the 2T cells, cell q * n_periods + t, and each row
    records its cell. Covariates and their treat interactions vary within
    cells and are the row columns.
    """
    T = dataset.n_periods
    _check_period(dataset, spec.post_period, "post_period")
    _check_period(dataset, spec.base_period, "base_period")

    q, t = np.repeat([0, 1], T), np.tile(np.arange(T), 2)
    cols = [np.ones(2 * T)]
    names = ["const"]
    if spec.include_period_dummies:
        for p in range(T):
            if p == spec.base_period:
                continue
            cols.append(t == p)
            names.append(f"period_{p}")
    cols.append(q)
    names.append("group")

    if spec.include_group_trend:
        cols.append(t * q)
        names.append("group_trend")

    treat = q * (t >= spec.post_period)
    cols.append(treat)
    names.append("treat")

    cells = dataset.q * T + dataset.t
    rows = list(dataset.covariates.values())
    names += list(dataset.covariates)
    hetero = spec.heterogeneous_covariates
    unknown = [name for name in hetero if name not in dataset.covariates]
    if unknown:
        raise ValueError(f"heterogeneous covariates not in dataset: {', '.join(unknown)}")
    for name in hetero:
        rows.append(treat[cells] * dataset.covariates[name])
        names.append(f"treat:{name}")
    # coefficients are looked up by name, so a covariate named like a design
    # column would silently stand in for it
    clashes = sorted({name for name in names if names.count(name) > 1})
    if clashes:
        raise ValueError(f"covariate names clash with design columns: {', '.join(clashes)}")

    row_values = np.column_stack(rows) if rows else np.empty((dataset.n, 0))
    # frozen, so that DesignMatrix adopts them
    cells.setflags(write=False)
    row_values.setflags(write=False)
    return DesignMatrix(
        cell_values=np.column_stack(cols),
        row_values=row_values,
        cells=cells,
        column_names=names,
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
