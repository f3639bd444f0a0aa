"""Covariances as sandwiches A^{-1} B A^{-1}, with no small-sample correction.

A is the negative Hessian at the optimum, B the outer product of the
per-row scores w_i (y_i - mu_i) (x) x_i, summed within clusters first when
cluster ids are supplied. B is taken after the fit from _Units, groups of
rows that share a design row and an outcome, and so a residual direction:
the rows, or, for a design of cell columns alone whose outcome is a class
label, the rows of one (cell, class), or (cluster, cell, class), taken from
the table of their summed weights; so a fit on cells keeps the row-level
sandwich exactly. Unclustered, B is _cross of the units' residual moments;
clustered, it is G G' for the per-cluster score sums G.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .blocks import _Blocks, _class_pairs, _cluster_codes, _cross, _number_pairs, _sum_cells
from .errors import NonFiniteObjectiveError, SingularHessianError


class _Units(NamedTuple):
    """The units a sandwich sums over: groups of rows that share a design row
    and an outcome, and so one residual direction y_u - mu_u, which the
    sandwich reads as scale_u (y_u - mu_u).

    blocks holds their design rows, y (C, m) their outcomes, fitted (m,) the
    fit unit whose mean is theirs (None: unit j is fit unit j) and clusters
    their cluster labels (None: unclustered). A single row's scale is its
    weight, so it reads the row's score. A group's is its summed weight when
    clustered, so it reads the sum of its rows' scores, and otherwise the
    root of its summed squared weights, so that its outer product is the
    sum of its rows' residual moments.
    """

    blocks: _Blocks
    y: np.ndarray
    scale: np.ndarray
    fitted: np.ndarray | None
    clusters: np.ndarray | None


def _sandwich(bread, blocks, resid, clusters=None):
    """A^{-1} B A^{-1}, with B the outer product of the row scores.

    blocks holds the design rows of m units, groups of rows that share a
    design row and a residual direction (single rows, or the _Units of a
    class table), and resid (C, m) each unit's residual r_u for its C
    classes, so unit u scores r_u (x) x_u. Unclustered, B is _cross of the
    units' residual moments r_c r_d of the class pairs c <= d: its
    cell-column blocks sum them within cells first. Clustered, clusters
    holds each unit's cluster and B = G G' for the (Cp, clusters)
    per-cluster score sums G: for the cell columns, each of the cluster's
    (cluster, cell) pairs' residual sum times the cell's row, and for the
    row columns, its units' scores. No small-sample factor is applied.
    Raises NonFiniteObjectiveError when B overflows.
    """
    n_classes, n = resid.shape
    cell, rows, index = blocks
    k, p1 = cell.shape
    # an overflow leaves inf or NaN, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        if clusters is None:
            pairs = _class_pairs(n_classes)
            moments = np.empty((len(pairs), n))
            for pair, (c, d) in enumerate(pairs):
                np.multiply(resid[c], resid[d], out=moments[pair])
            meat = _cross(blocks, moments)
        else:
            codes, groups = _cluster_codes(clusters)
            # (C, p2, clusters) sums of the row columns' scores; the cell
            # columns' sums go before them
            grouped = _sum_cells(codes, groups, resid[:, None, :] * rows.T)
            if p1:
                # the codes become the (cluster, cell) keys in place, so the
                # codes, the keys and the pair numbers are never alive together
                codes *= k
                codes += index
                pairs, pair = _number_pairs(codes, groups * k)
                del codes
                cell_scores = _sum_cells(pair, pairs.size, resid)[:, None, :] * cell[pairs % k].T
                grouped = np.concatenate([_sum_cells(pairs // k, groups, cell_scores), grouped],
                                         axis=1)
            grouped = grouped.reshape(-1, groups)
            meat = grouped @ grouped.T
    if not np.all(np.isfinite(meat)):
        raise NonFiniteObjectiveError("the scores' outer product overflows; "
                                      "the covariance is not finite")
    try:
        half = np.linalg.solve(bread, meat)
        vcov = np.linalg.solve(bread, half.T).T
    except np.linalg.LinAlgError:
        raise SingularHessianError("sandwich bread matrix is singular")
    return (vcov + vcov.T) / 2.0
