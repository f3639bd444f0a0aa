"""Block algebra on a design's cell columns and row columns.

A DesignMatrix holds its cell columns (intercept, period dummies, group,
trend, treat: functions of the (group, period) cell) once per cell, and the
fits keep them once per non-empty cell as Z; its row columns (covariates and
treat interactions) are held per row as V. Then eta = (Z beta_1)[cell] + V
beta_2; the outcome enters a fit once, as X'Wy, the score is X'Wy - X'W
b'(eta), whose cell block is Z' times each cell's sum of w b'(eta), and the
Hessian's cell blocks Z' diag(per-cell sums of w b'') Z and Z' times the
per-cell sums of w b'' V_j, so only V' diag(w b'') V is a product over rows.

Clusters are numbered once per fit, in sorted-label order: non-negative
integer codes, such as the CSV loader's, through a presence table, any
other labels through np.unique.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .design import DesignMatrix


class _Blocks(NamedTuple):
    """A design split into its cell columns and its row columns.

    The fits sum over units: the rows of a dataset, or its cells. cell (k,
    p1) holds the cell columns once per non-empty cell, rows (m, p2) the row
    columns once per unit, and index each unit's cell (None: unit j is cell
    j). Unit j's design row is (cell[index[j]], rows[j]); every column of a
    plain array is a row column.
    """

    cell: np.ndarray
    rows: np.ndarray
    index: np.ndarray | None


def _as_design(X):
    """(_Blocks of the design's rows, column names) of a DesignMatrix, whose
    empty cells drop out, or of a plain 2-d array."""
    if isinstance(X, DesignMatrix):
        keep = np.flatnonzero(np.bincount(X.cells))
        cells = X.cells
        # np.take and np.bincount copy a read-only index, and a fit with row
        # columns reads it in every evaluation, so that fit takes a copy
        if keep.size < len(X.cell_values) or X.row_values.shape[1]:
            index = np.zeros(keep[-1] + 1, np.intp)
            index[keep] = np.arange(keep.size)
            cells = index[cells]
        return _Blocks(X.cell_values[keep], X.row_values, cells), list(X.column_names)
    values = np.asarray(X, float)
    if values.ndim != 2:
        raise ValueError("design must be a 2-d array or DesignMatrix")
    return _Blocks(values[:, :0], values, None), [f"x{j}" for j in range(values.shape[1])]


def _unit_rows(blocks):
    """The (m, p) design rows of the units of blocks."""
    cell, rows, index = blocks
    cell = cell if index is None else cell[index]
    if not rows.shape[1]:
        return cell
    return rows if not cell.shape[1] else np.hstack([cell, rows])


def _cluster_codes(clusters):
    """(codes, number of clusters): each row's cluster numbered in sorted-label
    order, exactly as np.unique(clusters, return_inverse=True) numbers them.

    Non-negative integer labels, such as the codes the CSV loader gives, are
    numbered by _number_pairs: without a hash or a sort when every label is
    below the number of rows. Any other labels (negative integers, floats,
    booleans, strings) go to np.unique.
    """
    labels = np.asarray(clusters).reshape(-1)
    if labels.dtype.kind in "iu" and np.can_cast(labels.dtype, np.intp) and labels.min() >= 0:
        distinct, codes = _number_pairs(labels, int(labels.max()) + 1)
        return codes, distinct.size
    distinct, codes = np.unique(labels, return_inverse=True)
    return codes.reshape(-1), distinct.size


def _sum_cells(index, n_cells, rows):
    """Sums over the rows of each cell along the last axis of rows; index holds
    each row's cell."""
    flat = rows.reshape(-1, rows.shape[-1])
    sums = [np.bincount(index, weights=part, minlength=n_cells) for part in flat]
    return np.array(sums).reshape(rows.shape[:-1] + (n_cells,))


def _number_pairs(keys, size):
    """(pairs, pair): the distinct keys, all in range(size), in ascending
    order and each key's position among them, as np.unique(keys,
    return_inverse=True) gives them. When the presence table of all size
    keys is no longer than keys, its cumulative sum numbers them instead
    of a sort."""
    if size > keys.size:
        pairs, pair = np.unique(keys, return_inverse=True)
        return pairs, pair.reshape(-1)
    present = np.bincount(keys, minlength=size) > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]


def _class_pairs(n_classes):
    """The class pairs (c, d), c <= d, in the order of every (P, m) array
    of class-pair weights."""
    return [(c, d) for c in range(n_classes) for d in range(c, n_classes)]


def _transposed(blocks, values):
    """(X'values (C, p), per-cell sums (C, k) or None without cell columns)
    of (C, m) values on the units of blocks."""
    cell, rows, index = blocks
    parts, on_cells = [], None
    if cell.shape[1]:
        on_cells = values if index is None else _sum_cells(index, len(cell), values)
        parts.append(on_cells @ cell)
    if rows.shape[1]:
        parts.append(values @ rows)
    return (parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)), on_cells


def _cross(blocks, weight, on_cells=None):
    """sum_j weight_j (x) x_j x_j' over the units of blocks: (Cp, Cp) of p x p
    class-pair blocks for (P, m) weights of the P = C (C + 1) / 2 class
    pairs c <= d of _class_pairs; block (d, c) mirrors (c, d).

    The cell x cell blocks weight each cell's row by its summed weights
    (on_cells, when the caller has them), and the row columns' blocks are
    _transposed of the weights times each row column. Overflow leaves inf
    or NaN entries, which the callers decide on.
    """
    cell, rows, index = blocks
    n_pairs = len(weight)
    n_classes = (math.isqrt(8 * n_pairs + 1) - 1) // 2
    p1, p2 = cell.shape[1], rows.shape[1]
    if p1 and on_cells is None:
        on_cells = weight if index is None else _sum_cells(index, len(cell), weight)
    out = np.zeros((n_classes, p1 + p2, n_classes, p1 + p2))
    with np.errstate(over="ignore", invalid="ignore"):
        for pair, (c, d) in enumerate(_class_pairs(n_classes)):
            block = out[c, :, d, :]
            if p1:
                block[:p1, :p1] = (cell.T * on_cells[pair]) @ cell
            if p2:
                block[p1:] = _transposed(blocks, weight[pair] * rows.T)[0]
                block[:p1, p1:] = block[p1:, :p1].T
            if c != d:
                out[d, :, c, :] = block
    return out.reshape(n_classes * (p1 + p2), n_classes * (p1 + p2))
