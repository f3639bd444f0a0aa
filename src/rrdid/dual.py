"""The Poisson and logit fits of an interior cell table, solved in their dual.

With regressors constant within k cells, the Poisson and logit QMLE are the
log-linear and logit models of the k-cell table of counts N and outcome
sums S. For a design X (k, p) of full rank with k - p <= 1, the score
equation X'(S - N mu) = 0 says S - N mu = v lam for the one row v of a basis
of null(X') (none when k = p), and the model equation says that link(mu),
the log or the log-odds of the fitted cell means, lies in the column space
of X, which is v' link(mu) = 0. So the fit is the root lam of

    g(lam) = sum_c v_c link(mu_c(lam)),   mu_c(lam) = (S_c - v_c lam) / N_c,

and beta = X^+ link(mu) (Haberman 1974, The Analysis of Frequency Data;
Fienberg and Rinaldo 2012, Ann. Statist. 40(2)). g is strictly decreasing
on the interval of lam that keeps every fitted mean in the link's domain,
and runs from +inf to -inf across it. A table whose cells all have interior
means (S_c > 0, and S_c < N_c for the logit) holds lam = 0 inside that
interval, so its fit always has a finite optimum; a table with a boundary
cell is not solved here.

Precision. mu_c(lam) = (S_c - v_c lam) / N_c cancels when a fitted count is
far below its sum, which happens at a root near an end of the interval,
where lam itself, as a float, cannot come closer to the end than its own
rounding. The root find therefore measures lam from the end it lies nearer
to, by its distance t, with each cell's constant formed from exact
products and sums: the cell that ends the interval there gets its fitted
count |v_c| t with no subtraction, and every other cell keeps its own
relative precision too, ties included. Against a 50-digit decimal solve, on
the paper's design with cell weights from 1e-8 to 1e8, Poisson means from
1e-8 to 1e8 and logit means within 1e-12 of 0 and 1, every link(mu_c) lay
within 2e-15 (1 + |link(mu_c)|) of the exact value over 3000 tables
(tests/test_dual.py).
"""

from __future__ import annotations

import numpy as np

__all__ = ["solves", "fit_interior"]

# the most Newton steps of one root find
_STEPS = 100
# the last step moves log t by at most this; the error it leaves is of its square
_STEP_TOLERANCE = 1e-10


def solves(logit, null, means):
    """Which fits (B,) of cell means (B, k) fit_interior solves.

    Every cell mean must lie inside the link's domain, above 0 (and below 1
    for the logit). A Poisson fit also needs the null row to take both
    signs, as it does when a column of X, or a sum of them, is constant, so
    that the interval of lam is bounded on both sides.
    """
    inside = means > 0
    if logit:
        inside &= means < 1
    ok = np.all(inside, axis=1)
    if len(null) and not logit and not ((null[0] > 0).any() and (null[0] < 0).any()):
        ok[:] = False
    return ok


def _links(logit, num, den, vv):
    """(link(mu) (..., k), g, g's slope) at fitted counts num and den, the
    cells' counts N (Poisson) or their complements N - num (logit), with vv
    (k, 2) the columns v and v^2; the slope is -dg/dlam = sum_c v_c^2
    link'(mu_c) / N_c, which is positive."""
    terms = np.empty(num.shape[:-1] + (2, num.shape[-1]))
    eta, inverse = terms[..., 0, :], terms[..., 1, :]
    np.log(np.divide(num, den, out=eta), out=eta)
    np.divide(1.0, num, out=inverse)
    if logit:
        inverse += 1.0 / den
    # one stacked product per fit, so that a fit's bits do not depend on its batch
    both = terms @ vv
    return eta, both[..., 0, 0], both[..., 1, 1]


def _split(a):
    """a = high + low, each half of a's 53 bits (Veltkamp); a value past
    2^996 is split at 2^-28 of its size, so that the split cannot overflow."""
    big = np.abs(a) > 2.0 ** 996
    scaled = np.where(big, a * 2.0 ** -28, a)
    c = 134217729.0 * scaled
    high = c - (c - scaled)
    high = np.where(big, high * 2.0 ** 28, high)
    return high, a - high


def _two_product(a, b):
    """(p, e): p = fl(a b) and a b = p + e exactly (Dekker 1971)."""
    p = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _two_difference(a, b):
    """(d, e): d = fl(a - b) and a - b = d + e exactly (Knuth)."""
    d = a - b
    z = d - a
    return d, (a - (d - z)) - (b + z)


def fit_interior(logit, null, pinv_t, counts, sums):
    """(beta (B, p), link(mu) (B, k), converged (B,)) of B fits on the cells
    of a design X (k, p) with k - p <= 1, from the null rows (k - p, k) and
    the transposed pseudo-inverse pinv_t (k, p) of X, and each fit's cell
    counts N and outcome sums S (B, k), all of whose means are interior
    (solves).

    With k = p, mu = S / N. With k - p = 1, each cell's fitted count S_c -
    v_c lam reaches 0 at lam = S_c / v_c and, for the logit, its complement
    F_c + v_c lam, F = N - S, reaches 0 at -F_c / v_c: the nearest of these
    ends on either side of 0 bound the interval (lo, hi). g at the midpoint
    says which end the root lies nearer to, and from there lam = end - sign
    t. Each cell's constants a_c = S_c - v_c end and c_c = F_c + v_c end are
    formed with v_c end and F held as exact sums of two floats (Dekker's and
    Knuth's error-free products and sums), and the end is moved from its
    float to the exact end of the cell nearest to it, whose own constant is
    then 0. So the fitted counts a_c + sign v_c t and complements c_c - sign
    v_c t keep their relative precision as t falls to 0, even where two
    cells' ends round to one float. Formed in plain floats, a_c carries an
    error of about eps S_c, which a second cell whose end lies within the
    rounding of the first, at a root near that end, turns into an error of
    up to 1e-3 in its link (tests/test_dual.py). h(t) = sign g(end - sign
    t) is increasing and convex in x = log t: each term v_c log(num_c) and
    -v_c log(c_c - sign v_c t) is a positive multiple of log(a + b e^x) with
    b > 0, or a negative multiple of one with b < 0. So Newton steps in x
    from a point at or past the root fall monotonically to it. The first
    step is taken from lam = 0 and stopped at the midpoint, which lies past
    the root, and a fit stops once a step moves x by at most
    _STEP_TOLERANCE. A fit that has not stopped after _STEPS steps is not
    converged, and its link values are not to be used.
    """
    S, N = sums, counts
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        if logit:
            F, f = _two_difference(N, S)
        if not len(null):
            eta = np.log(S / (F if logit else N))
            return (eta[:, None] @ pinv_t)[:, 0], eta, np.ones(len(S), bool)
        v = null[0]
        vv = np.stack((v, v * v), axis=1)
        rising, falling = v > 0, v < 0
        # the ends where fitted counts, then complements, reach 0, above and below 0
        upper = [np.where(rising, S / v, np.inf)]
        lower = [np.where(falling, S / v, -np.inf)]
        if logit:
            upper.append(np.where(falling, -F / v, np.inf))
            lower.append(np.where(rising, -F / v, -np.inf))
        upper, lower = np.hstack(upper), np.hstack(lower)
        hi, lo = upper.min(axis=1), lower.max(axis=1)
        mid = lo / 2 + hi / 2
        # g at lam = 0 and at lam = mid, which says which end the root lies nearer to
        at = np.stack((np.zeros_like(mid), mid), axis=1)[:, :, None]
        num = S[:, None] - v * at
        _, g, slope = _links(logit, num, N[:, None] - num if logit else N[:, None], vv)
        sign = np.where(g[:, 1] >= 0, 1.0, -1.0)
        end = np.where(sign > 0, hi, lo)
        # the first step, from lam = 0, stops at the midpoint
        t = np.minimum(sign * end * np.exp(-g[:, 0] / (end * slope[:, 0])), hi / 2 - lo / 2)
        # S - v end and F + v end, with v end = p + e exactly
        p, e = _two_product(v, end[:, None])
        a = (S - p) - e
        offsets = [a / v]
        if logit:
            c = (F + p) + e + f
            offsets.append(-c / v)
        # each end's offset from the rounded end; the nearest is the exact end
        offsets = np.hstack(offsets)
        nearest = np.where(sign > 0,
                           np.where(upper < np.inf, offsets, np.inf).argmin(axis=1),
                           np.where(lower > -np.inf, offsets, -np.inf).argmax(axis=1))
        rows = np.arange(len(S))
        shift = offsets[rows, nearest][:, None]
        cell, complement = nearest % len(v), nearest >= len(v)
        a = np.maximum(a - v * shift, 0.0)
        a[rows[~complement], cell[~complement]] = 0.0
        if logit:
            c = np.maximum(c + v * shift, 0.0)
            c[rows[complement], cell[complement]] = 0.0
        w = sign[:, None] * v
        running = np.ones(len(S), bool)
        for _ in range(_STEPS):
            wt = w * t[:, None]
            eta, g, slope = _links(logit, a + wt, c - wt if logit else N, vv)
            if not running.any():
                break
            step = np.where(running, -sign * g / (t * slope), 0.0)
            t = t * np.exp(step)
            running &= ~(np.abs(step) <= _STEP_TOLERANCE)
        return (eta[:, None] @ pinv_t)[:, 0], eta, ~running
