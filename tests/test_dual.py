"""The dual root find of rrdid.dual against a 50-digit decimal solve."""

from decimal import Decimal, localcontext

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrdid import estimators
from rrdid.design import build_design
from rrdid.dual import fit_interior, solves
from rrdid.estimators import _cell_basis
from rrdid.simulate import _CELLS, _DESIGN

_X = build_design(_CELLS, _DESIGN)
_BASIS = _cell_basis(_X.cell_values, list(_X.column_names))


def _exact_links(logit, v, counts, sums):
    """link(mu) of the cells at the root of g, in 50-digit decimals.

    The root is bracketed in log t, where lam = end - sign t measures lam
    from the end of its interval that g at the midpoint says it lies nearer
    to, and the cell that ends the interval there has the fitted count
    sign v_c t with no subtraction; a Newton step that leaves the bracket is
    replaced by bisection, and the solve stops once a step is below 1e-40.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        v, N, S = ([Decimal(float(x)) for x in a] for a in (v, counts, sums))
        cells = [c for c in range(len(v)) if v[c]]
        empty = {c: S[c] / v[c] for c in cells}
        full = {c: (S[c] - N[c]) / v[c] for c in cells} if logit else {}
        ends = [*empty.values(), *full.values()]
        lo, hi = max(e for e in ends if e < 0), min(e for e in ends if e > 0)

        def links(num, den):
            return [(p / q).ln() for p, q in zip(num, den)]

        mid = (lo + hi) / 2
        num = [s - c * mid for s, c in zip(S, v)]
        at_mid = links(num, [n - p for n, p in zip(N, num)] if logit else N)
        sign = 1 if sum(c * e for c, e in zip(v, at_mid)) >= 0 else -1
        end = hi if sign > 0 else lo
        a = [Decimal(0) if empty.get(c) == end else S[c] - v[c] * end for c in range(len(v))]
        b = [Decimal(0) if full.get(c) == end else N[c] - S[c] + v[c] * end
             for c in range(len(v))]

        def at(x):
            t = x.exp()
            num = [ac + sign * c * t for ac, c in zip(a, v)]
            # the logit's complements from their own constants, not as N - num
            den = [bc - sign * c * t for bc, c in zip(b, v)] if logit else N
            eta = links(num, den)
            h = sign * sum(c * e for c, e in zip(v, eta))
            slope = t * sum(c * c * (1 / p + (1 / q if logit else 0))
                            for c, p, q in zip(v, num, den))
            return h, slope, eta

        x_hi = (sign * (end - mid)).ln()
        x_lo = x_hi - 1
        while at(x_lo)[0] >= 0:
            x_lo = x_hi - 2 * (x_hi - x_lo)
        x = x_hi
        for _ in range(300):
            h, slope, _ = at(x)
            if h == 0:
                break
            if h > 0:
                x_hi = x
            else:
                x_lo = x
            step = x - h / slope
            if not x_lo < step < x_hi:
                step = (x_lo + x_hi) / 2
            done = abs(step - x) < Decimal("1e-40")
            x = step
            if done:
                break
        return np.array([float(e) for e in at(x)[2]])


_LOG10 = st.lists(st.floats(-8.0, 8.0), min_size=8, max_size=8)
# a logit mean anywhere, or within 1e-12 to 1e-1 of 0 or of 1
_LOGIT_MEAN = st.one_of(st.floats(0.01, 0.99),
                        st.floats(1.0, 12.0).map(lambda d: 10.0 ** -d),
                        st.floats(1.0, 12.0).map(lambda d: 1.0 - 10.0 ** -d))


@given(st.booleans(), _LOG10, _LOG10, st.lists(_LOGIT_MEAN, min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
# a Poisson root within 1e-43 of the end of its interval, whose cell's fitted
# count is e^-82 of its weight: lam itself cannot come that close to the end
@example(False, [7.504, 5.968, 5.987, -0.365, -7.434, 3.887, 4.643, 7.442],
         [-7.428, 5.005, -2.611, 2.665, 6.409, -3.974, 7.895, -7.394], [0.5] * 8)
# two cells whose ends round to the same float, the exact nearer end being
# the second: each fitted count keeps its own tiny constant
@example(False, [0.0] * 4 + [-2.220446049250313e-16] + [0.0] * 3, [0.0, 6.0] + [0.0] * 6,
         [0.5] * 8)
# the first table with cell 6 given cell 4's data: the two ends differ only
# in v's last bits, and cell 6's fitted count, 1e-19 of its sum, lies below
# the rounding of a constant S_c - v_c end formed in plain floats
@example(False, [7.504, 5.968, 5.987, -0.365, -7.434, 3.887, -7.434, 7.442],
         [-7.428, 5.005, -2.611, 2.665, 6.409, -3.974, 6.409, -7.394], [0.5] * 8)
def test_dual_matches_a_decimal_solve(logit, log_weights, log_means, logit_means):
    # cell weights from 1e-8 to 1e8; Poisson means from 1e-8 to 1e8, logit
    # means within 1e-12 of 0 or 1 as well as between
    counts = 10.0 ** np.array(log_weights)
    means = np.array(logit_means) if logit else 10.0 ** np.array(log_means)
    sums = means * counts
    assert solves(logit, _BASIS.null, (sums / counts)[None])[0]
    _, eta, converged = fit_interior(logit, _BASIS.null, _BASIS.pinv_t, counts[None],
                                     sums[None])
    exact = _exact_links(logit, _BASIS.null[0], counts, sums)
    assert converged[0]
    assert np.max(np.abs(eta[0] - exact) / (1.0 + np.abs(exact))) <= 1e-14


def test_one_signed_null_row_leaves_the_dual(monkeypatch):
    # a Poisson design whose null row takes one sign leaves lam unbounded on
    # one side: the fit takes the Newton, which equals the row-level fit of
    # the cells as rows weighted by their counts
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    counts, sums = np.array([[3.0, 4.0, 5.0]]), np.array([[6.0, 2.0, 0.5]])
    assert not solves(False, _cell_basis(X, ["a", "b"]).null, sums / counts).any()

    def refuse(*args):
        raise AssertionError("the dual solved a fit with a one-signed null row")

    monkeypatch.setattr(estimators, "fit_interior", refuse)
    (beta, failures), = estimators.fit_cell_sums(("poisson_qmle",), X, counts, sums)
    assert failures == [None]
    fit = estimators.fit_poisson_qmle(X, sums[0] / counts[0], counts[0])
    assert beta[0].tobytes() == fit.coefficients.tobytes()
    np.testing.assert_allclose(beta[0], [0.93600979, -0.09174234], rtol=0, atol=1e-8)
