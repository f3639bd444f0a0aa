import numpy as np
import pytest

from rrdid import RcsDataset


def fit_objective(family, X, y, w):
    """(value, grad, hess) at a 1-d beta of one fit's maximand.

    family names an estimators._FAMILIES record ("poisson_qmle",
    "logit_qmle", "multinomial_logit", "ols"); X is a plain array or a
    DesignMatrix, split into blocks as the fits split it; y is (n,), or
    (n, C) class indicators for the multinomial, held class-major as (C, n)
    as the fits hold it.
    """
    from rrdid.blocks import _as_design
    from rrdid.estimators import _FAMILIES, _objective

    blocks, _ = _as_design(X)
    y = np.asarray(y, float).reshape(blocks.rows.shape[0], -1).T
    fit = _objective(_FAMILIES[family], blocks, y, np.asarray(w, float), [])
    return lambda beta: fit(np.asarray(beta, float))


def cell_dataset(cells, n_periods=2):
    """Build an RcsDataset from {(q, t): [(y, weight), ...]} cell rows."""
    y, q, t, w = [], [], [], []
    for (g, period), rows in cells.items():
        for value, weight in rows:
            y.append(value)
            q.append(g)
            t.append(period)
            w.append(weight)
    return RcsDataset(y=np.array(y, float), q=np.array(q), t=np.array(t),
                      weights=np.array(w, float), n_periods=n_periods)


def mean_cells(m00, m01, m10, m11, spread=0.3):
    """Two-row cells whose weighted means are exactly the given values.

    Cell (q, s) holds rows m*(1 - spread) and m*(1 + spread) with equal
    weight, so saturated exponential-mean fits must reproduce the m's.
    """
    means = {(0, 0): m00, (0, 1): m01, (1, 0): m10, (1, 1): m11}
    return cell_dataset({
        key: [(m * (1 - spread), 1.0), (m * (1 + spread), 1.0)]
        for key, m in means.items()
    })


def binary_cells(p00, p01, p10, p11, scale=1.0):
    """Weighted two-row cells with exact success proportions."""
    probs = {(0, 0): p00, (0, 1): p01, (1, 0): p10, (1, 1): p11}
    return cell_dataset({
        key: [(1.0, scale * p), (0.0, scale * (1 - p))]
        for key, p in probs.items()
    })


def class_cells(prob_table, scale=1.0):
    """Weighted rows with exact class proportions per (q, s) cell.

    prob_table maps (q, s) -> sequence of class probabilities (class 0
    first). Labels are emitted as float class indices.
    """
    cells = {}
    for key, probs in prob_table.items():
        cells[key] = [(float(c), scale * p) for c, p in enumerate(probs)]
    return cell_dataset(cells)


@pytest.fixture
def criterion(request):
    """Record one acceptance-criterion outcome and assert it.

    The recorded lines are replayed in the terminal summary so every run
    shows one pass/fail line per criterion.
    """
    lines = getattr(request.config, "_acceptance_lines", None)
    if lines is None:
        lines = []
        request.config._acceptance_lines = lines

    def record(number, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"criterion {number} ({name}): {status}"
        if detail:
            line += f" -- {detail}"
        lines.append(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
