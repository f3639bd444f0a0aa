"""The rank test of a weighted design, which names its redundant columns."""

import numpy as np

from .blocks import _cross, _unit_rows
from .errors import SingularDesignError


def _check_full_rank(blocks, weights, names):
    """Raise SingularDesignError as the rank test of the weighted unit rows
    does, forming those rows only when the Gram does not prove full rank."""
    gram = _cross(blocks, weights[None])
    if not _gram_proves_full_rank(gram, weights.size):
        # an overflow leaves inf, which the QR check refuses
        with np.errstate(over="ignore"):
            weighted = _unit_rows(blocks) * np.sqrt(weights)[:, None]
        _check_full_rank_qr(weighted, names)


def _gram_proves_full_rank(gram, n):
    """Whether the Gram A'A of an (n, p) matrix A proves that _check_full_rank_qr
    finds A full rank.

    That test finds no column redundant when every leading block of columns
    A_k has sigma_min(A_k) > max(n, p) eps sigma_max(A), and dropping columns
    never lowers the smallest singular value, so sigma_min(A) above that
    cutoff plus the QR's relative backward error, O(n p^1.5 eps), suffices.
    Forming A'A, its n-term sums in any order (the cell blocks sum within
    cells first), and eigvalsh move its eigenvalues, the squared singular
    values, by about n p eps lambda_max at most, so lambda_min >= 100 n p eps
    lambda_max puts sigma_min / sigma_max near 10 (n p eps)^(1/2) or above,
    far past both terms. Closer calls, and Grams near underflow or overflow,
    are left to the QR.
    """
    if gram.shape[0] == 0 or not np.all(np.isfinite(gram)):
        return False
    return _eigenvalues_prove_full_rank(np.linalg.eigvalsh(gram), n)


def _eigenvalues_prove_full_rank(eigenvalues, n):
    """_gram_proves_full_rank's test on the Gram's ascending eigenvalues,
    which squared singular values of A, more accurate still, may stand for."""
    p = len(eigenvalues)
    tau = 100.0 * max(n, p) * p * np.finfo(float).eps
    return bool(eigenvalues[0] >= tau * eigenvalues[-1]
                and eigenvalues[0] > np.sqrt(np.finfo(float).tiny))


def _check_full_rank_qr(weighted, names):
    """Raise SingularDesignError naming, in design order, each column that adds
    no rank to the columns before it.

    Ranks are counted as np.linalg.matrix_rank counts them, singular values
    above max(n, p) eps sigma_max of the whole matrix. The leading k columns
    of R in weighted = Q R are the R factor of the leading k columns of
    weighted, so one QR proves every leading block full rank when each
    block's smallest singular value clears the cutoff by more than the QR's
    rounding, O(max(n, p) p^1.5 eps sigma_max). A block within that margin
    (every rank-deficient one among them) is a close call that the QR's
    rounding could decide either way, so from the first such block on the
    ranks are those of np.linalg.matrix_rank on the weighted columns
    themselves.
    """
    if not np.all(np.isfinite(weighted)):
        raise ValueError("the weighted design overflows; rescale its columns or the weights")
    eps, (n, p) = np.finfo(float).eps, weighted.shape
    r = np.linalg.qr(weighted, mode="r")
    sigmas = [np.linalg.svd(r[:, :k], compute_uv=False) for k in range(1, p + 1)]
    cutoff = max(n, p) * eps * sigmas[-1][0]
    margin = (1.0 + 10.0 * p**1.5) * cutoff
    clear = [s.size == k and s[-1] > margin for k, s in enumerate(sigmas, 1)]
    if all(clear):
        return
    first = clear.index(False)
    tol = max(n, p) * eps * np.linalg.norm(weighted, 2)
    ranks = list(range(first + 1)) + [np.linalg.matrix_rank(weighted[:, :k], tol=tol)
                                      for k in range(first + 1, p + 1)]
    redundant = [names[j] for j in range(p) if ranks[j + 1] <= ranks[j]]
    if redundant:
        raise SingularDesignError(redundant)
