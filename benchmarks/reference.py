"""NumPy-only oracle for the benchmark's correctness checks; it never calls the library.

The tubal (t-SVD) error of the best tubal-rank-r approximation follows
from the singular values of the DFT frontal slices: with Parseval,
||x - x_r||_F^2 = (1/I3) * sum_k sum_{j>r} sigma_{k,j}^2.
"""

import numpy as np


def tail_energy(x: np.ndarray) -> np.ndarray:
    """tail[r] = squared Frobenius error of the best tubal-rank-r approximation, r = 0..min(I1, I2)."""
    xhat = np.fft.fft(x, axis=2)
    sv = np.linalg.svd(np.moveaxis(xhat, 2, 0), compute_uv=False)
    per_rank = (sv ** 2).sum(axis=0) / x.shape[2]
    return np.append(per_rank[::-1].cumsum()[::-1], 0.0)


def optimal_rank(tail: np.ndarray, eps_abs: float) -> int:
    """Smallest tubal rank whose best approximation has error at most eps_abs."""
    return int(np.argmax(tail <= eps_abs ** 2))


def tprod_error(x: np.ndarray, *factors: np.ndarray, adjoint_last: bool = False,
                rows: int = 16) -> float:
    """||x - f1 * f2 * ...||_F / ||x||_F for real factors, the last optionally transposed.

    The t-product is built ``rows`` horizontal slices at a time, so the
    check never holds more than a small fraction of an x-sized array.
    """
    i3 = x.shape[2]
    heads = [np.moveaxis(np.fft.rfft(f, axis=2), 2, 0) for f in factors]
    if adjoint_last:
        heads[-1] = heads[-1].conj().transpose(0, 2, 1)
    rest = heads[1]
    for h in heads[2:]:
        rest = rest @ h
    sq = 0.0
    for i in range(0, x.shape[0], rows):
        block = np.fft.irfft(np.moveaxis(heads[0][:, i:i + rows] @ rest, 0, 2), n=i3, axis=2)
        sq += float(np.sum((x[i:i + rows] - block) ** 2))
    return float(np.sqrt(sq) / np.linalg.norm(x))
