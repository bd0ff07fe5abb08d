"""Deterministic tubal decompositions: t-QR, orthogonalization, truncated t-SVD.

All factorizations run as one batched call on the half-spectrum stack of
rfft_tubes; the trailing slices are conjugate mirrors (singular values
mirror without conjugation), so the inverse transform of the assembled
half-spectrum is exactly real.
"""

from dataclasses import dataclass

import numpy as np

from .core import adjoint, as_index, as_tensor3, irfft_tubes, rfft_tubes, row_energies
from .errors import DegenerateInput, RankOutOfRange

# Entries this small relative to the data's scale carry no direction
# information worth orthonormalizing.
ZERO_INPUT_RTOL = 1e-14


@dataclass
class TSVDFactors:
    """Truncated tubal SVD: x ~ u * s * transpose(v).

    u is (I1, R, I3) and v is (I2, R, I3), both with orthonormal lateral
    slices; s is (R, R, I3), diagonal in every frequency-domain slice with
    nonincreasing nonnegative diagonals.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.shape[0]


def t_qr(x: np.ndarray):
    """Tubal QR: returns (q, r) with x = q * r and q of shape (I1, min(I1,I2), I3)."""
    x = as_tensor3(x)
    qh, rh = np.linalg.qr(rfft_tubes(x))
    return irfft_tubes(qh, x.shape[2]), irfft_tubes(rh, x.shape[2])


def orth_spectral(h: np.ndarray, i3: int, scale: float = 1.0) -> np.ndarray:
    """Slice-wise orthonormal basis of the half spectrum h of an I3-tube tensor.

    Raises DegenerateInput when that tensor's entries are at most
    ZERO_INPUT_RTOL * scale in root-mean-square size.
    """
    _, m, n = h.shape
    if np.sqrt(row_energies(h, i3).sum()) <= ZERO_INPUT_RTOL * np.sqrt(m * n * i3) * scale:
        raise DegenerateInput("cannot orthonormalize a numerically zero tensor")
    return np.linalg.qr(h)[0]


def orth(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the lateral range of x (the Q part of t_qr).

    Raises DegenerateInput when x is numerically zero (root-mean-square
    entry at most ZERO_INPUT_RTOL), since any basis returned for it would
    be arbitrary.
    """
    x = as_tensor3(x)
    return irfft_tubes(orth_spectral(rfft_tubes(x), x.shape[2]), x.shape[2])


def tsvd_factors(h: np.ndarray, rank: int, i3: int, lift=None) -> TSVDFactors:
    """Rank-R tubal SVD factors of the tensor with half spectrum h.

    With lift, a (K, I1, M) spectral stack with orthonormal columns, h is
    the projection lift^H x of some x and u is lifted to lift @ u.  Raises
    RankOutOfRange unless 1 <= rank <= min(M, I2) for h of shape (K, M, I2).
    """
    rank = as_index(rank, "rank", RankOutOfRange)
    if not 1 <= rank <= min(h.shape[1:]):
        raise RankOutOfRange(f"rank {rank} not in [1, {min(h.shape[1:])}]")
    uh, sh, vhh = np.linalg.svd(h, full_matrices=False)
    uh = uh[:, :, :rank]
    if lift is not None:
        uh = lift @ uh
    # Only the diagonal tubes of s are nonzero; the rest transform to zeros.
    s = np.zeros((rank, rank, i3))
    idx = np.arange(rank)
    s[idx, idx] = np.fft.irfft(sh[:, :rank], n=i3, axis=0).T
    return TSVDFactors(u=irfft_tubes(uh, i3), s=s,
                       v=irfft_tubes(adjoint(vhh[:, :rank, :]), i3))


def truncated_tsvd(x: np.ndarray, rank: int) -> TSVDFactors:
    """Rank-R tubal SVD via per-slice truncated SVD in the frequency domain."""
    x = as_tensor3(x)
    return tsvd_factors(rfft_tubes(x), rank, x.shape[2])


def spectral_pair(f: TSVDFactors):
    """The half spectra of u * s and transpose(v): the pair whose product is the approximation."""
    return rfft_tubes(f.u) @ rfft_tubes(f.s), adjoint(rfft_tubes(f.v))


def reconstruct(f: TSVDFactors) -> np.ndarray:
    """Multiply the factors back together: u * s * transpose(v)."""
    return irfft_tubes(np.matmul(*spectral_pair(f)), f.u.shape[2])


def tubal_rank(x: np.ndarray) -> int:
    """Numerical tubal rank: max matrix rank over frequency-domain slices.

    A singular value counts while it exceeds max(I1, I2) * ulp(largest
    singular value over all slices), the usual matrix-rank default.
    Mirrored slices share singular values, so only the leading half is
    examined.
    """
    x = as_tensor3(x)
    if x.size == 0:
        return 0
    svals = np.linalg.svd(rfft_tubes(x), compute_uv=False)
    smax = float(svals.max(initial=0.0))
    if smax == 0.0:
        return 0
    tol = max(x.shape[0], x.shape[1]) * np.spacing(smax)
    return int((svals > tol).sum(axis=1).max())
