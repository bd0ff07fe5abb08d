"""Deterministic tubal decompositions: t-QR, orthogonalization, truncated t-SVD.

Every factorization runs on the half-spectrum stack of rfft_tubes; the
trailing slices are conjugate mirrors (singular values mirror without
conjugation), so the inverse transform of the assembled half-spectrum is
exactly real.  t-QR, orth and tubal_rank are one batched LAPACK call each.
The truncated t-SVD (svd_spectral) walks the slices by core.map_chunks.
It takes the Gram of each slice's smaller side in one batched product per
chunk, and the top-rank eigenpairs of that Gram give the singular values
and one factor, a projection the other.  A slice whose spectrum cannot
certify that result (GRAM_RTOL) is factored by SVD instead, and no factor
wider than the rank is formed.  tsvd_factors, the one inverse, turns a
t-SVD core's triple (uh, sh, vhh) into TSVDFactors.
"""

from dataclasses import dataclass

import numpy as np

from .core import adjoint, as_index, as_tensor3, irfft_tubes, map_chunks, rfft_tubes
from .errors import DegenerateInput, NonFiniteData, RankOutOfRange

# svd_spectral takes a slice's factors from its Gram only when the Gram's
# r-th eigenvalue exceeds GRAM_RTOL times its largest (derivation there).
GRAM_RTOL = 2.0 ** -20


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


def _finite(h: np.ndarray) -> np.ndarray:
    """h, if every entry is finite; else NonFiniteData: the spectrum of finite x overflowed."""
    if not np.isfinite(h).all():
        raise NonFiniteData("the spectrum of x overflows float64")
    return h


def t_qr(x: np.ndarray):
    """Tubal QR: returns (q, r) with x = q * r and q of shape (I1, min(I1,I2), I3)."""
    x = as_tensor3(x)
    qh, rh = np.linalg.qr(_finite(rfft_tubes(x)))
    return irfft_tubes(qh, x.shape[2], like=x), irfft_tubes(rh, x.shape[2], like=x)


def orth(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the lateral range of x (the Q part of t_qr).

    Raises DegenerateInput when x has no nonzero entry (measured against x
    itself, that is numerically zero): any basis for it would be arbitrary.
    """
    x = as_tensor3(x)
    if not x.any():
        raise DegenerateInput("cannot orthonormalize a zero tensor")
    return irfft_tubes(np.linalg.qr(_finite(rfft_tubes(x)))[0], x.shape[2], like=x)


def check_rank(rank, i1: int, i2: int) -> int:
    """rank as an int if 1 <= rank <= min(i1, i2), the t-SVD's rank range; else RankOutOfRange."""
    rank = as_index(rank, "rank", RankOutOfRange)
    if not 1 <= rank <= min(i1, i2):
        raise RankOutOfRange(f"rank {rank} not in [1, {min(i1, i2)}]")
    return rank


def svd_spectral(h: np.ndarray, rank: int):
    """(u, s, vh): the top-rank singular triplets of every slice of the (K, M, I2) stack h.

    u is (K, M, rank) with orthonormal columns, vh is (K, rank, I2) with
    orthonormal rows and s the (K, rank) nonincreasing singular values, as
    np.linalg.svd returns them, so u * s @ vh is each slice's best
    rank-rank approximation.  rank must be in range.

    Each chunk of the core.map_chunks walk takes the Gram g of its slices'
    smaller side (h h^H if M <= I2, else h^H h) and its eigenpairs
    (lam, w), largest first.  Then s = sqrt(lam), w is that side's factor
    and the other side's is the projection w^H h / s (or h w / s).  The Gram and eigh are backward
    stable: with lam_1 = s_1^2, w is orthonormal to working precision and
    w^H G w = diag(lam) + F with ||F|| <= p(M) * ulp * lam_1 for the exact
    Gram G and a modest polynomial p in the slice's sizes.  So the
    projected factor f satisfies f^H f = I + diag(s)^-1 F diag(s)^-1, off I
    by at most p(M) * ulp * lam_1 / lam_r, and s_r is off by half that
    relative amount.  A slice takes this path only if
    lam_r > GRAM_RTOL * lam_1, which keeps both below
    p(M) * ulp / GRAM_RTOL: at 2^-20, s_1 / s_r up to 1024 and a loss of
    p(M) * 2^-32 at worst.  lam_r must also be a normal number, so
    underflow adds no larger error.  The product u * s @ vh is w w^H h, the
    projection on the top eigenspace, which no rounding of s enters.  Zero,
    rank-deficient and ill-conditioned slices fail the test, as do slices
    whose Gram overflows, and go to np.linalg.svd, those slices only (a
    non-finite one raises NonFiniteData); nothing divides by zero.
    """
    k, m, n = h.shape
    wide = m <= n
    u = np.empty((k, m, rank), dtype=np.complex128)
    s = np.empty((k, rank))
    vh = np.empty((k, rank, n), dtype=np.complex128)
    top = slice(None, -rank - 1, -1)

    def fn(c):
        # fn runs on pool threads: no public tubal function, which a tracer may wrap.
        hc, uc, sc, vhc = h[c], u[c], s[c], vh[c]
        with np.errstate(over="ignore", invalid="ignore"):
            g = hc @ hc.conj().swapaxes(1, 2) if wide else hc.conj().swapaxes(1, 2) @ hc
        g[~np.isfinite(g).all(axis=(1, 2))] = 0.0
        lam, w = np.linalg.eigh(g)
        del g
        lam = lam[:, top]
        ok = (lam[:, -1] > GRAM_RTOL * lam[:, 0]) & (lam[:, -1] >= np.finfo(np.float64).tiny)
        np.sqrt(np.maximum(lam, 0.0, out=sc), out=sc)
        if wide:
            uc[...] = w[:, :, top]
            np.matmul(uc.conj().swapaxes(1, 2), hc, out=vhc)
            np.divide(vhc, sc[:, :, None], out=vhc, where=ok[:, None, None])
        else:
            vhc[...] = w[:, :, top].conj().swapaxes(1, 2)
            np.matmul(hc, vhc.conj().swapaxes(1, 2), out=uc)
            np.divide(uc, sc[:, None, :], out=uc, where=ok[:, None, None])
        del w
        bad = np.flatnonzero(~ok)
        if bad.size:
            ub, sb, vhb = np.linalg.svd(_finite(hc[bad]), full_matrices=False)
            uc[bad], sc[bad], vhc[bad] = ub[:, :, :rank], sb[:, :rank], vhb[:, :rank]

    map_chunks(fn, h)
    return u, s, vh


def tsvd_factors(uh, sh, vhh, i3: int, like=None) -> TSVDFactors:
    """The TSVDFactors of a half-spectrum triple (uh, sh, vhh): the one inverse transform.

    uh (K, I1, R), sh (K, R) and vhh (K, R, I2) are as svd_spectral returns
    them, u lifted by a basis if any.  like, the tensor the factors derive
    from, picks the memory order of u and v as in irfft_tubes; s is C-ordered.
    """
    rank = sh.shape[1]
    # Only the diagonal tubes of s are nonzero; the rest transform to zeros.
    s = np.zeros((rank, rank, i3))
    idx = np.arange(rank)
    s[idx, idx] = np.fft.irfft(sh, n=i3, axis=0).T
    return TSVDFactors(u=irfft_tubes(uh, i3, like=like), s=s,
                       v=irfft_tubes(adjoint(vhh), i3, like=like))


def truncated_tsvd(x: np.ndarray, rank: int) -> TSVDFactors:
    """Rank-R tubal SVD: svd_spectral of the half spectrum of x, inverted by tsvd_factors.

    An out-of-range rank is refused before x is transformed.
    """
    x = as_tensor3(x)
    rank = check_rank(rank, *x.shape[:2])
    # xh is held until u and v are inverted, as in randomized.adaptive_qb.
    xh = rfft_tubes(x)
    return tsvd_factors(*svd_spectral(xh, rank), x.shape[2], like=x)


def reconstruct(f: TSVDFactors) -> np.ndarray:
    """Multiply the factors back together: u * s * transpose(v)."""
    return irfft_tubes(rfft_tubes(f.u) @ rfft_tubes(f.s) @ adjoint(rfft_tubes(f.v)),
                       f.u.shape[2], like=f.u)


def tubal_rank(x: np.ndarray) -> int:
    """Numerical tubal rank: max matrix rank over frequency-domain slices.

    A singular value counts while it exceeds max(I1, I2) * ulp(largest
    singular value over all slices), the usual matrix-rank default.
    Mirrored slices share singular values, so only the leading half is
    examined.
    """
    x = as_tensor3(x)
    svals = np.linalg.svd(_finite(rfft_tubes(x)), compute_uv=False)
    smax = float(svals.max(initial=0.0))
    tol = max(x.shape[0], x.shape[1]) * np.spacing(smax)
    return int((svals > tol).sum(axis=1).max())
