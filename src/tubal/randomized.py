"""Randomized low tubal-rank approximation.

Contains the fixed-rank randomized t-SVD with subspace (power) iteration,
the adaptive fixed-precision QB factorization that discovers the tubal
rank from an error bound, and trim_last_block, the rule that trims the
final block to the exact rank.  Each algorithm is a spectral core on the
half spectrum of x, randomized_spectral or adaptive_spectral, behind a
wrapper that lets x in by core.checked and transforms it once.  The
package exports neither the cores nor trim_last_block; they are public so
that the run reports can call them and the benchmark can trace them.
qb_spectral lifts every QB pair to the t-SVD triple that decomp.tsvd_factors inverts.

Both take each new block Q_i and its projection B_i = Q_i^H x from one
block step, which projects every product with x off the basis found so
far, so each power round multiplies by the residual x - Q*B as in
randQB_EI (Yu, Gu & Li, SIMAX 2018).  Each block step draws its own
sketch and scale and is one core.map_chunks walk.

The adaptive algorithm does not form the residual tensor.  It tracks the
squared residual through the recursion E <- E - ||B_i||_F^2, which is
exact because each block satisfies B_i = transpose(Q_i) * x with Q_i
orthonormal and orthogonal to all previous blocks.  The one exception is
the precision floor: when epsilon^2 is within PRECISION_FLOOR_ULPS ulps of
||x||_F^2, the recursion's cancellation error is as large as the bound,
so the residual is computed explicitly on the half spectrum instead.
"""

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import (
    RngStream,
    _parseval_weights,
    as_index,
    check_seed,
    checked,
    gaussian_tensor,
    irfft_tubes,
    map_chunks,
    residual_energy,
    rfft_tubes,
    row_energies,
)
from .decomp import TSVDFactors, check_rank, svd_spectral, tsvd_factors
from .errors import DegenerateInput, NonFiniteData, RankOutOfRange, SpecInvalid
from .tprod import conformable

# Below epsilon^2 = PRECISION_FLOOR_ULPS * ulp(1) * ||x||_F^2 the energy
# recursion cannot certify the bound, so the residual is computed explicitly.
PRECISION_FLOOR_ULPS = 256

# A block step stage whose entries are this small relative to its scale
# carries no direction information worth orthonormalizing.
ZERO_INPUT_RTOL = 1e-14


@dataclass(frozen=True)
class AdaptiveConfig:
    """Inputs of the adaptive algorithm.

    epsilon is an absolute bound on the Frobenius norm of the residual
    (callers wanting a relative bound multiply by ||x||_F once up front);
    block_size columns are added per iteration; power_iters subspace
    rounds, each multiplying by the residual x - q*b, sharpen each block;
    max_rank caps the search (None means min(I1, I2) of the tensor being
    factored).  A NaN, infinite, out-of-range or non-integer value, an
    epsilon whose square overflows float64, or a seed that is not an
    RngStream, raises SpecInvalid.
    """

    epsilon: float
    block_size: int
    power_iters: int = 1
    max_rank: int | None = None
    seed: RngStream = field(default_factory=lambda: RngStream(0))

    def __post_init__(self):
        # The algorithm compares squared energies, so epsilon ** 2 must be finite too.
        if not 0 <= self.epsilon <= math.sqrt(np.finfo(np.float64).max):
            raise SpecInvalid(f"epsilon must be nonnegative with a finite square, "
                              f"got {self.epsilon}")
        if as_index(self.block_size, "block_size") < 1:
            raise SpecInvalid(f"block_size must be >= 1, got {self.block_size}")
        if as_index(self.power_iters, "power_iters") < 0:
            raise SpecInvalid(f"power_iters must be >= 0, got {self.power_iters}")
        if self.max_rank is not None and as_index(self.max_rank, "max_rank") < 1:
            raise SpecInvalid(f"max_rank must be >= 1, got {self.max_rank}")
        check_seed(self.seed)

    def rank_cap(self, i1: int, i2: int) -> int:
        """The rank cap for an I1 x I2 x I3 tensor: max_rank, by check_rank, or min(I1, I2)."""
        return min(i1, i2) if self.max_rank is None else check_rank(self.max_rank, i1, i2)


class SpectralQB(NamedTuple):
    """A QB run on the half spectrum: x ~ irfft(qh @ bh).

    qh is the (K, I1, R) stack of q and bh the (K, R, I2) stack of b; the
    other fields mean what they mean on QBApprox.
    """

    qh: np.ndarray
    bh: np.ndarray
    energy_trace: list
    achieved: bool

    @property
    def rank(self) -> int:
        return self.bh.shape[1]


@dataclass
class QBApprox:
    """Range/projection pair x ~ q * b with orthonormal q.

    energy_trace[i] is the squared-residual estimate after block i+1;
    achieved records whether the energy dropped below epsilon^2 before
    the rank cap was hit.
    """

    q: np.ndarray
    b: np.ndarray
    energy_trace: list
    achieved: bool

    @property
    def rank(self) -> int:
        return self.b.shape[0]


def _next_block(xh: np.ndarray, qh: np.ndarray, rng, cols: int, i3: int, norm: float,
                rounds: int, passes: int):
    """The block step: q, orthonormal, from the sketch xh @ omega and orthogonal to qh; b = q^H xh.

    omega is the spectrum of gaussian_tensor(I2, cols, i3, rng), drawn before
    the walk; a non-finite norm = ||x||_F raises NonFiniteData.  Each product
    with x is projected off qh in place and orthonormalized: the sketch, then
    per round x^H q (q is orthogonal to qh already) and x q, so every product
    multiplies by the residual.  Each normalized block is then projected and
    orthonormalized passes more times, as the precision floor needs ("twice is
    enough").  An empty qh costs no work.  The step walks the chunks of the
    wider of the q and b stacks by core.map_chunks and returns (q, b).  Each
    chunk returns the energies of the stacks its stages orthonormalize; after
    the walk their sums are tested in stage order, and the first whose
    root-mean-square entry is at most ZERO_INPUT_RTOL times its scale
    (norm / sqrt(I1*I2*I3), that of x, or 1 for the passes) raises DegenerateInput.
    """
    if not np.isfinite(norm):
        raise NonFiniteData(f"norm must be finite, got {norm}")
    k, i1, i2 = xh.shape
    scale = norm / np.sqrt(max(i1 * i2 * i3, 1))
    omega = rfft_tubes(gaussian_tensor(i2, cols, i3, rng))
    q = np.empty((k, i1, cols), dtype=np.complex128)
    b = np.empty((k, cols, i2), dtype=np.complex128)
    w = _parseval_weights(k, i3)

    def fn(c):
        # fn runs on pool threads: no public tubal function, which a tracer may wrap.
        xc, qhc, wc, energies = xh[c], qh[c], w[c], []
        qhc_h = qhc.conj().swapaxes(1, 2)

        def basis(h):
            energies.append(wc @ (h.real ** 2 + h.imag ** 2).sum(axis=(1, 2)))
            return np.linalg.qr(h)[0]

        p = xc @ omega[c]
        for rnd in range(rounds + 1):
            if rnd:
                # x^H q is (q^H x)^H, so x is not copied; x q goes into p's buffer.
                np.matmul(xc, basis((qc.conj().swapaxes(1, 2) @ xc).conj().swapaxes(1, 2)), out=p)
            if qh.shape[2]:
                p -= qhc @ (qhc_h @ p)
            qc = basis(p)
            for _ in range(passes):
                qc = basis(qc - qhc @ (qhc_h @ qc))
        q[c] = qc
        np.matmul(qc.conj().swapaxes(1, 2), xc, out=b[c])
        return energies

    totals = np.sum(map_chunks(fn, q if i1 >= i2 else b), axis=0)
    runs = [(scale, i1)] + [(1.0, i1)] * passes
    for e, (s, rows) in zip(totals, runs + ([(scale, i2)] + runs) * rounds, strict=True):
        if np.sqrt(e) <= ZERO_INPUT_RTOL * np.sqrt(rows * cols * i3) * s:
            raise DegenerateInput("cannot orthonormalize a numerically zero tensor")
    return q, b


def randomized_tsvd(x: np.ndarray, rank: int, oversample: int, power_iters: int,
                    rng) -> TSVDFactors:
    """Fixed-rank randomized tubal SVD with subspace iteration.

    Sketches rank + oversample lateral slices, orthonormalizes, applies
    power_iters rounds of alternating products with x and its transpose
    (orthonormalizing after every half-step for stability), projects, and
    recovers the factors from the truncated t-SVD of the projection.
    randomized_spectral runs it all on the half spectrum of x, transformed once,
    and tsvd_factors inverts its result.  rng must be an RngStream, else
    SpecInvalid before x is transformed.
    """
    check_seed(rng)
    x, norm = checked(x, partial(check_sketch, rank, oversample, power_iters))
    # xh is held until u and v are inverted, as in adaptive_qb.
    xh = rfft_tubes(x)
    return tsvd_factors(*randomized_spectral(xh, x.shape[2], norm, rank, oversample,
                                             power_iters, rng), x.shape[2], like=x)


def check_sketch(rank, oversample, power_iters, i1: int, i2: int) -> None:
    """Refuse rank, oversample or power_iters if invalid for an I1 x I2 x I3 tensor.

    The rule of randomized_tsvd: 1 <= rank, 0 <= oversample and
    rank + oversample <= min(I1, I2), else RankOutOfRange; 0 <= power_iters,
    else SpecInvalid.  core.checked runs it at the entries, not randomized_spectral.
    """
    rank = as_index(rank, "rank", RankOutOfRange)
    oversample = as_index(oversample, "oversample", RankOutOfRange)
    if rank < 1 or oversample < 0 or rank + oversample > min(i1, i2):
        raise RankOutOfRange(f"need 1 <= rank, 0 <= oversample and rank + oversample <= "
                             f"{min(i1, i2)}, got rank={rank}, oversample={oversample}")
    if as_index(power_iters, "power_iters") < 0:
        raise SpecInvalid(f"power_iters must be >= 0, got {power_iters}")


def randomized_spectral(xh: np.ndarray, i3: int, norm: float, rank: int, oversample: int,
                        power_iters: int, rng):
    """The algorithm of randomized_tsvd on xh = rfft_tubes(x), with i3 = I3 and norm = ||x||_F.

    Returns the qb_spectral triple of the block step's (q, b).
    """
    return qb_spectral(*_next_block(xh, xh[:, :, :0], rng, rank + oversample, i3, norm,
                                    power_iters, 0), rank)


def qb_spectral(qh: np.ndarray, bh: np.ndarray, rank: int):
    """(qh @ uh, sh, vhh), the t-SVD of qh @ bh: svd_spectral(bh, rank) lifted by qh, unchecked."""
    uh, sh, vhh = svd_spectral(bh, rank)
    return qh @ uh, sh, vhh


def adaptive_qb(x: np.ndarray, cfg: AdaptiveConfig, trim: bool = True) -> QBApprox:
    """Grow a QB factorization block by block until ||x - q*b||_F < epsilon.

    The bound is tested before every block, so an x with ||x||_F < epsilon
    gets rank 0.  Each block of block_size directions (fewer for a last
    block that reaches the rank cap) comes from the block step on the part
    of x not yet captured, and the residual energy is updated by the
    recursion instead of forming the residual.  On success the final block
    is trimmed slice by slice to the smallest rank still meeting the bound
    (trim=False keeps whole blocks, e.g. to inspect the trace).  x is
    transformed once; q and b grow, and are trimmed, on its half spectrum,
    and are C-ordered if x is (else in irfft_tubes' default layout).

    If the rank cap is reached first, the best factorization found is
    returned with achieved=False, as it is when a sketch is degenerate
    (numerically zero relative to x): x is then fully captured, yet the
    bound was not met.

    At the precision floor (epsilon^2 at most PRECISION_FLOOR_ULPS ulps of
    ||x||_F^2) the energy after each block is the squared residual
    ||x - q*b||_F^2, computed by Parseval on the spectrum, each new block
    is re-orthonormalized against q twice more, and the final block is not
    trimmed.
    """
    x, norm = checked(x, cfg.rank_cap)
    i3 = x.shape[2]
    xh = rfft_tubes(x)
    qh, bh, trace, achieved = adaptive_spectral(xh, i3, norm, cfg, trim)
    # xh is held until q and b are inverted, so they are not placed in the
    # memory xh frees: a caller's later x-sized temporaries (x - q*b) reuse
    # it instead of growing the heap and page-faulting on every product.
    return QBApprox(q=irfft_tubes(qh, i3, like=x), b=irfft_tubes(bh, i3, like=x),
                    energy_trace=trace, achieved=achieved)


def adaptive_spectral(xh: np.ndarray, i3: int, norm: float, cfg: AdaptiveConfig,
                      trim: bool = True) -> SpectralQB:
    """The algorithm of adaptive_qb on the half spectrum xh = rfft_tubes(x).

    i3 is I3 and norm is ||x||_F, which must be finite.  The result stays
    on the half spectrum; qh and bh may be views of larger stacks.
    """
    i1, i2 = xh.shape[1:]
    max_rank = cfg.rank_cap(i1, i2)
    gen = cfg.seed.generator()
    eps2 = cfg.epsilon ** 2

    qh = np.zeros((xh.shape[0], i1, 0), dtype=np.complex128)
    bh = np.zeros((xh.shape[0], 0, i2), dtype=np.complex128)
    trace: list = []
    energy = norm ** 2
    floor = eps2 <= PRECISION_FLOOR_ULPS * np.finfo(np.float64).eps * energy

    while not (achieved := energy < eps2) and bh.shape[1] < max_rank:
        rank = bh.shape[1]
        try:
            q_i, b_i = _next_block(xh, qh, gen, min(cfg.block_size, max_rank - rank), i3, norm,
                                   cfg.power_iters, 2 if floor and rank else 0)
        except DegenerateInput:
            break
        qh = np.concatenate([qh, q_i], axis=2)
        bh = np.concatenate([bh, b_i], axis=1)
        energy_before_last = energy
        if floor:
            energy = residual_energy(xh, qh, bh, i3)
        else:
            rows = row_energies(b_i, i3)
            energy -= float(rows.sum())
        # Below 0 is cancellation noise; the true squared residual is ~0.
        trace.append(max(energy, 0.0))

    # A run that succeeds with blocks behind it succeeded on its last block.
    if achieved and trim and trace and not floor:
        # rank is still the rank before the final block b_i.
        kept, energy = trim_last_block(rows, energy_before_last, eps2)
        qh, bh = qh[:, :, :rank + kept], bh[:, :rank + kept]
        trace[-1] = max(energy, 0.0)
    return SpectralQB(qh, bh, trace, achieved)


def trim_last_block(rows: np.ndarray, energy_before_last: float, eps2: float):
    """How many rows of a successful run's final block meet the bound: the trim rule.

    rows are the squared norms of the block's horizontal slices, in order,
    and energy_before_last the squared residual before the whole block,
    which meets the bound.  Returns (kept, energy): the fewest leading rows
    whose norms, subtracted from energy_before_last, bring it below eps2,
    and the energy they leave.  q needs no recomputation: the recursion
    never involves it.
    """
    energy, kept = energy_before_last, 0
    for kept, row in enumerate(rows, start=1):
        energy -= float(row)
        if energy < eps2:
            break
    return kept, energy


def qb_to_tsvd(qb: QBApprox, rank="all") -> TSVDFactors:
    """Tubal SVD factors of a QB pair: check q * b and the rank, SVD the small b, lift u through q."""
    q, b = conformable(qb.q, qb.b)
    if qb.rank == 0:
        raise RankOutOfRange("qb has rank 0, so there are no factors: ||x||_F was "
                             "already below epsilon, or x is numerically zero")
    rank = check_rank(qb.rank if rank == "all" else rank, *b.shape[:2])
    return tsvd_factors(*qb_spectral(rfft_tubes(q), rfft_tubes(b), rank), b.shape[2], like=q)
