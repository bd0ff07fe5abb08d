"""Randomized low tubal-rank approximation.

Contains the fixed-rank randomized t-SVD with subspace (power) iteration,
the adaptive fixed-precision QB factorization that discovers the tubal
rank from an error bound, and trim_last_block, the rule that trims the
final block to the exact rank.  The package does not export
trim_last_block; it is public so that the benchmark can trace it.

The adaptive algorithm does not form the residual tensor.  It tracks the
squared residual through the recursion E <- E - ||B_i||_F^2, which is
exact because each block satisfies B_i = transpose(Q_i) * x with Q_i
orthonormal and orthogonal to all previous blocks.  The one exception is
the precision floor: when epsilon^2 is within PRECISION_FLOOR_ULPS ulps of
||x||_F^2, the recursion's cancellation error is as large as the bound,
so the residual is computed explicitly on the half spectrum instead.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    RngStream,
    adjoint,
    frobenius_norm,
    gaussian_tensor,
    irfft_tubes,
    residual_energy,
    rfft_tubes,
    row_energies,
)
from .decomp import TSVDFactors, orth_spectral, tsvd_factors
from .errors import DegenerateInput, RankOutOfRange, SpecInvalid

# Below epsilon^2 = PRECISION_FLOOR_ULPS * ulp(1) * ||x||_F^2 the energy
# recursion cannot certify the bound, so the residual is computed explicitly.
PRECISION_FLOOR_ULPS = 256


@dataclass(frozen=True)
class AdaptiveConfig:
    """Inputs of the adaptive algorithm.

    epsilon is an absolute bound on the Frobenius norm of the residual
    (callers wanting a relative bound multiply by ||x||_F once up front);
    block_size columns are added per iteration; power_iters subspace
    rounds sharpen each block; max_rank caps the search (None means
    min(I1, I2) of the tensor being factored).  A value out of range,
    NaN included, raises SpecInvalid.
    """

    epsilon: float
    block_size: int
    power_iters: int = 1
    max_rank: int | None = None
    seed: RngStream = field(default_factory=lambda: RngStream(0))

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise SpecInvalid(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.block_size < 1:
            raise SpecInvalid(f"block_size must be >= 1, got {self.block_size}")
        if self.power_iters < 0:
            raise SpecInvalid(f"power_iters must be >= 0, got {self.power_iters}")
        if self.max_rank is not None and self.max_rank < 1:
            raise SpecInvalid(f"max_rank must be >= 1, got {self.max_rank}")


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


def _power_iterate(xh: np.ndarray, q: np.ndarray, i3: int, scale: float,
                   rounds: int, deflate=None) -> np.ndarray:
    """Subspace iteration on the spectral basis q; x^H q is (q^H x)^H, so x is not copied.

    With deflate, a pair (qh, bh), it iterates on the residual x - qh @ bh
    instead of on x.
    """
    for _ in range(rounds):
        p = adjoint(q) @ xh
        if deflate is not None:
            p -= (adjoint(q) @ deflate[0]) @ deflate[1]
        q = orth_spectral(adjoint(p), i3, scale)
        p = xh @ q
        if deflate is not None:
            p -= deflate[0] @ (deflate[1] @ q)
        q = orth_spectral(p, i3, scale)
    return q


def randomized_tsvd(x: np.ndarray, rank: int, oversample: int, power_iters: int,
                    rng) -> TSVDFactors:
    """Fixed-rank randomized tubal SVD with subspace iteration.

    Sketches rank + oversample lateral slices, orthonormalizes, applies
    power_iters rounds of alternating products with x and its transpose
    (orthonormalizing after every half-step for stability), projects, and
    recovers the factors from the truncated t-SVD of the projection.
    Everything runs on the half spectrum of x, transformed once.
    """
    x = np.asarray(x, dtype=np.float64)
    i1, i2, i3 = x.shape
    if rank < 1 or oversample < 0 or rank + oversample > min(i1, i2):
        raise RankOutOfRange(
            f"need 1 <= rank, 0 <= oversample and rank + oversample <= {min(i1, i2)}, "
            f"got rank={rank}, oversample={oversample}"
        )
    if power_iters < 0:
        raise SpecInvalid(f"power_iters must be >= 0, got {power_iters}")
    omega = rfft_tubes(gaussian_tensor(i2, rank + oversample, i3, rng))
    xh = rfft_tubes(x)
    # The degeneracy test is relative to the root-mean-square entry of x.
    scale = frobenius_norm(x) / np.sqrt(max(x.size, 1))
    q = _power_iterate(xh, orth_spectral(xh @ omega, i3, scale), i3, scale, power_iters)
    return tsvd_factors(adjoint(q) @ xh, rank, i3, lift=q)


def adaptive_qb(x: np.ndarray, cfg: AdaptiveConfig, trim: bool = True) -> QBApprox:
    """Grow a QB factorization block by block until ||x - q*b||_F < epsilon.

    The bound is tested before every block, so an x with ||x||_F < epsilon
    gets rank 0.  Each iteration sketches block_size new directions (fewer
    for a last block that reaches the rank cap) against the part of x not
    yet captured, orthonormalizes them against the accumulated basis, and
    updates the residual energy by the recursion instead of forming the
    residual.  On success the final block is trimmed slice by slice to
    the smallest rank still meeting the bound (disable with trim=False to
    keep whole blocks, e.g. when inspecting the trace).  x is transformed
    once; q and b grow on its half spectrum, are trimmed there and are
    transformed back once.

    If the rank cap is reached first, the best factorization found is
    returned with achieved=False.  A degenerate (numerically zero relative
    to x) sketch means x is already fully captured, yet the bound was not
    met before it; the current factors are returned with achieved=False.

    At the precision floor (epsilon^2 at most PRECISION_FLOOR_ULPS ulps of
    ||x||_F^2) the energy after each block is the explicitly computed
    squared residual ||x - q*b||_F^2, by Parseval on the spectrum, the
    power step multiplies by that residual instead of by x, and the final
    block is not trimmed.
    """
    x = np.asarray(x, dtype=np.float64)
    xh = rfft_tubes(x)
    i3 = x.shape[2]
    qh, bh, trace, achieved = adaptive_spectral(xh, i3, frobenius_norm(x), cfg, trim)
    # xh is held until q and b are inverted, so they are not placed in the
    # memory xh frees: a caller's later x-sized temporaries (x - q*b) reuse
    # it instead of growing the heap and page-faulting on every product.
    return QBApprox(q=irfft_tubes(qh, i3), b=irfft_tubes(bh, i3), energy_trace=trace,
                    achieved=achieved)


def adaptive_spectral(xh: np.ndarray, i3: int, norm: float, cfg: AdaptiveConfig,
                      trim: bool = True) -> SpectralQB:
    """The algorithm of adaptive_qb on the half spectrum xh = rfft_tubes(x).

    i3 is I3 and norm is ||x||_F; x itself is not needed.  The result is
    left on the half spectrum; qh and bh may be views of larger stacks.
    """
    i1, i2 = xh.shape[1:]
    b_size = cfg.block_size
    max_rank = min(i1, i2) if cfg.max_rank is None else cfg.max_rank
    if max_rank > min(i1, i2):
        raise RankOutOfRange(f"max_rank {max_rank} exceeds min(I1, I2) = {min(i1, i2)}")
    gen = cfg.seed.generator()
    eps2 = cfg.epsilon ** 2

    # The degeneracy test is relative to the root-mean-square entry of x.
    scale = norm / np.sqrt(max(i1 * i2 * i3, 1))
    qh = np.zeros((xh.shape[0], i1, 0), dtype=np.complex128)
    bh = np.zeros((xh.shape[0], 0, i2), dtype=np.complex128)
    trace: list = []
    energy = norm ** 2
    floor = eps2 <= PRECISION_FLOOR_ULPS * np.finfo(np.float64).eps * energy

    while not (achieved := energy < eps2) and bh.shape[1] < max_rank:
        rank = bh.shape[1]
        omega = rfft_tubes(gaussian_tensor(i2, min(b_size, max_rank - rank), i3, gen))
        try:
            sketch = xh @ omega
            if rank:
                sketch -= qh @ (bh @ omega)
            q_i = _power_iterate(xh, orth_spectral(sketch, i3, scale), i3, scale,
                                 cfg.power_iters, (qh, bh) if floor and rank else None)
            if rank:
                # At the precision floor q_i lies almost wholly in the span of
                # qh, and a second pass keeps q orthonormal ("twice is enough").
                for _ in range(2 if floor else 1):
                    q_i = orth_spectral(q_i - qh @ adjoint(adjoint(q_i) @ qh), i3)
        except DegenerateInput:
            break
        b_i = adjoint(q_i) @ xh
        qh = np.concatenate([qh, q_i], axis=2)
        bh = np.concatenate([bh, b_i], axis=1)
        energy_before_last = energy
        if floor:
            energy = residual_energy(xh, qh, bh, i3)
        else:
            energy -= float(row_energies(b_i, i3).sum())
        # Below 0 is cancellation noise; the true squared residual is ~0.
        trace.append(max(energy, 0.0))

    # A run that succeeds with blocks behind it succeeded on its last block.
    if achieved and trim and trace and not floor:
        # rank is still the rank before the final block b_i.
        kept, energy = trim_last_block(row_energies(b_i, i3), energy_before_last, eps2)
        qh, bh = qh[:, :, :rank + kept], bh[:, :rank + kept]
        trace[-1] = max(energy, 0.0)
    return SpectralQB(qh, bh, trace, achieved)


def trim_last_block(rows: np.ndarray, energy_before_last: float, eps2: float):
    """How many rows of a successful run's final block meet the bound: the trim rule.

    rows are the squared norms of the block's horizontal slices, in order,
    and energy_before_last the squared residual before the block; the
    whole block meets the bound.  Returns (kept, energy): the fewest
    leading rows whose norms, subtracted from energy_before_last, bring it
    below eps2, and the energy they leave.  The matching lateral slices of
    q can be dropped without recomputation, because the energy recursion
    never involves q.
    """
    energy, kept = energy_before_last, 0
    for kept, row in enumerate(rows, start=1):
        energy -= float(row)
        if energy < eps2:
            break
    return kept, energy


def qb_to_tsvd(qb: QBApprox, rank="all") -> TSVDFactors:
    """Recover tubal SVD factors from a QB pair: SVD the small b, lift u through q."""
    if qb.rank == 0:
        raise RankOutOfRange("qb has rank 0, so there are no factors: ||x||_F was "
                             "already below epsilon, or x is numerically zero")
    r = qb.rank if rank == "all" else int(rank)
    if not 1 <= r <= qb.rank:
        raise RankOutOfRange(f"rank {rank} not in [1, {qb.rank}]")
    return tsvd_factors(rfft_tubes(qb.b), r, qb.b.shape[2], lift=rfft_tubes(qb.q))
