"""Benchmark harness: synthetic problem generators, timed runs, reports.

Synthetic families follow the usual low tubal-rank test set: an exactly
rank-R tensor with Gaussian singular tubes, plateau-plus-polynomial and
plateau-plus-exponential singular value decay, and two Hilbert-type
tensors defined entrywise.  Runs wrap the library operations with a
monotonic wall clock and always recompute the reported relative error
from the factors, never from the energy recursion: an adaptive run
measures the residual on the half spectrum, the others on the
reconstruction.
"""

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    RngStream,
    adjoint,
    frobenius_norm,
    gaussian_tensor,
    irfft_tubes,
    residual_energy,
    rfft_tubes,
)
from .decomp import reconstruct, truncated_tsvd
from .errors import SpecInvalid
from .randomized import AdaptiveConfig, adaptive_spectral, randomized_tsvd

SYNTHETIC_CASES = ("exact-lowrank", "poly-decay", "exp-decay", "hilbert-1", "hilbert-2")


@dataclass(frozen=True)
class SyntheticSpec:
    """Description of one synthetic problem instance.

    ``rank`` is the plateau width R of the singular profile and ``delta``
    the norm of the additive Gaussian noise; both are ignored by the
    Hilbert cases, which are deterministic.
    """

    case: str
    n: int
    rank: int = 1
    delta: float = 0.0
    seed: RngStream = field(default_factory=lambda: RngStream(0))

    def __post_init__(self):
        if self.case not in SYNTHETIC_CASES:
            raise SpecInvalid(f"unknown case {self.case!r}, expected one of {SYNTHETIC_CASES}")
        if not self.n >= self.rank >= 1:
            raise SpecInvalid(f"need n >= rank >= 1, got n={self.n}, rank={self.rank}")
        if self.delta < 0:
            raise SpecInvalid(f"delta must be nonnegative, got {self.delta}")


def decay_profile(case: str, n: int, rank: int) -> np.ndarray:
    """Singular values d of the decay cases, constant along every tube.

    poly-decay: R ones then 2^-2, 3^-2, ..., (n-R+1)^-2.
    exp-decay:  R ones then 10^-1, 10^-2, ..., 10^-(n-R).

    Constant tubes have all their spectrum on the DC slice, so before noise
    the tensor is the same matrix U0 diag(d) V0^T on every frontal slice.
    """
    d = np.ones(n)
    tail = np.arange(1, n - rank + 1, dtype=np.float64)
    if case == "poly-decay":
        d[rank:] = (tail + 1.0) ** -2
    elif case == "exp-decay":
        d[rank:] = 10.0 ** -tail
    else:
        raise SpecInvalid(f"no decay profile for case {case!r}")
    return d


def gen_synthetic(spec: SyntheticSpec) -> np.ndarray:
    """Build the tensor described by ``spec``: u * s * transpose(v), plus noise.

    u and v are the orthonormal factors of two n x n x n Gaussian draws,
    s is f-diagonal, and x is built on the half spectrum:

    exact-lowrank: s holds R Gaussian singular tubes.  Householder QR makes
        the leading R columns of Q depend only on the leading R columns of
        the draw, so only the first R lateral slices of each draw are
        transformed and orthonormalized; x is one batched product and one
        inverse transform.
    poly-decay, exp-decay: s holds the constant tubes of decay_profile, so
        x is the same matrix U0 diag(d) V0^T on every frontal slice, where
        U0 and V0 are the Q factors of the sums of the draws' frontal slices.

    Random cases draw, in order: the two Gaussian tensors behind u and v,
    the singular tubes (exact-lowrank only), and the noise tensor, scaled
    to Frobenius norm delta.  Identical specs therefore produce
    bit-identical tensors.
    """
    n = spec.n
    if spec.case == "hilbert-1":
        return hilbert_tensor(1, n)
    if spec.case == "hilbert-2":
        return hilbert_tensor(2, n)

    gen = spec.seed.generator()
    a = gaussian_tensor(n, n, n, gen)
    b = gaussian_tensor(n, n, n, gen)
    r = spec.rank
    if spec.case == "exact-lowrank":
        uh = np.linalg.qr(rfft_tubes(a[:, :r, :]))[0]
        vh = np.linalg.qr(rfft_tubes(b[:, :r, :]))[0]
        tubes = gen.standard_normal(r * n).reshape((1, r, n), order="F")
        # The (K, 1, R) spectrum of the tubes scales the columns of every slice of uh.
        x = irfft_tubes((uh * rfft_tubes(tubes)) @ adjoint(vh), n)
    else:
        u0 = np.linalg.qr(a.sum(axis=2))[0]
        v0 = np.linalg.qr(b.sum(axis=2))[0]
        m = (u0 * decay_profile(spec.case, n, r)) @ v0.T
        # irfft_tubes' layout: frontal slices outermost, rows C-ordered.
        x = np.tile(m, (n, 1, 1)).transpose(1, 2, 0)
    if spec.delta > 0:
        noise = gaussian_tensor(n, n, n, gen)
        norm = frobenius_norm(noise)
        noise *= spec.delta
        noise /= norm
        # x + noise, written into the noise buffer so x comes out Fortran-ordered.
        x = np.add(x, noise, out=noise)
    return x


def hilbert_tensor(kind: int, n: int) -> np.ndarray:
    """Hilbert-type tensor with 1-based indices.

    kind 1: x[i,j,k] = 1 / (i + j + k)
    kind 2: x[i,j,k] = 1 / (sqrt(i) + sqrt(j) + sqrt(k))^2
    """
    if kind not in (1, 2):
        raise SpecInvalid(f"hilbert kind must be 1 or 2, got {kind}")
    idx = np.arange(1, n + 1, dtype=np.float64)
    if kind == 1:
        base = idx[:, None, None] + idx[None, :, None] + idx[None, None, :]
        return 1.0 / base
    root = np.sqrt(idx)
    base = root[:, None, None] + root[None, :, None] + root[None, None, :]
    return base ** -2.0


@dataclass
class RunReport:
    """Machine-readable record of one timed run.

    ``epsilon`` is a {"absolute": ..., "relative": ...} pair for methods
    that take an error bound, None otherwise.  ``result`` carries the
    in-memory factorization for callers that need it, and is not
    serialized: TSVDFactors, or for an adaptive run the SpectralQB pair on
    the half spectrum.
    """

    dims: tuple
    method: str
    epsilon: dict | None
    block_size: int | None
    power_iters: int | None
    seed: int | None
    estimated_rank: int
    relative_error: float
    wall_time_ms: float
    iterations: int | None
    energy_trace: list | None
    result: object = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "method": self.method,
            "epsilon": self.epsilon,
            "block_size": self.block_size,
            "power_iters": self.power_iters,
            "seed": self.seed,
            "estimated_rank": self.estimated_rank,
            "relative_error": self.relative_error,
            "wall_time_ms": self.wall_time_ms,
            "iterations": self.iterations,
            "energy_trace": self.energy_trace,
        }


def write_report(report: RunReport, path) -> None:
    with open(path, "w") as f:
        json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def append_csv(report: RunReport, path) -> None:
    """Append the report as one CSV row, writing a header for a new file."""
    d = report.to_dict()
    d["dims"] = "x".join(str(v) for v in d["dims"])
    eps = d.pop("epsilon")
    d["epsilon_absolute"] = None if eps is None else eps["absolute"]
    d["epsilon_relative"] = None if eps is None else eps["relative"]
    trace = d.pop("energy_trace")
    d["energy_trace"] = None if trace is None else "|".join(repr(v) for v in trace)
    cols = ["dims", "method", "epsilon_absolute", "epsilon_relative", "block_size",
            "power_iters", "seed", "estimated_rank", "relative_error",
            "wall_time_ms", "iterations", "energy_trace"]
    new_file = not os.path.exists(path)
    with open(path, "a", newline="") as f:
        w = csv.DictWriter(f, fieldnames=cols)
        if new_file:
            w.writeheader()
        w.writerow(d)


def _relative_error(x: np.ndarray, approx: np.ndarray) -> float:
    nx = frobenius_norm(x)
    err = frobenius_norm(x - approx)
    return err / nx if nx > 0 else err


def _timed_report(x: np.ndarray, method: str, solve, error, epsilon=None,
                  block_size=None, power_iters=None, seed=None) -> RunReport:
    """Time solve(), then report error(result), the relative error recomputed from it.

    A result with an energy_trace (a QB run) reports it and its length.
    """
    t0 = time.perf_counter()
    result = solve()
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    trace = getattr(result, "energy_trace", None)
    return RunReport(dims=x.shape, method=method, epsilon=epsilon, block_size=block_size,
                     power_iters=power_iters, seed=seed, estimated_rank=result.rank,
                     relative_error=error(result), wall_time_ms=elapsed_ms,
                     iterations=None if trace is None else len(trace),
                     energy_trace=None if trace is None else list(trace), result=result)


def run_adaptive(x: np.ndarray, cfg: AdaptiveConfig, rel: bool = False) -> RunReport:
    """Run the adaptive algorithm on x and report it.

    With rel=True, cfg.epsilon is interpreted relative to ||x||_F and
    converted to an absolute bound once, up front.  ||x||_F is taken once
    and serves the bound, the algorithm and the error.  The run stays on
    the half spectrum: x is transformed once, the report's result is the
    SpectralQB pair, and the error is the residual ||xh - qh @ bh||
    measured on the spectrum by residual_energy.  wall_time_ms covers the
    transform and the algorithm.
    """
    x = np.asarray(x, dtype=np.float64)
    nx = frobenius_norm(x)
    eps_abs = cfg.epsilon * nx if rel else cfg.epsilon
    eps_rel = eps_abs / nx if nx > 0 else None
    run_cfg = replace(cfg, epsilon=eps_abs)
    i3 = x.shape[2]
    xh = None

    def solve():
        nonlocal xh
        xh = rfft_tubes(x)
        return adaptive_spectral(xh, i3, nx, run_cfg)

    def error(qb):
        err = math.sqrt(residual_energy(xh, qb.qh, qb.bh, i3))
        return err / nx if nx > 0 else err

    return _timed_report(x, "adaptive", solve, error,
                         epsilon={"absolute": eps_abs, "relative": eps_rel},
                         block_size=cfg.block_size, power_iters=cfg.power_iters,
                         seed=cfg.seed.seed)


def run_tsvd(x: np.ndarray, rank: int) -> RunReport:
    """Run the deterministic truncated tubal SVD at a fixed rank and report it."""
    x = np.asarray(x, dtype=np.float64)
    return _timed_report(x, "tsvd", lambda: truncated_tsvd(x, rank),
                         lambda f: _relative_error(x, reconstruct(f)))


def run_randomized(x: np.ndarray, rank: int, oversample: int, power_iters: int,
                   seed: RngStream) -> RunReport:
    """Run the fixed-rank randomized tubal SVD and report it (library only, no CLI entry)."""
    x = np.asarray(x, dtype=np.float64)
    return _timed_report(x, "randomized",
                         lambda: randomized_tsvd(x, rank, oversample, power_iters, seed),
                         lambda f: _relative_error(x, reconstruct(f)),
                         power_iters=power_iters, seed=seed.seed)
