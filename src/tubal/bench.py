"""Benchmark harness: synthetic problem generators, timed runs, reports.

Synthetic families follow the usual low tubal-rank test set: an exactly
rank-R tensor with Gaussian singular tubes, plateau-plus-polynomial and
plateau-plus-exponential singular value decay, and two Hilbert-type
tensors defined entrywise.  Runs wrap the library operations with a
monotonic wall clock and always recompute the reported relative error
from the factors, never from the energy recursion.  Every run lets x in
by core.checked (||x||_F once, then the rank rule), transforms x once,
solves on that half spectrum xh with a spectral core, and reports the
residual ||xh - l @ r|| / ||x||_F of its spectral pair (residual_energy),
(qh, bh) or a t-SVD's (uh * sh, vhh), whose factors it inverts untimed.
"""

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .core import (
    RngStream,
    adjoint,
    as_index,
    check_seed,
    checked,
    frobenius_norm,
    gaussian_tensor,
    irfft_tubes,
    residual_energy,
    rfft_tubes,
)
from .decomp import check_rank, svd_spectral, tsvd_factors
from .errors import SpecInvalid
from .randomized import (AdaptiveConfig, SpectralQB, adaptive_spectral, check_sketch,
                         randomized_spectral)

SYNTHETIC_CASES = ("exact-lowrank", "poly-decay", "exp-decay", "hilbert-1", "hilbert-2")


@dataclass(frozen=True)
class SyntheticSpec:
    """Description of one synthetic problem instance.

    ``rank`` is the plateau width R of the singular profile and ``delta``
    the norm of the additive Gaussian noise; both are ignored by the
    Hilbert cases, which are deterministic.  A non-integer n or rank, or a
    seed that is not an RngStream, raises SpecInvalid.
    """

    case: str
    n: int
    rank: int = 1
    delta: float = 0.0
    seed: RngStream = field(default_factory=lambda: RngStream(0))

    def __post_init__(self):
        if self.case not in SYNTHETIC_CASES:
            raise SpecInvalid(f"unknown case {self.case!r}, expected one of {SYNTHETIC_CASES}")
        if not as_index(self.n, "n") >= as_index(self.rank, "rank") >= 1:
            raise SpecInvalid(f"need n >= rank >= 1, got n={self.n}, rank={self.rank}")
        if not 0 <= self.delta < np.inf:
            raise SpecInvalid(f"delta must be finite and nonnegative, got {self.delta}")
        check_seed(self.seed)


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

    u and v have orthonormal lateral slices, s is f-diagonal, and x is
    built on the half spectrum:

    exact-lowrank: u and v are orth of two (n, R, n) Gaussian draws and s
        holds R Gaussian singular tubes; x is one batched product and one
        inverse transform.
    poly-decay, exp-decay: s holds the constant tubes of decay_profile, so
        x is the same matrix U0 diag(d) V0^T on every frontal slice, where
        U0 and V0 are the Q factors of two n x n Gaussian draws.

    Random cases draw, in order and each by gaussian_tensor: the two draws
    behind u and v, the singular tubes (exact-lowrank only), and the noise
    tensor, scaled to Frobenius norm delta.  Identical specs therefore
    produce bit-identical tensors.
    """
    n = spec.n
    if spec.case == "hilbert-1":
        return hilbert_tensor(1, n)
    if spec.case == "hilbert-2":
        return hilbert_tensor(2, n)

    gen = spec.seed.generator()
    r = spec.rank
    if spec.case == "exact-lowrank":
        uh, vh = (np.linalg.qr(rfft_tubes(gaussian_tensor(n, r, n, gen)))[0] for _ in range(2))
        tubes = gaussian_tensor(1, r, n, gen)
        # The (K, 1, R) spectrum of the tubes scales the columns of every slice of uh.
        x = irfft_tubes((uh * rfft_tubes(tubes)) @ adjoint(vh), n)
    else:
        u0, v0 = (np.linalg.qr(gaussian_tensor(n, n, 1, gen)[:, :, 0])[0] for _ in range(2))
        m = (u0 * decay_profile(spec.case, n, r)) @ v0.T
        # irfft_tubes' default layout: frontal slices outermost, rows C-ordered.
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
    if as_index(n, "n") < 1:
        raise SpecInvalid(f"need n >= 1, got n={n}")
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
    the half spectrum.  wall_time_ms times x's transform and the core
    only.  Every other field, in order, is the report's schema: the JSON
    keys and, with epsilon split into its two values, the CSV columns.
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
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "result"}
        d["dims"] = list(self.dims)
        return d


def write_report(report: RunReport, path) -> None:
    with open(path, "w") as f:
        json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def append_csv(report: RunReport, path) -> None:
    """Append the report as one CSV row, writing a header for a new file."""
    row = {}
    for name, value in report.to_dict().items():
        if name == "epsilon":
            for kind in ("absolute", "relative"):
                row[f"epsilon_{kind}"] = None if value is None else value[kind]
        elif name == "dims":
            row[name] = "x".join(str(v) for v in value)
        elif name == "energy_trace":
            row[name] = None if value is None else "|".join(repr(v) for v in value)
        else:
            row[name] = value
    new_file = not os.path.exists(path)
    with open(path, "a", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(row))
        if new_file:
            w.writeheader()
        w.writerow(row)


def _timed_report(x: np.ndarray, nx: float, method: str, solve, epsilon=None,
                  block_size=None, power_iters=None, seed=None) -> RunReport:
    """Time xh = rfft_tubes(x) and solve(xh); report ||xh - l @ r|| / nx for its pair (l, r).

    A result with an energy_trace (a QB run) reports it and its length.
    """
    t0 = time.perf_counter()
    xh = rfft_tubes(x)
    result = solve(xh)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if isinstance(result, SpectralQB):
        left, right = result.qh, result.bh
    else:  # A t-SVD triple (uh, sh, vhh); the report holds its TSVDFactors, inverted untimed.
        left, right = result[0] * result[1][:, None, :], result[2]
        result = tsvd_factors(*result, x.shape[2], like=x)
    err = math.sqrt(residual_energy(xh, left, right, x.shape[2]))
    trace = getattr(result, "energy_trace", None)
    return RunReport(dims=x.shape, method=method, epsilon=epsilon, block_size=block_size,
                     power_iters=power_iters, seed=seed, estimated_rank=right.shape[1],
                     relative_error=err / nx if nx > 0 else err, wall_time_ms=elapsed_ms,
                     iterations=None if trace is None else len(trace),
                     energy_trace=None if trace is None else list(trace), result=result)


def run_adaptive(x: np.ndarray, cfg: AdaptiveConfig, rel: bool = False) -> RunReport:
    """Run the adaptive algorithm on x and report it.

    With rel=True, cfg.epsilon is interpreted relative to ||x||_F and
    converted to an absolute bound once, up front; a bound that is not
    finite raises SpecInvalid.  The report's result is the SpectralQB pair
    of adaptive_spectral, and its error the residual of (qh, bh).
    """
    x, nx = checked(x, cfg.rank_cap)
    eps_abs = float(cfg.epsilon) * nx if rel else cfg.epsilon
    run_cfg = replace(cfg, epsilon=eps_abs)
    epsilon = {"absolute": eps_abs, "relative": eps_abs / nx if nx > 0 else None}
    return _timed_report(x, nx, "adaptive",
                         lambda xh: adaptive_spectral(xh, x.shape[2], nx, run_cfg),
                         epsilon=epsilon, seed=cfg.seed.seed,
                         block_size=cfg.block_size, power_iters=cfg.power_iters)


def run_tsvd(x: np.ndarray, rank: int) -> RunReport:
    """Run the deterministic truncated tubal SVD at a fixed rank and report it."""
    x, nx = checked(x, partial(check_rank, rank))
    return _timed_report(x, nx, "tsvd", lambda xh: svd_spectral(xh, rank))


def run_randomized(x: np.ndarray, rank: int, oversample: int, power_iters: int,
                   seed: RngStream) -> RunReport:
    """Run the fixed-rank randomized tubal SVD and report it (library only, no CLI entry).

    seed must be an RngStream, whose seed the report records, else SpecInvalid.
    """
    check_seed(seed)
    x, nx = checked(x, partial(check_sketch, rank, oversample, power_iters))
    return _timed_report(x, nx, "randomized",
                         lambda xh: randomized_spectral(xh, x.shape[2], nx, rank, oversample,
                                                        power_iters, seed),
                         power_iters=power_iters, seed=seed.seed)
