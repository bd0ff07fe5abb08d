"""Benchmark harness: synthetic problem generators, timed runs, reports.

Synthetic families follow the usual low tubal-rank test set: an exactly
rank-R tensor with Gaussian singular tubes, plateau-plus-polynomial and
plateau-plus-exponential singular value decay, and two Hilbert-type
tensors defined entrywise.  Runs wrap the library operations with a
monotonic wall clock and always recompute the reported relative error
directly from the reconstruction, never from the energy recursion.
"""

import csv
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import RngStream, frobenius_norm, gaussian_tensor, transpose
from .decomp import orth, reconstruct, truncated_tsvd
from .errors import SpecInvalid
from .randomized import AdaptiveConfig, adaptive_qb, randomized_tsvd
from .tprod import tprod

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
    """Diagonal profile shared by every frontal slice of the middle tensor.

    poly-decay: R ones then 2^-2, 3^-2, ..., (n-R+1)^-2.
    exp-decay:  R ones then 10^-1, 10^-2, ..., 10^-(n-R).
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
    """Build the tensor described by ``spec``.

    Random cases draw, in order: the two Gaussian tensors that are
    orthonormalized into u and v, the singular tubes (exact-lowrank
    only), and the noise tensor.  Identical specs therefore produce
    bit-identical tensors.
    """
    n = spec.n
    if spec.case == "hilbert-1":
        return hilbert_tensor(1, n)
    if spec.case == "hilbert-2":
        return hilbert_tensor(2, n)

    gen = spec.seed.generator()
    u = orth(gaussian_tensor(n, n, n, gen))
    v = orth(gaussian_tensor(n, n, n, gen))
    r = spec.rank
    if spec.case == "exact-lowrank":
        # Only R diagonal tubes are nonzero, so the product needs only the
        # leading R lateral slices of u and v.
        s = np.zeros((r, r, n))
        tubes = gen.standard_normal(r * n).reshape((r, n), order="F")
        s[np.arange(r), np.arange(r), :] = tubes
        x = tprod(tprod(u[:, :r, :], s), transpose(v[:, :r, :]))
    else:
        d = decay_profile(spec.case, n, r)
        s = np.zeros((n, n, n))
        s[np.arange(n), np.arange(n), :] = d[:, None]
        x = tprod(tprod(u, s), transpose(v))
    if spec.delta > 0:
        noise = gaussian_tensor(n, n, n, gen)
        x = x + spec.delta * noise / frobenius_norm(noise)
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
    in-memory factorization for callers that need it and is never
    serialized.
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


def _timed_report(x: np.ndarray, method: str, solve, product, epsilon=None,
                  block_size=None, power_iters=None, seed=None) -> RunReport:
    """Time solve(), then recompute the relative error of product(result) against x.

    A result with an energy_trace (a QB run) reports it and its length.
    """
    t0 = time.perf_counter()
    result = solve()
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    trace = getattr(result, "energy_trace", None)
    return RunReport(dims=x.shape, method=method, epsilon=epsilon, block_size=block_size,
                     power_iters=power_iters, seed=seed, estimated_rank=result.rank,
                     relative_error=_relative_error(x, product(result)),
                     wall_time_ms=elapsed_ms,
                     iterations=None if trace is None else len(trace),
                     energy_trace=None if trace is None else list(trace), result=result)


def run_adaptive(x: np.ndarray, cfg: AdaptiveConfig, rel: bool = False) -> RunReport:
    """Run the adaptive algorithm on x and report it.

    With rel=True, cfg.epsilon is interpreted relative to ||x||_F and
    converted to an absolute bound once, up front.
    """
    x = np.asarray(x, dtype=np.float64)
    nx = frobenius_norm(x)
    eps_abs = cfg.epsilon * nx if rel else cfg.epsilon
    eps_rel = eps_abs / nx if nx > 0 else None
    run_cfg = replace(cfg, epsilon=eps_abs)
    return _timed_report(x, "adaptive", lambda: adaptive_qb(x, run_cfg),
                         lambda qb: tprod(qb.q, qb.b),
                         epsilon={"absolute": eps_abs, "relative": eps_rel},
                         block_size=cfg.block_size, power_iters=cfg.power_iters,
                         seed=cfg.seed.seed)


def run_tsvd(x: np.ndarray, rank: int) -> RunReport:
    """Run the deterministic truncated tubal SVD at a fixed rank and report it."""
    x = np.asarray(x, dtype=np.float64)
    return _timed_report(x, "tsvd", lambda: truncated_tsvd(x, rank), reconstruct)


def run_randomized(x: np.ndarray, rank: int, oversample: int, power_iters: int,
                   seed: RngStream) -> RunReport:
    """Run the fixed-rank randomized tubal SVD and report it (library only, no CLI entry)."""
    x = np.asarray(x, dtype=np.float64)
    return _timed_report(x, "randomized",
                         lambda: randomized_tsvd(x, rank, oversample, power_iters, seed),
                         reconstruct, power_iters=power_iters, seed=seed.seed)
