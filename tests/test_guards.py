"""Structural guards: what the benchmark traces exists, x is transformed once per run,
the CLI job stays on the half spectrum, and the exact-lowrank generator transforms
only the lateral slices it keeps."""

import importlib
import json
import types
from pathlib import Path

import numpy as np
import pytest

import tubal
from tubal import (
    AdaptiveConfig,
    RngStream,
    SyntheticSpec,
    adaptive_qb,
    frobenius_norm,
    gen_synthetic,
    randomized_tsvd,
    save_pgm_stack,
    save_tns,
    trim_last_block,
)
from tubal.cli import main
from tubal.core import irfft_tubes, rfft_tubes
from tubal.decomp import tsvd_factors

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_functions_exist():
    # "<module>.<function>.<stat>" names a public function of tubal.<module>;
    # two-part names ("core.self_s", "tracing.solve_s") are module totals.
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    functions = {n.rsplit(".", 1)[0] for n in names if n.count(".") == 2}
    assert functions
    for name in sorted(functions):
        module, func = name.split(".")
        mod = importlib.import_module(f"tubal.{module}")
        obj = getattr(mod, func, None)
        assert isinstance(obj, types.FunctionType), f"{name} is not a function"
        assert obj.__module__ == mod.__name__ and not func.startswith("_"), name


def _count_sizes(monkeypatch, name, size_of):
    """Patch tubal.core.<name> wherever it was imported; return the list size_of fills."""
    real = getattr(tubal.core, name)
    sizes = []

    def counting(*args):
        out = real(*args)
        sizes.append(size_of(args[0], out))
        return out

    for module in ("core", "tprod", "decomp", "randomized", "bench", "cli"):
        mod = importlib.import_module(f"tubal.{module}")
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return sizes


@pytest.fixture
def x_transforms(monkeypatch):
    """Sizes of the tensors rfft_tubes transforms, wherever it was imported."""
    return _count_sizes(monkeypatch, "rfft_tubes", lambda t, _: np.size(t))


@pytest.fixture
def inverses(monkeypatch):
    """Sizes of the tensors irfft_tubes returns, wherever it was imported."""
    return _count_sizes(monkeypatch, "irfft_tubes", lambda _, out: out.size)


def test_adaptive_transforms_x_once(x_transforms, rand_tensor):
    x = rand_tensor(30, 20, 6, seed=70)
    cfg = AdaptiveConfig(epsilon=0.05 * frobenius_norm(x), block_size=4,
                         power_iters=1, seed=RngStream(71))
    qb = adaptive_qb(x, cfg)
    assert len(qb.energy_trace) > 2
    assert x_transforms.count(x.size) == 1


def test_randomized_tsvd_transforms_x_once(x_transforms, rand_tensor):
    x = rand_tensor(30, 20, 6, seed=72)
    randomized_tsvd(x, rank=5, oversample=3, power_iters=2, rng=RngStream(73))
    assert x_transforms.count(x.size) == 1


def test_exact_lowrank_generator_transforms_only_kept_slices(x_transforms):
    n, rank = 24, 3
    x = gen_synthetic(SyntheticSpec(case="exact-lowrank", n=n, rank=rank, delta=0.01,
                                    seed=RngStream(74)))
    assert x.shape == (n, n, n)
    assert x_transforms and max(x_transforms) <= n * rank * n


def test_cli_adaptive_job_transforms_only_x(x_transforms, tmp_path, rand_tensor):
    # The job stays on the half spectrum from load to the saved factors: x is
    # transformed once and q and b never, so besides x only sketches are.
    x = rand_tensor(30, 20, 6, seed=75)
    save_tns(x, tmp_path / "x.tns")
    out, prefix = tmp_path / "r.json", tmp_path / "f"
    code = main(["adaptive", "--in", str(tmp_path / "x.tns"), "--eps", "0.3", "--rel",
                 "--block", "4", "--power", "1", "--seed", "76", "--out", str(out),
                 "--save-factors", str(prefix)])
    rank = json.loads(out.read_text())["estimated_rank"]
    assert code == 0 and rank > 4
    assert (tmp_path / "f.S.tns").exists()
    assert x_transforms.count(x.size) == 1
    assert max(s for s in x_transforms if s != x.size) <= 20 * 4 * 6


def test_cli_adaptive_job_inverts_nothing_x_sized(inverses, monkeypatch, tmp_path,
                                                 rand_tensor):
    # The error is measured on the half spectrum: no x-sized inverse
    # transform, and the norm of x is taken once per job.
    norms = _count_sizes(monkeypatch, "frobenius_norm", lambda t, _: np.size(t))
    x = rand_tensor(30, 20, 6, seed=80)
    save_tns(x, tmp_path / "x.tns")
    code = main(["adaptive", "--in", str(tmp_path / "x.tns"), "--eps", "0.3", "--rel",
                 "--block", "4", "--power", "1", "--seed", "81",
                 "--out", str(tmp_path / "r.json"), "--save-factors", str(tmp_path / "f")])
    assert code == 0 and (tmp_path / "f.S.tns").exists()
    assert inverses and x.size not in inverses
    assert norms.count(x.size) == 1


def test_cli_compress_forms_one_reconstruction(inverses, tmp_path, rand_tensor):
    x = np.clip(0.5 + 0.1 * rand_tensor(24, 18, 5, seed=77), 0.0, 1.0)
    save_pgm_stack(tmp_path / "in", x)
    code = main(["compress", "--images", str(tmp_path / "in"), "--eps", "0.2", "--rel",
                 "--block", "3", "--power", "1", "--seed", "78",
                 "--out", str(tmp_path / "r.json"), "--save-recon", str(tmp_path / "out")])
    assert code == 0 and len(list((tmp_path / "out").iterdir())) == 5
    assert inverses.count(x.size) == 1


def _trim_case(x, block_size, seed, keep):
    """A bound under which a run's first block trims to `keep` rows, its energy before it."""
    nx2 = frobenius_norm(x) ** 2
    cfg = AdaptiveConfig(epsilon=2.0 * np.sqrt(nx2), block_size=block_size,
                         power_iters=0, seed=RngStream(seed))
    rows = [frobenius_norm(r) ** 2 for r in adaptive_qb(x, cfg, trim=False).b]
    return np.sqrt(nx2 - sum(rows[:keep]) + 0.5 * rows[keep - 1]), nx2


@pytest.mark.parametrize("shape, block_size, seed, keep", [
    ((12, 10, 3), 5, 41, 1),
    ((12, 10, 3), 5, 43, 5),
    ((25, 20, 4), 6, 45, 3),
])
def test_spectral_trim_matches_trim_last_block(shape, block_size, seed, keep, rand_tensor):
    x = rand_tensor(*shape, seed=seed - 1)
    eps, energy_before = _trim_case(x, block_size, seed, keep)
    cfg = AdaptiveConfig(epsilon=eps, block_size=block_size, power_iters=0,
                         seed=RngStream(seed))
    untrimmed = adaptive_qb(x, cfg, trim=False)
    assert untrimmed.achieved and untrimmed.rank == block_size
    trimmed = adaptive_qb(x, cfg)
    assert trimmed.rank == keep
    assert trimmed.rank == trim_last_block(untrimmed, energy_before, eps).rank


def test_spectral_trim_matches_trim_last_block_on_partial_block(rand_tensor):
    # Blocks of 4, 4 and 2 up to the rank cap of 10; the bound keeps 9.
    x = rand_tensor(12, 10, 3, seed=66)
    untrimmed = adaptive_qb(x, AdaptiveConfig(epsilon=1e-9, block_size=4, power_iters=0,
                                              seed=RngStream(67)), trim=False)
    rows = [frobenius_norm(untrimmed.b[j]) ** 2 for j in range(10)]
    energy_before = frobenius_norm(x) ** 2 - sum(rows[:8])
    eps = np.sqrt(energy_before - 0.5 * rows[8])
    cfg = AdaptiveConfig(epsilon=eps, block_size=4, power_iters=0, seed=RngStream(67))
    assert adaptive_qb(x, cfg).rank == 9
    assert trim_last_block(untrimmed, energy_before, eps, block_size=4).rank == 9


@pytest.mark.parametrize("i3", [1, 6, 7])
def test_diagonal_s_matches_dense_construction(i3, rand_tensor):
    h = rfft_tubes(rand_tensor(9, 7, i3, seed=79))
    rank = 5
    sh = np.linalg.svd(h, full_matrices=False)[1]
    dense = np.zeros((h.shape[0], rank, rank), dtype=np.complex128)
    dense[:, np.arange(rank), np.arange(rank)] = sh[:, :rank]
    s = tsvd_factors(h, rank, i3).s
    assert s.shape == (rank, rank, i3)
    assert s.tobytes(order="F") == irfft_tubes(dense, i3).tobytes(order="F")

