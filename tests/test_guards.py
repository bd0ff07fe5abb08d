"""Structural guards: what the benchmark traces exists, x is transformed once per run,
and the exact-lowrank generator transforms only the lateral slices it keeps."""

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
)

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


@pytest.fixture
def x_transforms(monkeypatch):
    """Sizes of the tensors rfft_tubes transforms, wherever it was imported."""
    real = tubal.core.rfft_tubes
    sizes = []

    def counting(t):
        sizes.append(np.size(t))
        return real(t)

    for name in ("core", "tprod", "decomp", "randomized", "bench"):
        mod = importlib.import_module(f"tubal.{name}")
        if getattr(mod, "rfft_tubes", None) is real:
            monkeypatch.setattr(mod, "rfft_tubes", counting)
    return sizes


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
