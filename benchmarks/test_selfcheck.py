"""Determinism self-check of the benchmark at smoke size.

    python3 -m pytest benchmarks/test_selfcheck.py

Two runs with the same seed must give identical quality metrics and
identical per-layer counts; a run with another seed must still pass the
correctness gate.  Every metric BENCHMARK.json lists must be produced.
"""

import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from workloads import WORKLOADS, cube_lowrank, image_stack, long_tubes  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
QUALITY = ("rank", "rank_excess", "err_ratio", "rtsvd_err_ratio", "fail_frac")
COUNT_STATS = ("calls", "x_calls", "bytes", "flops")


# Small versions of the workloads, same structure: (input builder, block, r_w).
SMOKE = {
    "cube-lowrank": (functools.partial(cube_lowrank, n=24, rank=4), 6, 4),
    "image-stack": (functools.partial(image_stack, height=30, width=40, frames=6), 4, 10),
    "long-tubes": (functools.partial(long_tubes, i1=16, i2=12, i3=51, comps=8), 4, 6),
}


def smoke(name):
    make, block, rank = SMOKE[name]
    return replace(WORKLOADS[name], make=make, block=block, rank=rank)


def _untraced(w, seed, tmp_path):
    res = harness.run(w, seed, 0.0, harness.make_workdir(tmp_path, w.name, seed))
    assert res["bench"].failures == []
    return res


def _traced(w, seed, tmp_path):
    res = harness.run_traced(w, seed, 0.0, harness.make_workdir(tmp_path, w.name, seed))
    assert res["bench"].failures == []
    return res


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_answers(name, tmp_path):
    w = smoke(name)
    first, second = (_untraced(w, 7, tmp_path) for _ in range(2))
    for key in QUALITY:
        assert first["metrics"][key][0] == second["metrics"][key][0], key
    assert first["metrics"]["fail_frac"][0] == 0.0
    harness.select(first["metrics"], SPEC["end_to_end"], set())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_counts(name, tmp_path):
    w = smoke(name)
    first, second = (_traced(w, 7, tmp_path) for _ in range(2))

    def counts(res):
        return {k: v[0] for k, v in res["metrics"].items()
                if k.rsplit(".", 1)[1] in COUNT_STATS}

    assert counts(first) and counts(first) == counts(second)
    harness.select(first["metrics"], SPEC["per_layer"], first["tracer"].functions)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_passes_gate(name, tmp_path):
    _untraced(smoke(name), 8, tmp_path)
