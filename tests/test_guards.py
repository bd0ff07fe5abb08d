"""Structural guards: what the benchmark traces exists, the exports are the README's
list and hold no test reference, the README's quick start runs, x is transformed once
per run and per run report, the CLI job stays on the half spectrum, the synthetic
generator draws and transforms only what it keeps, the core runs the one trim
rule once per run that meets its bound, results derived from x keep its memory
order, and the slice walk leaves the BLAS thread count and the thread count as it
found them, sets no count when one worker runs it, and runs no public function on a
pool thread."""

import functools
import importlib
import json
import pkgutil
import re
import sys
import threading
import tracemalloc
import types
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tubal
import tubal.core
from tubal import (
    AdaptiveConfig,
    QBApprox,
    RankOutOfRange,
    RngStream,
    SpecInvalid,
    SyntheticSpec,
    adaptive_qb,
    frobenius_norm,
    gaussian_tensor,
    gen_synthetic,
    orth,
    qb_to_tsvd,
    randomized_tsvd,
    reconstruct,
    run_adaptive,
    run_randomized,
    run_tsvd,
    save_pgm_stack,
    save_tns,
    t_qr,
    tprod,
    truncated_tsvd,
)
from tubal.cli import main
from tubal.core import adjoint, irfft_tubes, map_chunks, residual_energy, rfft_tubes
from tubal.decomp import svd_spectral, tsvd_factors
from tubal.randomized import trim_last_block
from conftest import LAYOUTS

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
README = BENCHMARK.parent / "README.md"

# Test-only references that live in tests/references.py, and deleted helpers.
NOT_IN_PACKAGE = ("dft_tubes", "idft_tubes", "IMAG_RESIDUE_RTOL", "ImaginaryResidue",
                  "tprod_oracle", "ORACLE_SCALAR_CAP", "SizeGuard", "blocked_randqb_matrix",
                  "_orth_cols", "gaussian_matrix", "num_head_slices", "spectral_pair",
                  "orth_spectral", "reshape3", "resolve_generator", "_rms_scale")


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


def test_readme_public_api_matches_exports():
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    # Dotted names (`core.rfft_tubes`) are module members, not exports.
    assert set(re.findall(r"`([A-Za-z_]\w*)`", section)) == set(tubal.__all__)


def test_readme_quick_start_runs(capsys):
    section = README.read_text().split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README quick start", "exec"), {})
    rank, achieved = capsys.readouterr().out.split()[:2]
    assert int(rank) > 0 and achieved == "True"


def test_test_references_stay_out_of_the_package():
    modules = [tubal] + [importlib.import_module(f"tubal.{m.name}")
                         for m in pkgutil.iter_modules(tubal.__path__)]
    assert len(modules) > 8
    for mod in modules:
        leaked = [name for name in NOT_IN_PACKAGE if hasattr(mod, name)]
        assert not leaked, f"{mod.__name__} defines {leaked}"


def _count_sizes(monkeypatch, name, size_of):
    """Patch tubal.core.<name> wherever it was imported; return the list size_of fills."""
    real = getattr(tubal.core, name)
    sizes = []

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
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
def x_norms(monkeypatch):
    """Sizes of the tensors frobenius_norm is taken of, wherever it was imported."""
    return _count_sizes(monkeypatch, "frobenius_norm", lambda t, _: np.size(t))


@pytest.fixture
def inverses(monkeypatch):
    """Sizes of the tensors irfft_tubes returns, wherever it was imported."""
    return _count_sizes(monkeypatch, "irfft_tubes", lambda _, out: out.size)


def test_adaptive_transforms_x_once(x_transforms, x_norms, rand_tensor):
    x = rand_tensor(30, 20, 6, seed=70)
    cfg = AdaptiveConfig(epsilon=0.05 * frobenius_norm(x), block_size=4,
                         power_iters=1, seed=RngStream(71))
    x_norms.clear()
    qb = adaptive_qb(x, cfg)
    assert len(qb.energy_trace) > 2
    assert x_transforms.count(x.size) == 1
    assert x_norms.count(x.size) == 1


def test_randomized_tsvd_transforms_x_once(x_transforms, x_norms, rand_tensor):
    x = rand_tensor(30, 20, 6, seed=72)
    randomized_tsvd(x, rank=5, oversample=3, power_iters=2, rng=RngStream(73))
    assert x_transforms.count(x.size) == 1
    assert x_norms.count(x.size) == 1


RUNS = {
    "run_adaptive": lambda x: run_adaptive(x, AdaptiveConfig(epsilon=0.3, block_size=4,
                                                             seed=RngStream(82)), rel=True),
    "run_tsvd": lambda x: run_tsvd(x, 5),
    "run_randomized": lambda x: run_randomized(x, 5, 3, 1, RngStream(82)),
}


# All a t-SVD report transforms forward: x, and the randomized sketch omega (I2 x 8 x I3).
TSVD_TRANSFORMS = {"run_tsvd": [30 * 20 * 6], "run_randomized": [30 * 20 * 6, 20 * 8 * 6]}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_reports_transform_x_once(run, x_transforms, x_norms, rand_tensor):
    # Every report solves and measures its error on the same spectrum of x;
    # a t-SVD report takes it on the core's triple, transforming no factor.
    x = rand_tensor(30, 20, 6, seed=81)
    report = RUNS[run](x)
    assert report.estimated_rank > 0 and 0 < report.relative_error < 1
    assert x_transforms.count(x.size) == 1
    assert x_norms.count(x.size) == 1
    if run in TSVD_TRANSFORMS:
        assert x_transforms == TSVD_TRANSFORMS[run]


@pytest.fixture
def gaussian_draws(monkeypatch):
    """Sizes of the standard normal draws of every RngStream's generator."""
    sizes = []

    class Spy(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            out = super().standard_normal(*args, **kwargs)
            sizes.append(np.size(out))
            return out

    real = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: Spy(real(self).bit_generator))
    return sizes


@pytest.mark.parametrize("case", ["exact-lowrank", "poly-decay", "exp-decay"])
def test_generator_draws_and_transforms_only_what_it_keeps(case, x_transforms, gaussian_draws):
    # Each random case once drew two n x n x n tensors behind u and v, of
    # which exact-lowrank kept R lateral slices and the decay cases the sum
    # of the frontal slices: the noise is now the one n x n x n draw, and
    # last.  Only exact-lowrank transforms, and only its R lateral slices.
    n, rank = 24, 3
    x = gen_synthetic(SyntheticSpec(case=case, n=n, rank=rank, delta=0.01,
                                    seed=RngStream(74)))
    assert x.shape == (n, n, n)
    assert gaussian_draws.count(n ** 3) == 1 and gaussian_draws[-1] == n ** 3
    assert bool(x_transforms) == (case == "exact-lowrank")
    assert max(x_transforms, default=0) <= n * rank * n


def test_block_steps_draw_their_sketches_from_one_generator(gaussian_draws, monkeypatch):
    # Each block step draws an I2 x cols x I3 sketch: the adaptive run takes
    # blocks of 4, 4 and, at the rank cap, 2 from one generator, and the
    # fixed-rank run one of rank + oversample columns.
    x = gaussian_tensor(30, 20, 6, RngStream(70))
    made, spy = [], RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: made.append(self) or spy(self))
    gaussian_draws.clear()
    adaptive_qb(x, AdaptiveConfig(1e-9, 4, max_rank=10, seed=RngStream(71)))
    assert gaussian_draws == [480, 480, 240] and made == [RngStream(71)]
    gaussian_draws.clear()
    randomized_tsvd(x, 5, 3, 1, RngStream(72))
    assert gaussian_draws == [960]


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


def test_cli_adaptive_job_inverts_nothing_x_sized(inverses, x_norms, tmp_path, rand_tensor):
    # The error is measured on the half spectrum: no x-sized inverse
    # transform, and the norm of x is taken once per job.
    x = rand_tensor(30, 20, 6, seed=80)
    save_tns(x, tmp_path / "x.tns")
    code = main(["adaptive", "--in", str(tmp_path / "x.tns"), "--eps", "0.3", "--rel",
                 "--block", "4", "--power", "1", "--seed", "81",
                 "--out", str(tmp_path / "r.json"), "--save-factors", str(tmp_path / "f")])
    assert code == 0 and (tmp_path / "f.S.tns").exists()
    assert inverses and x.size not in inverses
    assert x_norms.count(x.size) == 1


def test_cli_compress_forms_one_reconstruction(inverses, tmp_path, rand_tensor):
    x = np.clip(0.5 + 0.1 * rand_tensor(24, 18, 5, seed=77), 0.0, 1.0)
    save_pgm_stack(tmp_path / "in", x)
    code = main(["compress", "--images", str(tmp_path / "in"), "--eps", "0.2", "--rel",
                 "--block", "3", "--power", "1", "--seed", "78",
                 "--out", str(tmp_path / "r.json"), "--save-recon", str(tmp_path / "out")])
    assert code == 0 and len(list((tmp_path / "out").iterdir())) == 5
    assert inverses.count(x.size) == 1


def _row_energies(qb):
    """Squared norms of the horizontal slices of qb.b, in order."""
    return (qb.b ** 2).sum(axis=(1, 2))


def _trim_case(x, block_size, seed, keep):
    """A bound under which a run's first block trims to `keep` rows, its energy before it."""
    nx2 = frobenius_norm(x) ** 2
    # The first block does not depend on the bound; the rank cap stops the run after it.
    cfg = AdaptiveConfig(epsilon=1e-6 * np.sqrt(nx2), block_size=block_size,
                         max_rank=block_size, power_iters=0, seed=RngStream(seed))
    rows = _row_energies(adaptive_qb(x, cfg, trim=False))
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
    kept, energy = trim_last_block(_row_energies(untrimmed), energy_before, eps ** 2)
    assert trimmed.rank == kept and trimmed.q.shape[1] == kept
    assert abs(trimmed.energy_trace[-1] - max(energy, 0.0)) <= 1e-12 * energy_before


def test_spectral_trim_matches_trim_last_block_on_partial_block(rand_tensor):
    # Blocks of 4, 4 and 2 up to the rank cap of 10; the bound keeps 9.
    x = rand_tensor(12, 10, 3, seed=66)
    untrimmed = adaptive_qb(x, AdaptiveConfig(epsilon=1e-9, block_size=4, power_iters=0,
                                              seed=RngStream(67)), trim=False)
    rows = _row_energies(untrimmed)
    energy_before = frobenius_norm(x) ** 2 - sum(rows[:8])
    eps = np.sqrt(energy_before - 0.5 * rows[8])
    cfg = AdaptiveConfig(epsilon=eps, block_size=4, power_iters=0, seed=RngStream(67))
    assert adaptive_qb(x, cfg).rank == 9
    assert trim_last_block(rows[8:], energy_before, eps ** 2)[0] == 9 - 8


@pytest.fixture
def trims(monkeypatch):
    """Row counts of the blocks randomized.trim_last_block is called on."""
    real = tubal.randomized.trim_last_block
    calls = []

    def counting(rows, *args):
        calls.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(tubal.randomized, "trim_last_block", counting)
    return calls


def test_only_a_met_bound_is_trimmed(trims, rand_tensor):
    x = rand_tensor(30, 20, 6, seed=80)
    cfg = AdaptiveConfig(epsilon=0.3 * frobenius_norm(x), block_size=4, power_iters=1,
                         seed=RngStream(81))
    qb = adaptive_qb(x, cfg)
    assert qb.achieved and len(qb.energy_trace) > 1 and trims == [4]
    untrimmed = adaptive_qb(x, cfg, trim=False)
    assert untrimmed.achieved and untrimmed.rank > qb.rank
    missed = adaptive_qb(x, replace(cfg, max_rank=4))
    assert not missed.achieved
    # ||x||_F < epsilon: rank 0, no block to trim.
    assert adaptive_qb(x, replace(cfg, epsilon=2 * frobenius_norm(x))).rank == 0
    # At the precision floor the bound is met on the explicit residual, untrimmed.
    floor = adaptive_qb(x[:10, :10, :3], replace(cfg, epsilon=1e-12, block_size=7))
    assert floor.achieved and floor.rank == 10
    assert trims == [4]


@pytest.mark.parametrize("i3", [1, 6, 7])
def test_diagonal_s_matches_dense_construction(i3, rand_tensor):
    h = rfft_tubes(rand_tensor(9, 7, i3, seed=79))
    rank = 5
    # The singular values of svd_spectral, the slice-wise step tsvd_factors inverts.
    uh, sh, vhh = svd_spectral(h, rank)
    dense = np.zeros((h.shape[0], rank, rank), dtype=np.complex128)
    dense[:, np.arange(rank), np.arange(rank)] = sh
    s = tsvd_factors(uh, sh, vhh, i3).s
    assert s.shape == (rank, rank, i3)
    assert s.tobytes(order="F") == irfft_tubes(dense, i3).tobytes(order="F")


def test_svd_spectral_holds_no_full_factors(monkeypatch, rand_tensor, blas_threads):
    # One slice per chunk on each of two workers: beside h, only rank-wide
    # factors and one slice's Gram per worker.
    h = rfft_tubes(rand_tensor(48, 40, 16, seed=80))
    blas_threads(2)
    monkeypatch.setattr(tubal.core, "CHUNK_BYTES", 1)
    tracemalloc.start()
    try:
        svd_spectral(h, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h.nbytes


def test_svd_spectral_leaves_no_thread_running(monkeypatch, rand_tensor, blas_threads):
    # The walk's pool lives for one call: a fork after it copies no thread.
    h = rfft_tubes(rand_tensor(48, 40, 16, seed=80))
    blas_threads(2)
    monkeypatch.setattr(tubal.core, "CHUNK_BYTES", 1)
    before = threading.active_count()
    svd_spectral(h, 4)
    assert threading.active_count() == before


def test_slice_walks_call_no_public_function(monkeypatch, rand_tensor, blas_threads):
    # A tracer wraps every public function and keeps one span stack, which is
    # not thread-safe: wrapped as benchmarks/tracing.py wraps them, none may
    # run on a pool thread of the walks, here 8 chunks on two workers.
    calls, qr_threads = defaultdict(set), []

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name].add(threading.current_thread())
            return fn(*args, **kwargs)
        return traced

    wrappers = {}
    for layer in ("core", "tprod", "decomp", "randomized", "bench", "tio", "cli"):
        mod = importlib.import_module(f"tubal.{layer}")
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = wrap(f"{layer}.{attr}", obj)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "tubal" or mod_name.startswith("tubal."):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[obj])
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        qr_threads.append(threading.current_thread())
        return qr(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", spy)
    blas_threads(2)
    monkeypatch.setattr(tubal.core, "CHUNK_BYTES", 1)
    x = rand_tensor(12, 10, 14, seed=81)
    tubal.adaptive_qb(x, AdaptiveConfig(epsilon=0.2 * frobenius_norm(x), block_size=3,
                                        seed=RngStream(82)))
    tubal.randomized_tsvd(x, 3, 2, 1, RngStream(83))
    assert {"randomized.adaptive_spectral", "randomized.randomized_spectral"} <= set(calls)
    assert [name for name, thread in calls.items() if thread != {threading.main_thread()}] == []
    assert {threading.main_thread()} < set(qr_threads)


class Boom(Exception):
    pass


@pytest.mark.parametrize("bad", [None, 2, 3])
def test_map_chunks_restores_the_blas_thread_count(bad, monkeypatch, blas_threads):
    # BLAS runs at one thread inside the walk and at the caller's count after
    # it, also when fn raises on the calling thread (chunk 2) or the pool's (3).
    get = tubal.core._BLAS_THREADS[0]
    blas_threads(2)
    monkeypatch.setattr(tubal.core, "CHUNK_BYTES", 1)

    def fn(c):
        if c.start == bad:
            raise Boom(c.start)
        return c.start, get()

    h = np.zeros((6, 2, 2), dtype=np.complex128)
    if bad is None:
        assert map_chunks(fn, h) == [(i, 1) for i in range(6)]
    else:
        with pytest.raises(Boom) as exc:
            map_chunks(fn, h)
        assert exc.type is Boom and exc.value.args == (bad,)
    assert get() == 2


def test_a_walk_inside_a_wider_one_leaves_the_count_it_restored(monkeypatch, blas_threads):
    # The main thread's two-chunk walk holds BLAS at one thread while a second
    # thread's one-chunk walk begins, and so runs at 1; that walk ends only
    # after the wider one has restored 2, and must not write its 1 back.
    get = tubal.core._BLAS_THREADS[0]
    blas_threads(2)
    monkeypatch.setattr(tubal.core, "CHUNK_BYTES", 1)
    inner_began, outer_returned, inner = threading.Event(), threading.Event(), []

    def inner_fn(c):
        inside = get()
        inner_began.set()
        return inside, outer_returned.wait(10)

    thread = threading.Thread(target=lambda: inner.append(
        map_chunks(inner_fn, np.zeros((1, 2, 2)))))

    def outer_fn(c):
        if c.start == 0:
            thread.start()
            return inner_began.wait(10)
        return True

    try:
        assert map_chunks(outer_fn, np.zeros((2, 2, 2))) == [True, True]
    finally:
        outer_returned.set()
        thread.join(10)
    assert inner == [[(1, True)]]
    assert get() == 2


@pytest.mark.parametrize("slices, count", [(1, 2), (3, 1)])
def test_a_one_worker_walk_sets_no_blas_count(slices, count, monkeypatch, blas_threads):
    # One chunk, or one BLAS thread: fn runs on the calling thread at the
    # caller's count, and the setter is never called.
    get, put = tubal.core._BLAS_THREADS
    blas_threads(count)
    monkeypatch.setattr(tubal.core, "CHUNK_BYTES", 1)
    puts = []
    monkeypatch.setattr(tubal.core, "_BLAS_THREADS", (get, lambda n: puts.append(n) or put(n)))
    assert map_chunks(lambda c: (threading.current_thread(), get()),
                      np.zeros((slices, 2, 2))) == [(threading.main_thread(), count)] * slices
    assert puts == []


@pytest.mark.parametrize("shape", [(32, 32, 798), (384, 384, 2)])
def test_residual_energy_holds_one_chunk(shape, rand_tensor):
    # 400 slices of 16 KiB, or 2 slices each above the budget: the temporaries
    # hold one chunk of products, CHUNK_BYTES or one slice, never all of xh.
    i1, i2, i3 = shape
    xh = rfft_tubes(rand_tensor(i1, i2, i3, seed=87))
    qh = rfft_tubes(orth(rand_tensor(i1, 2, i3, seed=88)))
    bh = adjoint(qh) @ xh
    tracemalloc.start()
    try:
        residual_energy(xh, qh, bh, i3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(tubal.core.CHUNK_BYTES, xh[0].nbytes) + 2**16


def test_rfft_tubes_allocates_only_its_stack(rand_tensor):
    # numpy writes the spectrum into the stack: no second half spectrum beside it.
    base = rand_tensor(48, 40, 16, seed=86)
    for layout, make in LAYOUTS.items():
        x = make(base)
        rfft_tubes(x)  # numpy's first transform of a length caches its plan
        tracemalloc.start()
        try:
            h = rfft_tubes(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < h.nbytes + 2**14, layout


REFUSED = {
    "truncated_tsvd-zero": (lambda x: truncated_tsvd(x, 0), RankOutOfRange),
    "truncated_tsvd-above": (lambda x: truncated_tsvd(x, 6), RankOutOfRange),
    "run_tsvd": (lambda x: run_tsvd(x, 6), RankOutOfRange),
    # b is 3 x 5 x 4, so rank 4 is out of range before q or b is transformed.
    "qb_to_tsvd": (lambda x: qb_to_tsvd(QBApprox(q=x[:, :3], b=x[:3], energy_trace=[],
                                                 achieved=True), 4), RankOutOfRange),
    "randomized_tsvd": (lambda x: randomized_tsvd(x, 4, 2, 1, RngStream(0)), RankOutOfRange),
    "randomized_tsvd-power": (lambda x: randomized_tsvd(x, 2, 1, -1, RngStream(0)),
                              SpecInvalid),
    "run_randomized": (lambda x: run_randomized(x, 0, 2, 1, RngStream(0)), RankOutOfRange),
    # The rank cap max_rank <= min(I1, I2) is the adaptive algorithm's rank rule.
    "adaptive_qb": (lambda x: adaptive_qb(x, AdaptiveConfig(1e-3, 2, max_rank=6)),
                    RankOutOfRange),
    "run_adaptive": (lambda x: run_adaptive(x, AdaptiveConfig(1e-3, 2, max_rank=6)),
                     RankOutOfRange),
}


@pytest.mark.parametrize("call", sorted(REFUSED))
def test_bad_rank_is_refused_before_x_is_transformed(call, monkeypatch, rand_tensor):
    def refuse(x):
        raise AssertionError("x was transformed before its rank was checked")
    for module in ("decomp", "randomized", "bench"):
        monkeypatch.setattr(f"tubal.{module}.rfft_tubes", refuse)
    run, error = REFUSED[call]
    with pytest.raises(error):
        run(rand_tensor(6, 5, 4, seed=81))


SEEDED = {
    "AdaptiveConfig": lambda seed, x: AdaptiveConfig(epsilon=0.1, block_size=2, seed=seed),
    "SyntheticSpec": lambda seed, x: SyntheticSpec(case="exact-lowrank", n=6, seed=seed),
    "randomized_tsvd": lambda seed, x: randomized_tsvd(x, 3, 2, 1, seed),
    "run_randomized": lambda seed, x: run_randomized(x, 3, 2, 1, seed),
}


@pytest.mark.parametrize("spec", sorted(SEEDED))
def test_seed_that_is_not_an_rng_stream_is_refused(spec, x_transforms, rand_tensor):
    # Unchecked, an int seed raised TypeError or AttributeError at its first
    # draw, after x was transformed.  A numpy Generator is refused too: every
    # entry has one seed rule.
    for seed in (5, RngStream(5).generator()):
        with pytest.raises(SpecInvalid, match="RngStream"):
            SEEDED[spec](seed, rand_tensor(8, 7, 4, seed=87))
    assert not x_transforms


def _results_from(x, y, epsilon):
    """Every time-domain tensor the entries derive from x, by name; y is tprod's other operand."""
    qb = adaptive_qb(x, AdaptiveConfig(epsilon=epsilon, block_size=3, power_iters=1,
                                       seed=RngStream(83)))
    f = truncated_tsvd(x, 4)
    rng = RngStream(84)
    out = {"adaptive_qb.q": qb.q, "adaptive_qb.b": qb.b, "tprod": tprod(x, y), "orth": orth(x),
           "reconstruct": reconstruct(f)}
    out["t_qr.q"], out["t_qr.r"] = t_qr(x)
    for name, g in (("truncated_tsvd", f),
                    ("randomized_tsvd", randomized_tsvd(x, 4, 2, 1, rng)),
                    ("qb_to_tsvd", qb_to_tsvd(qb)),
                    ("run_tsvd", run_tsvd(x, 4).result),
                    ("run_randomized", run_randomized(x, 4, 2, 1, rng).result)):
        out.update({f"{name}.u": g.u, f"{name}.s": g.s, f"{name}.v": g.v})
    return out


@pytest.mark.parametrize("i3", [6, 7])
def test_results_keep_the_memory_order_of_x(i3, rand_tensor):
    # Results are C-ordered exactly when x is, so x - y and the tube transforms
    # of results never cross mismatched strides; s is built directly, C-ordered.
    base, y = rand_tensor(12, 9, i3, seed=82), rand_tensor(9, 5, i3, seed=85)
    eps = 0.3 * frobenius_norm(base)
    want = {name: t.tobytes()
            for name, t in _results_from(np.ascontiguousarray(base), y, eps).items()}
    for layout, make in LAYOUTS.items():
        x = make(base)
        got = _results_from(x, y, eps)
        assert got.keys() == want.keys()
        # The report factors are the entries' on the same stream, bit for bit.
        for report, entry in (("run_tsvd", "truncated_tsvd"),
                              ("run_randomized", "randomized_tsvd")):
            for f in "usv":
                assert got[f"{report}.{f}"].tobytes() == got[f"{entry}.{f}"].tobytes(), (
                    layout, report, f)
        for name, t in got.items():
            assert t.tobytes() == want[name], (layout, name)
            if not name.endswith(".s"):
                assert t.flags.c_contiguous == (layout == "C"), (layout, name)
