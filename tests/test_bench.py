import json
import math

import numpy as np
import pytest

from tubal import (
    AdaptiveConfig,
    RngStream,
    SpecInvalid,
    SyntheticSpec,
    frobenius_norm,
    gaussian_tensor,
    gen_synthetic,
    hilbert_tensor,
    orth,
    reconstruct,
    run_adaptive,
    run_randomized,
    run_tsvd,
    tprod,
    transpose,
    tubal_rank,
)
from tubal.bench import append_csv, decay_profile, write_report
from tubal.core import irfft_tubes

REPORT_FIELDS = {"dims", "method", "epsilon", "block_size", "power_iters", "seed",
                 "estimated_rank", "relative_error", "wall_time_ms", "iterations",
                 "energy_trace"}


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        SyntheticSpec(case="nope", n=10)
    with pytest.raises(SpecInvalid):
        SyntheticSpec(case="exact-lowrank", n=5, rank=6)
    for case, n, rank in (("hilbert-1", 7.5, 1), ("exact-lowrank", 12.5, 2),
                          ("poly-decay", 12, 2.5)):
        with pytest.raises(SpecInvalid, match="must be an integer"):
            SyntheticSpec(case=case, n=n, rank=rank)
    for delta in (-0.1, float("nan"), float("inf")):
        with pytest.raises(SpecInvalid):
            SyntheticSpec(case="exact-lowrank", n=5, rank=2, delta=delta)


def test_exact_lowrank_has_requested_tubal_rank():
    x = gen_synthetic(SyntheticSpec(case="exact-lowrank", n=50, rank=10,
                                    delta=0.0, seed=RngStream(5)))
    assert tubal_rank(x) == 10


def test_decay_profiles():
    d = decay_profile("poly-decay", 8, 3)
    assert np.allclose(d[:3], 1.0)
    assert d[3] == pytest.approx(2.0 ** -2)
    assert d[7] == pytest.approx(6.0 ** -2)
    d = decay_profile("exp-decay", 8, 3)
    assert d[3] == pytest.approx(0.1)  # first entry past the plateau
    assert d[7] == pytest.approx(10.0 ** -5)


@pytest.mark.parametrize("n", [0, -2, 2.5])
def test_hilbert_tensor_refuses_bad_n(n):
    # 2.5 once built a 3x3x3 tensor and 0 an empty one.
    with pytest.raises(SpecInvalid):
        hilbert_tensor(1, n)


def test_hilbert_values():
    x = hilbert_tensor(1, 4)
    assert x[0, 0, 0] == pytest.approx(1.0 / 3.0)
    assert x[1, 2, 3] == pytest.approx(1.0 / 9.0)
    y = hilbert_tensor(2, 4)
    assert y[0, 0, 0] == pytest.approx(1.0 / 9.0)
    assert y[3, 3, 3] == pytest.approx(1.0 / 36.0)


def test_hilbert_case_via_spec():
    x = gen_synthetic(SyntheticSpec(case="hilbert-1", n=6))
    assert x.shape == (6, 6, 6)
    assert x[0, 0, 0] == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("case", ["exact-lowrank", "poly-decay", "exp-decay"])
def test_generator_determinism(case):
    spec = SyntheticSpec(case=case, n=20, rank=4, delta=0.05, seed=RngStream(9))
    a = gen_synthetic(spec)
    b = gen_synthetic(spec)
    assert np.array_equal(a, b)


def full_tensor_construction(spec):
    """The construction gen_synthetic stands for, with the same draws in the same order.

    orth of the two draws behind u and v, the f-diagonal middle tensor, two
    t-products and a transpose, then the noise scaled to norm delta.  A
    decay case's n x n draw G stands in frontal slice 0 of an otherwise
    zero tensor, so every DFT slice of that tensor is G.
    """
    n, r = spec.n, spec.rank
    gen = spec.seed.generator()
    if spec.case == "exact-lowrank":
        u = orth(gaussian_tensor(n, r, n, gen))
        v = orth(gaussian_tensor(n, r, n, gen))
        s = np.zeros((r, r, n))
        s[np.arange(r), np.arange(r), :] = gaussian_tensor(1, r, n, gen)[0]
    else:
        u, v = np.zeros((n, n, n)), np.zeros((n, n, n))
        u[:, :, 0] = gaussian_tensor(n, n, 1, gen)[:, :, 0]
        v[:, :, 0] = gaussian_tensor(n, n, 1, gen)[:, :, 0]
        u, v = orth(u), orth(v)
        s = np.zeros((n, n, n))
        s[np.arange(n), np.arange(n), :] = decay_profile(spec.case, n, r)[:, None]
    x = tprod(tprod(u, s), transpose(v))
    if spec.delta > 0:
        noise = gaussian_tensor(n, n, n, gen)
        x = x + spec.delta * noise / frobenius_norm(noise)
    return x


@pytest.mark.parametrize("case", ["exact-lowrank", "poly-decay", "exp-decay"])
@pytest.mark.parametrize("n", [12, 17])
@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_generator_matches_full_tensor_construction(case, n, delta):
    spec = SyntheticSpec(case=case, n=n, rank=3, delta=delta, seed=RngStream(40 + n))
    ref = full_tensor_construction(spec)
    x = gen_synthetic(spec)
    assert x.shape == (n, n, n)
    assert frobenius_norm(x - ref) <= 1e-12 * frobenius_norm(ref)


def test_decay_cases_repeat_one_frontal_slice():
    x = gen_synthetic(SyntheticSpec(case="exp-decay", n=9, rank=2, seed=RngStream(3)))
    assert all(np.array_equal(x[:, :, k], x[:, :, 0]) for k in range(9))


def test_noise_has_requested_norm():
    spec0 = SyntheticSpec(case="exact-lowrank", n=20, rank=4, delta=0.0,
                          seed=RngStream(10))
    spec1 = SyntheticSpec(case="exact-lowrank", n=20, rank=4, delta=0.5,
                          seed=RngStream(10))
    clean = gen_synthetic(spec0)
    noisy = gen_synthetic(spec1)
    assert frobenius_norm(noisy - clean) == pytest.approx(0.5, rel=1e-12)


def test_run_tsvd_full_rank(rand_tensor):
    x = rand_tensor(10, 8, 4, seed=11)
    report = run_tsvd(x, 8)
    assert report.method == "tsvd"
    assert report.relative_error <= 1e-10
    assert report.estimated_rank == 8
    assert report.epsilon is None and report.energy_trace is None


def test_run_adaptive_report_and_eckart_ordering(rand_tensor):
    x = rand_tensor(30, 25, 5, seed=12)
    cfg = AdaptiveConfig(epsilon=0.2, block_size=5, power_iters=1,
                         seed=RngStream(13))
    rep_a = run_adaptive(x, cfg, rel=True)
    assert rep_a.method == "adaptive"
    assert rep_a.result.achieved
    assert rep_a.relative_error <= 0.2 * (1 + 1e-6)
    assert rep_a.epsilon["relative"] == pytest.approx(0.2)
    assert rep_a.epsilon["absolute"] == pytest.approx(0.2 * frobenius_norm(x))
    rep_t = run_tsvd(x, rep_a.estimated_rank)
    assert rep_t.relative_error <= rep_a.relative_error + 1e-9


def test_run_adaptive_absolute_mode(rand_tensor):
    x = rand_tensor(20, 15, 4, seed=14)
    eps = 0.3 * frobenius_norm(x)
    cfg = AdaptiveConfig(epsilon=eps, block_size=4, power_iters=0,
                         seed=RngStream(15))
    rep = run_adaptive(x, cfg, rel=False)
    assert rep.epsilon["absolute"] == pytest.approx(eps)
    assert rep.epsilon["relative"] == pytest.approx(0.3)
    assert rep.relative_error <= 0.3 * (1 + 1e-6)


def test_run_adaptive_refuses_overflowing_relative_bound(rand_tensor):
    # eps * ||x||_F was inf, and a numpy eps warned as the product overflowed;
    # such an eps is now refused by the config, whose square must be finite.
    with pytest.raises(SpecInvalid, match="finite"):
        AdaptiveConfig(epsilon=np.float64(1e308), block_size=4)
    # Here the product is finite but its square overflows.
    cfg = AdaptiveConfig(epsilon=np.float64(1e154), block_size=4, seed=RngStream(15))
    with pytest.raises(SpecInvalid, match="finite"):
        run_adaptive(rand_tensor(20, 15, 4, seed=14), cfg, rel=True)


def test_run_randomized_report(rand_tensor):
    x = rand_tensor(20, 15, 4, seed=16)
    rep = run_randomized(x, rank=5, oversample=3, power_iters=1,
                         seed=RngStream(17))
    assert rep.method == "randomized"
    assert rep.estimated_rank == 5
    assert rep.relative_error >= 0.0
    assert rep.seed == 17


@pytest.mark.parametrize("i3", [6, 7])
def test_factor_run_errors_match_the_reconstruction(i3, rand_tensor):
    # run_tsvd and run_randomized measure the residual of (u s, transpose(v))
    # on the half spectrum; it is the time-domain error of the reconstruction.
    x = rand_tensor(14, 11, i3, seed=19)
    nx = frobenius_norm(x)
    for rep in (run_tsvd(x, 4), run_randomized(x, 4, 2, 1, RngStream(20))):
        want = frobenius_norm(x - reconstruct(rep.result)) / nx
        assert rep.relative_error == pytest.approx(want, rel=1e-12, abs=0)


def test_hilbert_run_meets_tight_tolerance():
    x = gen_synthetic(SyntheticSpec(case="hilbert-1", n=100))
    cfg = AdaptiveConfig(epsilon=0.001, block_size=20, power_iters=1,
                         seed=RngStream(18))
    rep = run_adaptive(x, cfg, rel=True)
    assert rep.result.achieved
    assert rep.relative_error <= 0.001 * (1 + 1e-6)


@pytest.mark.parametrize("eps_rel", [1e-13, 1e-14])
def test_precision_floor_error_matches_time_domain(eps_rel):
    # The error is measured on the half spectrum; it may differ from the
    # time-domain residual by rounding, a few ulps of ||x||, no more.
    x = hilbert_tensor(1, 80)
    nx = frobenius_norm(x)
    rep = run_adaptive(x, AdaptiveConfig(epsilon=eps_rel, block_size=5, power_iters=1,
                                         seed=RngStream(0)), rel=True)
    qb = rep.result
    assert qb.achieved and rep.relative_error <= eps_rel
    time_domain = frobenius_norm(x - irfft_tubes(qb.qh @ qb.bh, 80)) / nx
    assert abs(rep.relative_error - time_domain) <= 4 * np.finfo(np.float64).eps
    # At the floor the run certified the bound on the same residual it reports.
    assert math.sqrt(qb.energy_trace[-1]) / nx == rep.relative_error


def test_run_adaptive_zero_tensor_reports_zero_error():
    rep = run_adaptive(np.zeros((8, 6, 4)), AdaptiveConfig(epsilon=0.5, block_size=3,
                                                           seed=RngStream(22)))
    assert rep.estimated_rank == 0 and rep.result.achieved
    assert rep.relative_error == 0.0


def test_report_json_schema(tmp_path, rand_tensor):
    x = rand_tensor(12, 10, 3, seed=19)
    cfg = AdaptiveConfig(epsilon=0.5, block_size=3, power_iters=0,
                         seed=RngStream(20))
    rep = run_adaptive(x, cfg, rel=True)
    out = tmp_path / "r.json"
    write_report(rep, out)
    data = json.loads(out.read_text())
    assert set(data) == REPORT_FIELDS
    assert data["dims"] == [12, 10, 3]
    assert data["iterations"] == len(data["energy_trace"])


def test_report_csv_append(tmp_path, rand_tensor):
    x = rand_tensor(12, 10, 3, seed=21)
    rep = run_tsvd(x, 4)
    out = tmp_path / "rows.csv"
    append_csv(rep, out)
    append_csv(rep, out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two rows
    assert lines[0].startswith("dims,method,epsilon_absolute,epsilon_relative")
    assert lines[1].startswith("12x10x3,tsvd,")
