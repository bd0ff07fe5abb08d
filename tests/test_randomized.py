import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubal import (
    AdaptiveConfig,
    DegenerateInput,
    DimMismatch,
    NonFiniteData,
    QBApprox,
    RankOutOfRange,
    RngStream,
    SpecInvalid,
    SyntheticSpec,
    adaptive_qb,
    frobenius_norm,
    gaussian_tensor,
    gen_synthetic,
    hilbert_tensor,
    is_orthogonal,
    orth,
    qb_to_tsvd,
    randomized_tsvd,
    reconstruct,
    tprod,
    transpose,
    truncated_tsvd,
)
from tubal.core import rfft_tubes
from tubal.randomized import adaptive_spectral, trim_last_block
from conftest import LAYOUTS
from references import blocked_randqb_matrix


def exact_rank_tensor(i1, i2, i3, rank, seed):
    """Exactly tubal-rank-``rank`` tensor with Gaussian singular tubes."""
    gen = RngStream(seed).generator()
    u = orth(gaussian_tensor(i1, rank, i3, gen))
    v = orth(gaussian_tensor(i2, rank, i3, gen))
    s = np.zeros((rank, rank, i3))
    s[np.arange(rank), np.arange(rank), :] = gen.standard_normal((rank, i3))
    return tprod(tprod(u, s), transpose(v))


def fast_decay_matrix(m, n, seed, base=0.5):
    gen = RngStream(seed).generator()
    u = np.linalg.qr(gen.standard_normal((m, n)))[0]
    v = np.linalg.qr(gen.standard_normal((n, n)))[0]
    s = base ** np.arange(n)
    return (u * s) @ v.T


def qb_error(x, qb):
    return frobenius_norm(x - tprod(qb.q, qb.b))


# ----------------------------------------------------------- fixed-rank rsvd

def test_randomized_tsvd_exact_low_rank():
    x = gen_synthetic(SyntheticSpec(case="exact-lowrank", n=50, rank=10,
                                    delta=0.0, seed=RngStream(1)))
    f = randomized_tsvd(x, rank=10, oversample=5, power_iters=1, rng=RngStream(2))
    err = frobenius_norm(x - reconstruct(f))
    assert err <= 1e-8 * frobenius_norm(x)


def test_randomized_tsvd_single_slice_close_to_deterministic():
    a = fast_decay_matrix(40, 30, seed=3)
    x = a[:, :, None].copy()
    r = 8
    f = randomized_tsvd(x, rank=r, oversample=8, power_iters=2, rng=RngStream(4))
    err_rand = frobenius_norm(x - reconstruct(f))
    err_det = frobenius_norm(x - reconstruct(truncated_tsvd(x, r)))
    assert err_rand <= 1.10 * err_det


def test_randomized_tsvd_full_capture():
    # sketch width equals min(I1, I2), so an exactly rank-R input is nailed
    x = exact_rank_tensor(12, 10, 4, rank=10 - 3, seed=5)
    f = randomized_tsvd(x, rank=10 - 3, oversample=3, power_iters=0, rng=RngStream(6))
    assert frobenius_norm(x - reconstruct(f)) <= 1e-8 * frobenius_norm(x)


def test_randomized_tsvd_rank_validation(rand_tensor):
    x = rand_tensor(8, 6, 3, seed=7)
    with pytest.raises(RankOutOfRange):
        randomized_tsvd(x, rank=5, oversample=2, power_iters=0, rng=RngStream(0))
    with pytest.raises(RankOutOfRange):
        randomized_tsvd(x, rank=0, oversample=2, power_iters=0, rng=RngStream(0))
    with pytest.raises(RankOutOfRange):
        randomized_tsvd(x, rank=3, oversample=-1, power_iters=0, rng=RngStream(0))
    with pytest.raises(SpecInvalid):
        randomized_tsvd(x, rank=3, oversample=2, power_iters=-3, rng=RngStream(0))
    with pytest.raises(RankOutOfRange, match="rank must be an integer"):
        randomized_tsvd(x, rank=3.5, oversample=2, power_iters=1, rng=RngStream(0))
    with pytest.raises(RankOutOfRange, match="oversample must be an integer"):
        randomized_tsvd(x, rank=3, oversample=2.0, power_iters=1, rng=RngStream(0))
    with pytest.raises(SpecInvalid, match="power_iters must be an integer"):
        randomized_tsvd(x, rank=3, oversample=2, power_iters=1.5, rng=RngStream(0))
    f = randomized_tsvd(x, rank=np.int64(3), oversample=np.int64(2), power_iters=np.int64(1),
                        rng=RngStream(0))
    assert f.rank == 3


# -------------------------------------------------------------- adaptive QB

def test_adaptive_trivial_bound_trims_to_tiny_rank(rand_tensor):
    x = rand_tensor(15, 12, 4, seed=8)
    cfg = AdaptiveConfig(epsilon=2.0 * frobenius_norm(x), block_size=5,
                         power_iters=0, seed=RngStream(9))
    qb = adaptive_qb(x, cfg)
    assert qb.achieved
    assert qb.rank == 0 and qb.energy_trace == []
    assert qb_error(x, qb) <= cfg.epsilon


def test_adaptive_recovers_plateau_rank_under_noise():
    x = gen_synthetic(SyntheticSpec(case="exact-lowrank", n=100, rank=10,
                                    delta=0.01, seed=RngStream(11)))
    nx = frobenius_norm(x)
    cfg = AdaptiveConfig(epsilon=0.01 * nx, block_size=25, power_iters=1,
                         seed=RngStream(12))
    qb = adaptive_qb(x, cfg)
    assert qb.achieved
    assert qb.rank == 10
    assert qb_error(x, qb) <= 0.01 * nx * (1 + 1e-6)


def test_adaptive_energy_matches_direct_residual(rand_tensor):
    x = rand_tensor(40, 30, 8, seed=13)
    nx2 = frobenius_norm(x) ** 2
    cfg = AdaptiveConfig(epsilon=0.05 * frobenius_norm(x), block_size=6,
                         power_iters=1, seed=RngStream(14))
    qb = adaptive_qb(x, cfg, trim=False)
    direct = qb_error(x, qb) ** 2
    assert abs(qb.energy_trace[-1] - direct) <= 1e-8 * nx2


@pytest.mark.parametrize("power_iters", [0, 1, 2])
@pytest.mark.parametrize("block_size", [1, 5, 20])
def test_energy_recursion_every_iteration(power_iters, block_size):
    x = gaussian_tensor(60, 60, 10, RngStream(15, block_size))
    nx2 = frobenius_norm(x) ** 2
    cfg = AdaptiveConfig(epsilon=0.2 * frobenius_norm(x), block_size=block_size,
                         power_iters=power_iters, seed=RngStream(16))
    qb = adaptive_qb(x, cfg, trim=False)
    assert len(qb.energy_trace) >= 1
    for i, energy in enumerate(qb.energy_trace, start=1):
        k = i * block_size
        direct = frobenius_norm(x - tprod(qb.q[:, :k, :], qb.b[:k, :, :])) ** 2
        assert abs(energy - direct) <= 1e-7 * nx2


def test_adaptive_tolerance_contract(rand_tensor):
    for seed, eps_rel in [(20, 0.3), (21, 0.1), (22, 0.3)]:
        x = rand_tensor(35, 30, 5, seed=seed)
        nx = frobenius_norm(x)
        cfg = AdaptiveConfig(epsilon=eps_rel * nx, block_size=5, power_iters=1,
                             seed=RngStream(seed + 100))
        qb = adaptive_qb(x, cfg)
        if qb.achieved:
            assert qb_error(x, qb) <= eps_rel * nx * (1 + 1e-6)


DATA = {
    "gaussian": lambda shape, gen: gaussian_tensor(*shape, gen),
    "low-rank": lambda shape, gen: tprod(gaussian_tensor(shape[0], 2, shape[2], gen),
                                         gaussian_tensor(2, shape[1], shape[2], gen)),
    "hilbert": lambda shape, gen: hilbert_tensor(1, max(shape))[:shape[0], :shape[1], :shape[2]],
}


@settings(max_examples=600)
@given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 8)),
       block=st.integers(1, 6), power=st.integers(0, 3), scale_exp=st.floats(-12, 12),
       layout=st.sampled_from(sorted(LAYOUTS)), data=st.sampled_from(sorted(DATA)),
       eps_exp=st.floats(-12, np.log10(0.9)), seed=st.integers(0, 2**32))
def test_achieved_meets_the_bound_when_recomputed(shape, block, power, scale_exp, layout,
                                                  data, eps_exp, seed):
    # The contract: achieved implies the recomputed ||x - q*b||_F <= epsilon.
    # Below eps_rel ~ 6e-16 the energy recursion cannot certify it (ROADMAP item 2c).
    x = LAYOUTS[layout](10.0 ** scale_exp * DATA[data](shape, RngStream(seed).generator()))
    eps = 10.0 ** eps_exp * frobenius_norm(x)
    qb = adaptive_qb(x, AdaptiveConfig(epsilon=eps, block_size=block, power_iters=power,
                                       seed=RngStream(seed)))
    if qb.achieved:
        assert frobenius_norm(x - tprod(qb.q, qb.b)) <= eps


def test_adaptive_trace_strictly_decreases(rand_tensor):
    x = rand_tensor(30, 25, 6, seed=23)
    cfg = AdaptiveConfig(epsilon=1e-9, block_size=5, power_iters=0,
                         seed=RngStream(24))
    qb = adaptive_qb(x, cfg)
    trace = qb.energy_trace
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_adaptive_orthogonality_maintained(rand_tensor):
    x = rand_tensor(50, 40, 6, seed=25)
    cfg = AdaptiveConfig(epsilon=1e-9, block_size=7, power_iters=1,
                         seed=RngStream(26))
    qb = adaptive_qb(x, cfg, trim=False)
    blocks = len(qb.energy_trace)
    for i in range(1, blocks + 1):
        assert is_orthogonal(qb.q[:, :i * 7, :], 1e-8)


@pytest.mark.parametrize("alpha", [0.1, 10.0, 1e-20, 1e-30, 1e30])
def test_adaptive_scale_equivariance(alpha, rand_tensor):
    x = rand_tensor(24, 20, 5, seed=27)
    eps = 0.15 * frobenius_norm(x)
    cfg = AdaptiveConfig(epsilon=eps, block_size=4, power_iters=1,
                         seed=RngStream(28))
    cfg_scaled = AdaptiveConfig(epsilon=alpha * eps, block_size=4, power_iters=1,
                                seed=RngStream(28))
    qb = adaptive_qb(x, cfg)
    qb_s = adaptive_qb(alpha * x, cfg_scaled)
    assert qb.rank == qb_s.rank
    p1 = tprod(qb.q, transpose(qb.q))
    p2 = tprod(qb_s.q, transpose(qb_s.q))
    assert frobenius_norm(p1 - p2) <= 1e-9 * (1 + frobenius_norm(p1))


@pytest.mark.parametrize("rank", [1, 7, 10])
@pytest.mark.parametrize("block_size", [4, 25])
def test_adaptive_rank_recovery(rank, block_size):
    x = exact_rank_tensor(40, 30, 6, rank, seed=29 + rank)
    cfg = AdaptiveConfig(epsilon=1e-6 * frobenius_norm(x), block_size=block_size,
                         power_iters=1, seed=RngStream(30))
    qb = adaptive_qb(x, cfg)
    assert qb.achieved
    assert qb.rank == rank


def test_adaptive_projection_energy_bounded(rand_tensor):
    x = rand_tensor(30, 30, 5, seed=31)
    nx2 = frobenius_norm(x) ** 2
    cfg = AdaptiveConfig(epsilon=0.05 * frobenius_norm(x), block_size=6,
                         power_iters=1, seed=RngStream(32))
    qb = adaptive_qb(x, cfg)
    assert frobenius_norm(qb.b) ** 2 <= nx2 * (1 + 1e-8)


def test_adaptive_rank_cap_returns_best_effort(rand_tensor):
    x = rand_tensor(30, 25, 5, seed=33)
    cfg = AdaptiveConfig(epsilon=1e-12, block_size=4, max_rank=8,
                         power_iters=0, seed=RngStream(34))
    qb = adaptive_qb(x, cfg)
    assert not qb.achieved
    assert qb.rank == 8


def test_adaptive_block_larger_than_cap(rand_tensor):
    x = rand_tensor(10, 10, 3, seed=35)
    cfg = AdaptiveConfig(epsilon=1e-3, block_size=20, power_iters=0,
                         seed=RngStream(36))
    qb = adaptive_qb(x, cfg)
    # the one block is narrowed to the rank cap, which captures all of x
    assert qb.rank == 10 and qb.achieved
    assert qb.q.shape == (10, 10, 3) and qb.b.shape == (10, 10, 3)
    assert qb_error(x, qb) <= cfg.epsilon


@pytest.mark.parametrize("block_size", [7, 25, 30])
def test_partial_last_block_reaches_rank_cap(block_size, rand_tensor):
    x = rand_tensor(30, 30, 3, seed=64)
    nx = frobenius_norm(x)
    cfg = AdaptiveConfig(epsilon=1e-6 * nx, block_size=block_size, power_iters=1,
                         seed=RngStream(65))
    qb = adaptive_qb(x, cfg)
    assert qb.achieved and qb.rank == 30
    assert qb_error(x, qb) <= cfg.epsilon
    a = x[:, :, 0]
    q, b, rank = blocked_randqb_matrix(a, 1e-6 * np.linalg.norm(a), block_size,
                                       power_iters=1, rng=RngStream(65))
    assert rank == 30 and q.shape == (30, 30)
    assert np.linalg.norm(a - q @ b) <= 1e-6 * np.linalg.norm(a)


def test_trim_partial_last_block(rand_tensor):
    x = rand_tensor(12, 10, 3, seed=66)
    cfg = AdaptiveConfig(epsilon=1e-9, block_size=4, power_iters=0,
                         seed=RngStream(67))
    qb = adaptive_qb(x, cfg, trim=False)
    assert qb.rank == 10 and len(qb.energy_trace) == 3  # blocks of 4, 4 and 2
    rows = _row_energies(qb)
    e_before = frobenius_norm(x) ** 2 - sum(rows[:8])
    assert trim_last_block(rows[8:], e_before, e_before - rows[8] - 0.5 * rows[9])[0] == 2
    assert trim_last_block(rows[8:], e_before, e_before - 0.5 * rows[8])[0] == 1


def test_adaptive_max_rank_validation(rand_tensor):
    x = rand_tensor(10, 10, 3, seed=37)
    cfg = AdaptiveConfig(epsilon=1e-3, block_size=2, max_rank=11,
                         power_iters=0, seed=RngStream(38))
    with pytest.raises(RankOutOfRange):
        adaptive_qb(x, cfg)


def test_adaptive_zero_tensor_degenerates_cleanly():
    x = np.zeros((8, 6, 4))
    qb = adaptive_qb(x, AdaptiveConfig(epsilon=0.5, block_size=3,
                                       power_iters=1, seed=RngStream(39)))
    assert qb.rank == 0 and qb.achieved
    qb = adaptive_qb(x, AdaptiveConfig(epsilon=0.0, block_size=3,
                                       power_iters=1, seed=RngStream(39)))
    assert qb.rank == 0 and not qb.achieved


@pytest.mark.parametrize("power", [0, 1, 2])
def test_degenerate_block_stops_the_run(power):
    # Tubal rank 3 at epsilon 0: block 2's sketch is projected off block 1
    # to rounding noise, so the block step raises and block 1 stands.
    x = tprod(gaussian_tensor(8, 3, 5, RngStream(1)), gaussian_tensor(3, 6, 5, RngStream(2)))
    qb = adaptive_qb(x, AdaptiveConfig(epsilon=0.0, block_size=3, power_iters=power,
                                       seed=RngStream(3)))
    assert qb.rank == 3 and not qb.achieved and len(qb.energy_trace) == 1


def test_randomized_tsvd_of_zero_is_degenerate():
    with pytest.raises(DegenerateInput):
        randomized_tsvd(np.zeros((8, 6, 5)), 2, 1, 1, RngStream(4))


@pytest.mark.parametrize("norm", [float("nan"), float("inf")])
def test_adaptive_spectral_rejects_nonfinite_norm(norm):
    x = gaussian_tensor(12, 10, 3, RngStream(1))
    with pytest.raises(NonFiniteData):
        adaptive_spectral(rfft_tubes(x), 3, norm, AdaptiveConfig(epsilon=1e-3, block_size=3))


@pytest.mark.parametrize("eps_rel", [1e-8, 1e-10, 1e-12, 1e-13, 1e-14])
def test_precision_floor_never_claims_unmet_bound(eps_rel):
    # eps^2 is within a few ulps of ||x||^2: the recursion E <- E - ||B_i||^2
    # cannot resolve it, and once read 1.6e-8 as success at rank 9.
    x = hilbert_tensor(1, 80)
    nx = frobenius_norm(x)
    cfg = AdaptiveConfig(epsilon=eps_rel * nx, block_size=5, power_iters=1,
                         seed=RngStream(0))
    qb = adaptive_qb(x, cfg)
    assert qb.achieved
    assert qb_error(x, qb) <= cfg.epsilon


def test_precision_floor_power_step_deflates():
    # A power step on x itself pulls each new block back into span(q), and
    # power 2 once stopped at error 1.3e-9 for a 1e-10 bound.
    x = hilbert_tensor(1, 80)
    nx = frobenius_norm(x)
    cfg = AdaptiveConfig(epsilon=1e-10 * nx, block_size=5, power_iters=2,
                         seed=RngStream(0))
    qb = adaptive_qb(x, cfg)
    assert qb.achieved
    assert qb_error(x, qb) <= cfg.epsilon


@pytest.mark.parametrize("eps_rel", [1e-12, 1e-13, 1e-14, 1e-15])
def test_precision_floor_reprojects_the_normalized_block(eps_rel):
    # Projecting a product off q twice before its one orthonormalization
    # leaves the new block in span(q), and that order ran to the rank cap
    # (80) here; the normalized block must be projected again instead.
    x = hilbert_tensor(1, 80)
    cfg = AdaptiveConfig(epsilon=eps_rel * frobenius_norm(x), block_size=5, power_iters=0,
                         seed=RngStream(5))
    qb = adaptive_qb(x, cfg)
    assert qb.achieved
    assert qb_error(x, qb) <= cfg.epsilon


@pytest.mark.parametrize("power_iters,eps_rel", [(2, 1e-6), (3, 1e-5), (3, 1e-6)])
def test_power_rounds_keep_the_contract(power_iters, eps_rel):
    # Power rounds on x itself, not on the residual, pulled later blocks
    # back into span(q), so the energy recursion overcounted and all 30
    # runs claimed success at up to 7.5e5 times the bound.
    x = hilbert_tensor(1, 60)
    for seed in range(10):
        cfg = AdaptiveConfig(epsilon=eps_rel * frobenius_norm(x), block_size=5,
                             power_iters=power_iters, seed=RngStream(seed))
        qb = adaptive_qb(x, cfg)
        if qb.achieved:
            assert qb_error(x, qb) <= cfg.epsilon, f"seed {seed}"


def test_precision_floor_at_rank_cap_certifies_met_bound():
    # At the rank cap the recursion once ended at +1.2e-13 > eps^2 and
    # reported failure while the residual was 1.2e-14 < eps.
    x = gaussian_tensor(10, 10, 3, RngStream(6))
    cfg = AdaptiveConfig(epsilon=1e-12, block_size=7, power_iters=0,
                         seed=RngStream(1))
    qb = adaptive_qb(x, cfg)
    assert qb.rank == 10
    assert qb_error(x, qb) <= cfg.epsilon
    assert qb.achieved


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(epsilon=-1.0, block_size=2)
    with pytest.raises(ValueError):
        AdaptiveConfig(epsilon=1.0, block_size=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(epsilon=1.0, block_size=2, power_iters=-1)
    with pytest.raises(SpecInvalid):
        AdaptiveConfig(epsilon=float("nan"), block_size=2)
    with pytest.raises(SpecInvalid, match="finite"):
        AdaptiveConfig(epsilon=float("inf"), block_size=2)
    # epsilon ** 2 once raised OverflowError inside the run.
    for eps in (1e160, 10 ** 400):
        with pytest.raises(SpecInvalid, match="finite square"):
            AdaptiveConfig(epsilon=eps, block_size=2)
    qb = adaptive_qb(np.ones((3, 2, 2)), AdaptiveConfig(epsilon=1e154, block_size=2))
    assert qb.achieved and qb.rank == 0
    with pytest.raises(SpecInvalid, match="block_size must be an integer"):
        AdaptiveConfig(epsilon=1.0, block_size=2.5)
    with pytest.raises(SpecInvalid, match="power_iters must be an integer"):
        AdaptiveConfig(epsilon=1.0, block_size=2, power_iters=1.5)
    with pytest.raises(SpecInvalid, match="max_rank must be an integer"):
        AdaptiveConfig(epsilon=1.0, block_size=2, max_rank=3.0)
    AdaptiveConfig(epsilon=1.0, block_size=np.int64(2), power_iters=np.int32(1),
                   max_rank=np.int64(3))


# ------------------------------------------------------------------ trimming

def _untrimmed_single_block(x, block_size, seed):
    # The rank cap stops the run after its first block.
    cfg = AdaptiveConfig(epsilon=1e-6 * frobenius_norm(x), block_size=block_size,
                         max_rank=block_size, power_iters=0, seed=RngStream(seed))
    qb = adaptive_qb(x, cfg, trim=False)
    assert len(qb.energy_trace) == 1
    return qb


def _row_energies(qb):
    """Squared norms of the horizontal slices of qb.b, in order."""
    return (qb.b ** 2).sum(axis=(1, 2))


def test_trim_stops_at_first_slice(rand_tensor):
    x = rand_tensor(12, 10, 3, seed=40)
    rows = _row_energies(_untrimmed_single_block(x, block_size=5, seed=41))
    e_before = frobenius_norm(x) ** 2
    kept, energy = trim_last_block(rows, e_before, e_before - 0.5 * rows[0])
    assert kept == 1 and energy == e_before - rows[0]


def test_trim_exhaustion_keeps_block(rand_tensor):
    x = rand_tensor(12, 10, 3, seed=42)
    rows = _row_energies(_untrimmed_single_block(x, block_size=5, seed=43))
    e_before = frobenius_norm(x) ** 2
    eps2 = e_before - sum(rows) + 0.5 * rows[-1]
    kept, energy = trim_last_block(rows, e_before, eps2)
    assert kept == 5 and energy < eps2


def test_trim_matches_energy_semantics(rand_tensor):
    # after trimming, the stored energy still tracks the direct residual
    x = rand_tensor(25, 20, 4, seed=44)
    cfg = AdaptiveConfig(epsilon=0.3 * frobenius_norm(x), block_size=6,
                         power_iters=1, seed=RngStream(45))
    qb = adaptive_qb(x, cfg)
    direct = qb_error(x, qb) ** 2
    assert abs(qb.energy_trace[-1] - direct) <= 1e-8 * frobenius_norm(x) ** 2


# ---------------------------------------------------------------- qb -> tsvd

def test_qb_to_tsvd_full_rank_round_trip(rand_tensor):
    x = rand_tensor(20, 16, 5, seed=46)
    cfg = AdaptiveConfig(epsilon=0.2 * frobenius_norm(x), block_size=4,
                         power_iters=1, seed=RngStream(47))
    qb = adaptive_qb(x, cfg)
    f = qb_to_tsvd(qb, "all")
    err_qb = qb_error(x, qb)
    err_f = frobenius_norm(x - reconstruct(f))
    assert abs(err_f - err_qb) <= 1e-9 * (1 + frobenius_norm(x))


def test_qb_to_tsvd_rank_one_is_worse(rand_tensor):
    x = rand_tensor(20, 16, 5, seed=48)
    cfg = AdaptiveConfig(epsilon=0.2 * frobenius_norm(x), block_size=4,
                         power_iters=1, seed=RngStream(49))
    qb = adaptive_qb(x, cfg)
    if qb.rank < 2:
        pytest.skip("trimmed to rank 1 already")
    err_full = frobenius_norm(x - reconstruct(qb_to_tsvd(qb, "all")))
    err_one = frobenius_norm(x - reconstruct(qb_to_tsvd(qb, 1)))
    assert err_one >= err_full - 1e-12


def test_qb_to_tsvd_single_slice_matches_matrix_pipeline(rand_tensor):
    x = rand_tensor(18, 14, 1, seed=50)
    cfg = AdaptiveConfig(epsilon=0.2 * frobenius_norm(x), block_size=4,
                         power_iters=1, seed=RngStream(51))
    qb = adaptive_qb(x, cfg)
    f = qb_to_tsvd(qb, "all")
    # matrix route: svd of the small factor, lifted
    bu, bs, bvt = np.linalg.svd(qb.b[:, :, 0], full_matrices=False)
    approx = (qb.q[:, :, 0] @ bu * bs) @ bvt
    err_matrix = np.linalg.norm(x[:, :, 0] - approx)
    err_tensor = frobenius_norm(x - reconstruct(f))
    assert err_tensor == pytest.approx(err_matrix, rel=1e-9, abs=1e-12)


def test_qb_to_tsvd_rank_validation(rand_tensor):
    x = rand_tensor(12, 10, 3, seed=52)
    cfg = AdaptiveConfig(epsilon=0.3 * frobenius_norm(x), block_size=3,
                         power_iters=0, seed=RngStream(53))
    qb = adaptive_qb(x, cfg)
    with pytest.raises(RankOutOfRange):
        qb_to_tsvd(qb, qb.rank + 1)
    with pytest.raises(RankOutOfRange, match="must be an integer"):
        qb_to_tsvd(qb, 2.7)
    # ||x||_F < epsilon: the answer is rank 0, which has no factors.
    qb = adaptive_qb(x, AdaptiveConfig(epsilon=2 * frobenius_norm(x), block_size=3))
    assert qb.rank == 0
    with pytest.raises(RankOutOfRange, match="rank 0, so there are no factors"):
        qb_to_tsvd(qb, "all")


@pytest.mark.parametrize("q_shape", [(6, 4, 4), (6, 3, 5)], ids=["lateral", "frontal"])
def test_qb_to_tsvd_refuses_nonconforming_q_and_b(q_shape, monkeypatch):
    # b is 3 x 5 x 4.  The q with 4 lateral slices once raised numpy's
    # ValueError; the one with 5 frontal slices returned factors for I3 = 4.
    def refuse(x):
        raise AssertionError("q or b was transformed before their shapes were checked")
    monkeypatch.setattr("tubal.randomized.rfft_tubes", refuse)
    qb = QBApprox(q=np.ones(q_shape), b=np.ones((3, 5, 4)), energy_trace=[], achieved=True)
    with pytest.raises(DimMismatch, match="t-product needs"):
        qb_to_tsvd(qb)


def test_adaptive_does_not_mutate_input(rand_tensor):
    x = rand_tensor(15, 12, 4, seed=60)
    before = x.copy()
    adaptive_qb(x, AdaptiveConfig(epsilon=0.3 * frobenius_norm(x), block_size=4,
                                  power_iters=1, seed=RngStream(61)))
    assert np.array_equal(x, before)


# ------------------------------------------------------- matrix reference QB

def test_blocked_randqb_matrix_rank_window():
    gen = RngStream(54).generator()
    a = (gen.standard_normal((60, 5)) @ gen.standard_normal((5, 40))
         + 1e-6 * gen.standard_normal((60, 40)))
    eps = 1e-3 * np.linalg.norm(a)
    q, b, rank = blocked_randqb_matrix(a, eps, block_size=4, power_iters=1,
                                       rng=RngStream(55))
    assert 5 <= rank <= 5 + 4 - 1
    assert np.linalg.norm(a - q @ b) <= eps


def test_blocked_randqb_matrix_trivial_eps():
    gen = RngStream(56).generator()
    a = gen.standard_normal((30, 20))
    q, b, rank = blocked_randqb_matrix(a, np.linalg.norm(a) + 1.0, block_size=6,
                                       power_iters=0, rng=RngStream(57))
    assert rank <= 6


def test_blocked_randqb_matrix_does_not_mutate_input():
    gen = RngStream(62).generator()
    a = gen.standard_normal((25, 18))
    before = a.copy()
    blocked_randqb_matrix(a, 1e-6, block_size=5, power_iters=1, rng=RngStream(63))
    assert np.array_equal(a, before)


@pytest.mark.parametrize("power_iters", [0, 1])
def test_adaptive_agrees_with_matrix_reference(power_iters):
    a = fast_decay_matrix(200, 150, seed=58, base=0.7)
    eps = 1e-3 * np.linalg.norm(a)
    seed = RngStream(59)
    q, b, rank = blocked_randqb_matrix(a, eps, block_size=10,
                                       power_iters=power_iters, rng=seed)
    err_matrix = np.linalg.norm(a - q @ b)

    x = a[:, :, None].copy()
    cfg = AdaptiveConfig(epsilon=eps, block_size=10, power_iters=power_iters,
                         seed=seed)
    qb = adaptive_qb(x, cfg, trim=False)
    err_tensor = qb_error(x, qb)
    assert qb.rank == rank
    assert abs(err_tensor - err_matrix) <= 1e-8
    assert abs(np.sqrt(max(qb.energy_trace[-1], 0.0)) - err_matrix) <= 1e-8


@pytest.mark.parametrize("power_iters", [0, 1, 2, 3])
def test_adaptive_equals_randqb_ei_at_every_power(power_iters):
    # Criterion 5's matrix.  Power rounds on x itself matched the reference,
    # which multiplies by the residual, only for power_iters <= 1: the gap
    # was 2e-10 at power 2 and 1e-3 at power 3.
    gen = RngStream(505).generator()
    u = np.linalg.qr(gen.standard_normal((200, 150)))[0]
    v = np.linalg.qr(gen.standard_normal((150, 150)))[0]
    a = (u * 0.8 ** np.arange(150)) @ v.T
    eps = 1e-3 * np.linalg.norm(a)
    q, b, rank = blocked_randqb_matrix(a, eps, block_size=10, power_iters=power_iters,
                                       rng=RngStream(506))
    err_matrix = np.linalg.norm(a - q @ b)

    x = a[:, :, None].copy()
    cfg = AdaptiveConfig(epsilon=eps, block_size=10, power_iters=power_iters,
                         seed=RngStream(506))
    qb = adaptive_qb(x, cfg, trim=False)
    assert qb.rank == rank
    assert abs(qb_error(x, qb) - err_matrix) <= 1e-8
