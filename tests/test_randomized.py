import numpy as np
import pytest

from tubal import (
    AdaptiveConfig,
    RankOutOfRange,
    RngStream,
    SyntheticSpec,
    adaptive_qb,
    blocked_randqb_matrix,
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
    trim_last_block,
    truncated_tsvd,
)


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


# -------------------------------------------------------------- adaptive QB

def test_adaptive_trivial_bound_trims_to_tiny_rank(rand_tensor):
    x = rand_tensor(15, 12, 4, seed=8)
    cfg = AdaptiveConfig(epsilon=2.0 * frobenius_norm(x), block_size=5,
                         power_iters=0, seed=RngStream(9))
    qb = adaptive_qb(x, cfg)
    assert qb.achieved
    assert 1 <= qb.rank <= 5
    assert qb_error(x, qb) <= cfg.epsilon * (1 + 1e-6)


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
    rows = [frobenius_norm(qb.b[j]) ** 2 for j in range(10)]
    e_before = frobenius_norm(x) ** 2 - sum(rows[:8])
    eps = np.sqrt(e_before - rows[8] - 0.5 * rows[9])
    trimmed = trim_last_block(qb, e_before, eps, block_size=4)
    assert trimmed.rank == 10
    eps = np.sqrt(e_before - 0.5 * rows[8])
    trimmed = trim_last_block(qb, e_before, eps, block_size=4)
    assert trimmed.rank == 9 and trimmed.q.shape[1] == 9
    with pytest.raises(ValueError):
        trim_last_block(qb, e_before, eps)


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


# ------------------------------------------------------------------ trimming

def _untrimmed_single_block(x, block_size, seed):
    cfg = AdaptiveConfig(epsilon=2.0 * frobenius_norm(x), block_size=block_size,
                         power_iters=0, seed=RngStream(seed))
    qb = adaptive_qb(x, cfg, trim=False)
    assert len(qb.energy_trace) == 1
    return qb


def test_trim_stops_at_first_slice(rand_tensor):
    x = rand_tensor(12, 10, 3, seed=40)
    qb = _untrimmed_single_block(x, block_size=5, seed=41)
    e_before = frobenius_norm(x) ** 2
    row1 = frobenius_norm(qb.b[0]) ** 2
    eps = np.sqrt(e_before - 0.5 * row1)
    trimmed = trim_last_block(qb, e_before, eps)
    assert trimmed.rank == 1
    assert trimmed.q.shape[1] == 1 and trimmed.b.shape[0] == 1


def test_trim_exhaustion_keeps_block(rand_tensor):
    x = rand_tensor(12, 10, 3, seed=42)
    qb = _untrimmed_single_block(x, block_size=5, seed=43)
    e_before = frobenius_norm(x) ** 2
    rows = [frobenius_norm(qb.b[j]) ** 2 for j in range(5)]
    eps = np.sqrt(e_before - sum(rows) + 0.5 * rows[-1])
    trimmed = trim_last_block(qb, e_before, eps)
    assert trimmed.rank == 5


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
