import threading

import numpy as np
import pytest

from tubal import (
    AdaptiveConfig,
    DegenerateInput,
    RankOutOfRange,
    RngStream,
    SyntheticSpec,
    adaptive_qb,
    frobenius_norm,
    gaussian_tensor,
    gen_synthetic,
    identity_tensor,
    is_orthogonal,
    orth,
    reconstruct,
    t_qr,
    tprod,
    transpose,
    truncated_tsvd,
    tubal_rank,
)
import tubal.core
import tubal.decomp
from tubal.core import adjoint, irfft_tubes, rfft_tubes, row_energies
from tubal.decomp import svd_spectral, tsvd_factors
from tubal.randomized import adaptive_spectral, randomized_spectral
from references import dft_tubes, idft_tubes


def full_loop_truncated_tsvd(x, rank):
    """Reference that factors every frequency slice, no conjugate mirroring."""
    xh = dft_tubes(x)
    i1, i2, i3 = x.shape
    uh = np.zeros((i1, rank, i3), dtype=np.complex128)
    sh = np.zeros((rank, rank, i3), dtype=np.complex128)
    vh = np.zeros((i2, rank, i3), dtype=np.complex128)
    for k in range(i3):
        u, s, vt = np.linalg.svd(xh[:, :, k], full_matrices=False)
        uh[:, :, k] = u[:, :rank]
        sh[:, :, k] = np.diag(s[:rank])
        vh[:, :, k] = vt[:rank].conj().T
    return idft_tubes(uh), idft_tubes(sh), idft_tubes(vh)


def spectral_fdiag_tensor(per_slice_diagonals, i1, i2):
    """Real f-diagonal tensor with prescribed per-frequency singular values.

    per_slice_diagonals is a (I3, K) array, conjugate-mirrored along axis 0
    (entries real positive, so mirroring is plain equality).
    """
    d = np.asarray(per_slice_diagonals, dtype=np.float64)
    i3, k = d.shape
    xh = np.zeros((i1, i2, i3), dtype=np.complex128)
    for s in range(i3):
        xh[np.arange(k), np.arange(k), s] = d[s]
    return idft_tubes(xh)


# ----------------------------------------------------------------------- t-QR

def test_tqr_single_slice_matches_reduced_qr(rand_tensor):
    x = rand_tensor(6, 4, 1, seed=1)
    q, r = t_qr(x)
    assert q.shape == (6, 4, 1) and r.shape == (4, 4, 1)
    resid = frobenius_norm(x - tprod(q, r))
    assert resid <= 1e-12 * frobenius_norm(x)
    qm = np.linalg.qr(x[:, :, 0])[0]
    # same column space as the matrix factorization
    assert np.linalg.norm(q[:, :, 0] @ q[:, :, 0].T - qm @ qm.T) <= 1e-12


def test_tqr_of_identity(rand_tensor):
    e = identity_tensor(4, 3)
    q, r = t_qr(e)
    assert frobenius_norm(e - tprod(q, r)) <= 1e-12
    assert is_orthogonal(q, 1e-12)
    # q * transpose(q) is the identity as well: q spans everything
    assert frobenius_norm(tprod(q, transpose(q)) - e) <= 1e-12


def test_tqr_random(rand_tensor):
    x = rand_tensor(8, 5, 6, seed=2)
    q, r = t_qr(x)
    assert q.shape == (8, 5, 6)
    assert frobenius_norm(x - tprod(q, r)) <= 1e-11 * frobenius_norm(x)
    assert is_orthogonal(q, 1e-10)


def test_tqr_wide_input(rand_tensor):
    x = rand_tensor(4, 9, 5, seed=3)
    q, r = t_qr(x)
    assert q.shape == (4, 4, 5) and r.shape == (4, 9, 5)
    assert frobenius_norm(x - tprod(q, r)) <= 1e-11 * frobenius_norm(x)


# ----------------------------------------------------------------------- orth

def _projector(q):
    return tprod(q, transpose(q))


def test_orth_is_idempotent_on_the_span(rand_tensor):
    x = rand_tensor(9, 4, 5, seed=4)
    q1 = orth(x)
    q2 = orth(q1)
    assert frobenius_norm(_projector(q1) - _projector(q2)) <= 1e-9


def test_orth_of_orthogonal_keeps_projector(rand_tensor):
    q = orth(rand_tensor(10, 3, 4, seed=5))
    q2 = orth(q)
    assert frobenius_norm(_projector(q) - _projector(q2)) <= 1e-9


def test_orth_zero_raises():
    with pytest.raises(DegenerateInput):
        orth(np.zeros((5, 3, 4)))


@pytest.mark.filterwarnings("error")
def test_orth_is_scale_free(rand_tensor):
    # Only a tensor with no nonzero entry is degenerate; tiny and huge scales
    # neither raise nor overflow.
    x = rand_tensor(9, 4, 5, seed=7)
    q = orth(x)
    for c in (1e-300, 1e-15, 1e160, 1e300):
        assert np.abs(orth(c * x) - q).max() <= 1e-14, c


# --------------------------------------------------------------------- t-SVD

def test_tsvd_full_rank_reconstructs(rand_tensor):
    x = rand_tensor(6, 5, 4, seed=6)
    f = truncated_tsvd(x, 5)
    assert frobenius_norm(x - reconstruct(f)) <= 1e-10 * frobenius_norm(x)


@pytest.mark.parametrize("shape,rank", [((7, 5, 6), 3), ((5, 9, 5), 4), ((6, 6, 1), 2)])
def test_tsvd_factor_invariants(shape, rank, rand_tensor):
    x = rand_tensor(*shape, seed=7)
    f = truncated_tsvd(x, rank)
    assert is_orthogonal(f.u, 1e-8)
    assert is_orthogonal(f.v, 1e-8)
    sh = dft_tubes(f.s)
    for k in range(shape[2]):
        slice_k = sh[:, :, k]
        off = slice_k - np.diag(np.diag(slice_k))
        assert np.abs(off).max() <= 1e-10
        d = np.diag(slice_k).real
        assert np.all(d >= -1e-12)
        assert np.all(np.diff(d) <= 1e-10)


def test_tsvd_single_slice_matches_matrix_truncation(rand_tensor):
    x = rand_tensor(8, 6, 1, seed=8)
    r = 3
    f = truncated_tsvd(x, r)
    err = frobenius_norm(x - reconstruct(f))
    u, s, vt = np.linalg.svd(x[:, :, 0], full_matrices=False)
    err_matrix = np.linalg.norm(x[:, :, 0] - (u[:, :r] * s[:r]) @ vt[:r])
    assert err == pytest.approx(err_matrix, rel=1e-10, abs=1e-12)


def test_tsvd_recovers_exact_low_rank_construction():
    x = gen_synthetic(SyntheticSpec(case="exact-lowrank", n=30, rank=10,
                                    delta=0.0, seed=RngStream(42)))
    f = truncated_tsvd(x, 10)
    assert frobenius_norm(x - reconstruct(f)) <= 1e-9 * frobenius_norm(x)


def test_tsvd_rank_out_of_range(rand_tensor):
    x = rand_tensor(4, 5, 3, seed=9)
    with pytest.raises(RankOutOfRange):
        truncated_tsvd(x, 0)
    with pytest.raises(RankOutOfRange):
        truncated_tsvd(x, 5)
    with pytest.raises(RankOutOfRange, match="rank must be an integer"):
        truncated_tsvd(x, 3.0)
    assert truncated_tsvd(x, np.int64(3)).rank == 3


def test_tsvd_agrees_with_full_loop_reference(rand_tensor):
    for i3 in (4, 5):
        x = rand_tensor(7, 6, i3, seed=20 + i3)
        r = 4
        f = truncated_tsvd(x, r)
        u, s, v = full_loop_truncated_tsvd(x, r)
        mine = reconstruct(f)
        ref = tprod(tprod(u, s), transpose(v))
        assert frobenius_norm(mine - ref) <= 1e-10 * (1 + frobenius_norm(ref))


def test_truncation_error_identity():
    # per-frequency singular values chosen by hand; mirrored for realness
    head = np.array([
        [9.0, 4.0, 2.0, 0.5],
        [8.0, 3.0, 1.0, 0.25],
        [7.0, 2.5, 0.8, 0.1],
    ])
    i3 = 5
    d = np.vstack([head, head[2], head[1]])
    x = spectral_fdiag_tensor(d, 6, 4)
    for r in (1, 2, 3):
        f = truncated_tsvd(x, r)
        err2 = frobenius_norm(x - reconstruct(f)) ** 2
        expected = (d[:, r:] ** 2).sum() / i3
        assert err2 == pytest.approx(expected, rel=1e-9)


def test_eckart_young_beats_qb(rand_tensor):
    x = rand_tensor(25, 20, 6, seed=10)
    cfg = AdaptiveConfig(epsilon=0.25 * frobenius_norm(x), block_size=4,
                         power_iters=1, seed=RngStream(0))
    qb = adaptive_qb(x, cfg)
    assert qb.achieved and qb.rank >= 1
    f = truncated_tsvd(x, qb.rank)
    err_tsvd = frobenius_norm(x - reconstruct(f))
    err_qb = frobenius_norm(x - tprod(qb.q, qb.b))
    assert err_tsvd <= err_qb + 1e-9 * frobenius_norm(x)


# Every test runs with RuntimeWarning as an error (pyproject.toml), so the
# fallback tests below also assert that no slice divides by zero.

@pytest.fixture
def svd_slices(monkeypatch):
    """Slice counts of the np.linalg.svd calls made while the test runs: the SVD fallback."""
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(a.shape[0])
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def conditioned_spectrum(i1, i2, i3, diagonals, seed):
    """Half spectrum with orthonormal factors and the (K, R) singular values diagonals."""
    qa = rfft_tubes(orth(gaussian_tensor(i1, diagonals.shape[1], i3, RngStream(seed))))
    qb = rfft_tubes(orth(gaussian_tensor(i2, diagonals.shape[1], i3, RngStream(seed + 1))))
    return (qa * diagonals[:, None, :]) @ adjoint(qb)


@pytest.mark.parametrize("lifted", [False, True])
@pytest.mark.parametrize("i3", [6, 7])
@pytest.mark.parametrize("i1,i2", [(7, 11), (11, 7)])
def test_gram_path_matches_svd(i1, i2, i3, lifted, rand_tensor, svd_slices):
    x = rand_tensor(i1 + 3 if lifted else i1, i2, i3, seed=31)
    xh = rfft_tubes(x)
    lift = np.linalg.qr(rfft_tubes(rand_tensor(x.shape[0], i1, i3, seed=32)))[0]
    h = adjoint(lift) @ xh if lifted else xh
    rank = 4
    uh, sh, vhh = np.linalg.svd(h, full_matrices=False)
    svd_slices.clear()
    gu, gs, gvh = svd_spectral(h, rank)
    f = tsvd_factors(lift @ gu if lifted else gu, gs, gvh, i3)
    assert svd_slices == []
    idx = np.arange(rank)
    s = rfft_tubes(f.s)[:, idx, idx]
    assert np.abs(s - sh[:, :rank]).max() <= 1e-13 * sh[:, 0].max()
    uh = lift @ uh if lifted else uh
    ref = irfft_tubes((uh[:, :, :rank] * sh[:, None, :rank]) @ vhh[:, :rank], i3)
    assert frobenius_norm(reconstruct(f) - ref) <= 1e-12 * frobenius_norm(ref)
    assert is_orthogonal(f.u, 1e-12)
    assert is_orthogonal(f.v, 1e-12)


def test_gram_fallback_zero_slices(svd_slices):
    # Constant tubes: every slice but the DC slice is exactly zero.
    x = gen_synthetic(SyntheticSpec(case="poly-decay", n=12, rank=3, delta=0.0))
    f = truncated_tsvd(x, 4)
    assert svd_slices == [6]
    assert is_orthogonal(f.u, 1e-12)
    assert is_orthogonal(f.v, 1e-12)
    # Every frontal slice is the same matrix, truncated the same way.
    tail = np.linalg.svd(x[:, :, 0], compute_uv=False)[4:]
    err = frobenius_norm(x - reconstruct(f))
    assert err == pytest.approx(np.sqrt(12 * (tail ** 2).sum()), rel=1e-12)


def test_gram_fallback_rank_above_slice_rank(svd_slices):
    x = gen_synthetic(SyntheticSpec(case="exact-lowrank", n=9, rank=2, delta=0.0,
                                    seed=RngStream(5)))
    f = truncated_tsvd(x, 4)
    assert svd_slices == [5]
    assert is_orthogonal(f.u, 1e-12)
    assert is_orthogonal(f.v, 1e-12)
    assert frobenius_norm(x - reconstruct(f)) <= 1e-12 * frobenius_norm(x)


def test_gram_fallback_ill_conditioned_slice(svd_slices):
    # Slice 1 has s_1 / s_5 = 1e8, far past what GRAM_RTOL admits; the others are tame.
    d = np.tile(np.linspace(1.0, 0.6, 5), (4, 1))
    d[1] = np.logspace(0, -8, 5)
    x = irfft_tubes(conditioned_spectrum(8, 6, 6, d, seed=40), 6)
    f = truncated_tsvd(x, 5)
    assert svd_slices == [1]
    assert is_orthogonal(f.u, 1e-12)
    assert is_orthogonal(f.v, 1e-12)
    idx = np.arange(5)
    assert np.abs(rfft_tubes(f.s)[:, idx, idx] - d).max() <= 1e-13
    assert frobenius_norm(x - reconstruct(f)) <= 1e-12 * frobenius_norm(x)


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_gram_fallback_out_of_range_scale(scale, rand_tensor, svd_slices):
    # The Gram overflows, or underflows below the normal range, on every slice.
    x = rand_tensor(8, 6, 5, seed=42)
    f = truncated_tsvd(x * scale, 3)
    assert svd_slices == [3]
    assert is_orthogonal(f.u, 1e-12)
    assert is_orthogonal(f.v, 1e-12)
    ref = truncated_tsvd(x, 3)
    assert np.abs(f.s / scale - ref.s).max() <= 1e-13 * np.abs(ref.s).max()


def test_gram_certificate_threshold(svd_slices):
    # lam_r / lam_1 just above GRAM_RTOL on slice 0, just below it on slice 1.
    ratio = np.sqrt(tubal.decomp.GRAM_RTOL)
    d = np.array([[1.0, ratio * 1.01], [1.0, ratio * 0.99]])
    sh = svd_spectral(conditioned_spectrum(5, 4, 2, d, seed=44), 2)[1]
    assert svd_slices == [1]
    assert np.abs(sh - d).max() <= 1e-13


@pytest.mark.parametrize("i3", [6, 7])
def test_gram_chunks_are_bit_identical(i3, monkeypatch):
    d = np.tile(np.linspace(2.0, 0.5, 5), (i3 // 2 + 1, 1))
    d[1] = np.logspace(0, -8, 5)
    h = conditioned_spectrum(9, 7, i3, d, seed=46)
    whole = svd_spectral(h, 3)
    monkeypatch.setattr(tubal.core, "CHUNK_BYTES", 1)
    for a, b in zip(whole, svd_spectral(h, 3)):
        assert a.tobytes() == b.tobytes()


def fallback_stack():
    """Eight 12 x 9 slices; slice 3 is zero and slice 6 has rank one, so both take the SVD."""
    h = rfft_tubes(gaussian_tensor(12, 9, 14, RngStream(48)))
    h[3] = 0.0
    h[6] = np.outer(h[6][:, 0], h[6][0])
    return h


def walk_outputs(h, monkeypatch):
    """The outputs of every slice walk on the I3 = 14 stack h, as arrays.

    svd_spectral walks chunks of two slices: worker 1 takes chunks 1 and
    3, so slices 3 and 6.  The block step walks chunks of one slice, 8 per
    block: in adaptive_spectral at power 0, 1 and 2 and at the precision
    floor (block 3, so each run's later blocks project off the basis and,
    at the floor, take two more passes), and in randomized_spectral.
    """
    monkeypatch.setattr(tubal.core, "CHUNK_BYTES", 2 * h[0].nbytes)
    out = list(svd_spectral(h, 4))
    monkeypatch.setattr(tubal.core, "CHUNK_BYTES", 1)
    norm = float(np.sqrt(row_energies(h, 14).sum()))
    for rel, power in ((0.2, 0), (0.2, 1), (0.2, 2), (1e-9, 1)):
        cfg = AdaptiveConfig(epsilon=rel * norm, block_size=3, power_iters=power,
                             seed=RngStream(49))
        qh, bh, trace, _ = adaptive_spectral(h, 14, norm, cfg)
        out += [qh, bh, np.array(trace)]
    out += randomized_spectral(h, 14, norm, 4, 2, 1, RngStream(50))
    return out


def test_slice_walk_equals_one_worker(monkeypatch, blas_threads):
    # Threads of the SVD fallback on slices of h, and of the block step's QR.
    h = fallback_stack()
    threads = {"svd": [], "qr": []}

    def spy(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            if name == "qr" or a.shape[1:] == h.shape[1:]:
                threads[name].append(threading.current_thread())
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, call)
    spy("svd")
    spy("qr")
    runs = []
    for n in (1, 2):
        blas_threads(n)
        for t in threads.values():
            t.clear()
        runs.append(walk_outputs(h, monkeypatch))
    assert threading.main_thread() not in threads["svd"] and len(threads["svd"]) == 2
    assert {threading.main_thread()} < set(threads["qr"])
    assert np.all(runs[0][1][3] == 0.0)
    for a, b in zip(*runs, strict=True):
        assert a.tobytes() == b.tobytes()


def test_slice_walk_without_openblas_is_one_worker(monkeypatch, blas_threads):
    # A numpy built on another BLAS: the lookup fails, and the walk runs on
    # the calling thread alone, at whatever thread count that BLAS has.
    h = fallback_stack()
    blas_threads(1)
    want = walk_outputs(h, monkeypatch)
    monkeypatch.setattr(np, "show_config", lambda mode: {
        "Build Dependencies": {"blas": {"name": "accelerate"}}})
    monkeypatch.setattr(tubal.core, "_BLAS_THREADS", tubal.core._openblas_threads())
    got = walk_outputs(h, monkeypatch)
    for a, b in zip(want, got, strict=True):
        assert a.tobytes() == b.tobytes()
    blas_threads(2)
    monkeypatch.setattr(tubal.core, "CHUNK_BYTES", 2 * h[0].nbytes)
    assert tubal.core.map_chunks(lambda c: threading.current_thread(), h) == [
        threading.main_thread()] * 4


# ---------------------------------------------------------------- tubal rank

def test_tubal_rank_identity():
    assert tubal_rank(identity_tensor(7, 4)) == 7


def test_tubal_rank_zero():
    # A zero tensor, and tensors with no entry (I1 = 0 or I2 = 0), have rank 0.
    for shape in ((4, 5, 3), (0, 5, 3), (4, 0, 3)):
        assert tubal_rank(np.zeros(shape)) == 0, shape


def test_tubal_rank_exact_construction():
    x = gen_synthetic(SyntheticSpec(case="exact-lowrank", n=100, rank=10,
                                    delta=0.0, seed=RngStream(3)))
    assert tubal_rank(x) == 10


# -------------------------------------------------------------- reconstruct

def test_reconstruct_error_monotone_in_rank(rand_tensor):
    x = rand_tensor(10, 8, 5, seed=11)
    errs = [frobenius_norm(x - reconstruct(truncated_tsvd(x, r))) for r in range(1, 9)]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-12


def test_reconstruct_rank_one_exact(rand_tensor):
    u = orth(rand_tensor(7, 1, 4, seed=12))
    v = orth(rand_tensor(6, 1, 4, seed=13))
    s = np.zeros((1, 1, 4))
    s[0, 0, 0] = 3.5
    x = tprod(tprod(u, s), transpose(v))
    f = truncated_tsvd(x, 1)
    assert frobenius_norm(x - reconstruct(f)) <= 1e-10 * frobenius_norm(x)
