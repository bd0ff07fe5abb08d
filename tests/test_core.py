import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import tubal.core
from tubal import (
    AdaptiveConfig,
    DimMismatch,
    EmptyDir,
    NonFiniteData,
    RngStream,
    SpecInvalid,
    adaptive_qb,
    frobenius_norm,
    gaussian_tensor,
    hilbert_tensor,
    identity_tensor,
    is_orthogonal,
    load_pgm_stack,
    orth,
    randomized_tsvd,
    run_adaptive,
    run_randomized,
    run_tsvd,
    save_tns,
    t_qr,
    tprod,
    transpose,
    truncated_tsvd,
    tubal_rank,
)
from tubal.bench import decay_profile
from tubal.core import concat_mode1, concat_mode2, irfft_tubes, residual_energy, rfft_tubes
from tubal.tio import save_pgm
from conftest import LAYOUTS, naive_dft_tubes
from references import ImaginaryResidue, dft_tubes, idft_tubes, tprod_oracle

dims = st.integers(min_value=1, max_value=6)
tube_len = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32)


# ---------------------------------------------------------------- transforms

def test_dft_length_one_tube_is_identity(rand_tensor):
    x = rand_tensor(4, 3, 1, seed=5)
    xh = dft_tubes(x)
    assert_allclose(xh.real, x, rtol=0, atol=0)
    assert np.all(xh.imag == 0)


def test_dft_constant_tubes_concentrate_in_first_slice():
    x = np.tile(np.arange(6.0).reshape(2, 3, 1), (1, 1, 4))
    xh = dft_tubes(x)
    assert_allclose(xh[:, :, 0], 4 * x[:, :, 0], atol=1e-12)
    assert_allclose(xh[:, :, 1:], 0, atol=1e-12)


def test_dft_matches_naive_summation(rand_tensor):
    x = rand_tensor(3, 4, 5, seed=1)
    expected = naive_dft_tubes(x)
    got = dft_tubes(x)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(deadline=None)
@given(dims, dims, tube_len, seeds)
def test_round_trip(i1, i2, i3, seed):
    x = gaussian_tensor(i1, i2, i3, RngStream(seed))
    back = idft_tubes(dft_tubes(x))
    assert frobenius_norm(back - x) <= 1e-12 * (1 + frobenius_norm(x))


def test_round_trip_mixed_dims(rand_tensor):
    x = rand_tensor(6, 5, 7, seed=4)
    back = idft_tubes(dft_tubes(x))
    assert frobenius_norm(back - x) <= 1e-12 * frobenius_norm(x)


def test_idft_zero():
    z = np.zeros((3, 2, 4), dtype=np.complex128)
    assert_allclose(idft_tubes(z), 0, atol=0)


def test_idft_rejects_broken_conjugate_symmetry(rand_tensor):
    # perturbing one mirrored slice leaves an imaginary part ~0.25 behind
    xh = dft_tubes(rand_tensor(3, 3, 4, seed=2))
    xh[:, :, 1] += 1.0
    with pytest.raises(ImaginaryResidue):
        idft_tubes(xh)


@settings(deadline=None)
@given(dims, dims, tube_len, seeds)
def test_conjugate_symmetry(i1, i2, i3, seed):
    x = gaussian_tensor(i1, i2, i3, RngStream(seed))
    xh = dft_tubes(x)
    nx = frobenius_norm(x)
    for k in range(i3 // 2 + 1, i3):
        gap = np.linalg.norm(xh[:, :, k] - xh[:, :, i3 - k].conj())
        assert gap <= 1e-10 * max(nx, 1e-30)


@settings(deadline=None)
@given(dims, dims, tube_len, seeds)
def test_parseval(i1, i2, i3, seed):
    x = gaussian_tensor(i1, i2, i3, RngStream(seed))
    xh = dft_tubes(x)
    lhs = frobenius_norm(x) ** 2
    rhs = sum(np.linalg.norm(xh[:, :, k]) ** 2 for k in range(i3)) / i3
    assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1e-30)


def test_first_spectral_slice_real(rand_tensor):
    xh = dft_tubes(rand_tensor(5, 4, 6, seed=3))
    assert np.abs(xh[:, :, 0].imag).max() <= 1e-12


# ----------------------------------------------------------------- transpose

@settings(deadline=None)
@given(dims, dims, tube_len, seeds)
def test_transpose_involution(i1, i2, i3, seed):
    x = gaussian_tensor(i1, i2, i3, RngStream(seed))
    assert_allclose(transpose(transpose(x)), x, atol=0)


def test_transpose_matrix_case(rand_tensor):
    x = rand_tensor(4, 6, 1, seed=9)
    assert_allclose(transpose(x)[:, :, 0], x[:, :, 0].T, atol=0)


def test_transpose_reverses_product(rand_tensor):
    x = rand_tensor(4, 3, 5, seed=10)
    y = rand_tensor(3, 2, 5, seed=11)
    lhs = transpose(tprod(x, y))
    rhs = tprod(transpose(y), transpose(x))
    assert frobenius_norm(lhs - rhs) <= 1e-10 * (1 + frobenius_norm(lhs))


# ------------------------------------------------------------------ identity

def test_identity_is_left_unit(rand_tensor):
    x = rand_tensor(4, 5, 3, seed=12)
    assert frobenius_norm(tprod(identity_tensor(4, 3), x) - x) <= 1e-12 * frobenius_norm(x)


def test_identity_is_right_unit(rand_tensor):
    x = rand_tensor(4, 5, 3, seed=13)
    assert frobenius_norm(tprod(x, identity_tensor(5, 3)) - x) <= 1e-12 * frobenius_norm(x)


def test_identity_spectrum_is_identity_everywhere():
    eh = dft_tubes(identity_tensor(4, 6))
    for k in range(6):
        assert_allclose(eh[:, :, k], np.eye(4), atol=1e-13)


def test_identity_scalar():
    assert_allclose(identity_tensor(1, 1), np.ones((1, 1, 1)), atol=0)


# ------------------------------------------------------------- norm and dot

def test_norm_zero():
    assert frobenius_norm(np.zeros((2, 3, 4))) == 0.0


def test_norm_all_ones():
    assert frobenius_norm(np.ones((2, 3, 4))) == pytest.approx(np.sqrt(24), rel=1e-15)


def test_adjoint_identity(rand_tensor):
    # <q * x, y> = <x, transpose(q) * y> for conformable tensors
    q = rand_tensor(5, 4, 3, seed=16)
    x = rand_tensor(4, 2, 3, seed=17)
    y = rand_tensor(5, 2, 3, seed=18)
    lhs = np.vdot(tprod(q, x), y)
    rhs = np.vdot(x, tprod(transpose(q), y))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


# -------------------------------------------------------------------- concat

def test_concat_mode1_recovers_blocks(rand_tensor):
    a = rand_tensor(3, 4, 2, seed=19)
    b = rand_tensor(2, 4, 2, seed=20)
    c = concat_mode1(a, b)
    assert_allclose(c[:3], a, atol=0)
    assert_allclose(c[3:], b, atol=0)


def test_concat_norm_is_pythagorean(rand_tensor):
    a = rand_tensor(3, 4, 2, seed=21)
    b = rand_tensor(3, 5, 2, seed=22)
    c = concat_mode2(a, b)
    assert frobenius_norm(c) ** 2 == pytest.approx(
        frobenius_norm(a) ** 2 + frobenius_norm(b) ** 2, rel=1e-13)


def test_concat_block_product_identity(rand_tensor):
    # [q1, q2] * [b1; b2] = q1*b1 + q2*b2
    q1 = rand_tensor(5, 2, 3, seed=23)
    q2 = rand_tensor(5, 3, 3, seed=24)
    b1 = rand_tensor(2, 4, 3, seed=25)
    b2 = rand_tensor(3, 4, 3, seed=26)
    lhs = tprod(concat_mode2(q1, q2), concat_mode1(b1, b2))
    rhs = tprod(q1, b1) + tprod(q2, b2)
    assert frobenius_norm(lhs - rhs) <= 1e-11 * (1 + frobenius_norm(rhs))


def test_concat_dim_mismatch(rand_tensor):
    with pytest.raises(DimMismatch):
        concat_mode1(rand_tensor(3, 4, 2), rand_tensor(2, 5, 2))
    with pytest.raises(DimMismatch):
        concat_mode2(rand_tensor(3, 4, 2), rand_tensor(2, 5, 2))


# ----------------------------------------------------------------- generator

def test_gaussian_repeatable():
    a = gaussian_tensor(4, 5, 6, RngStream(123, 9))
    b = gaussian_tensor(4, 5, 6, RngStream(123, 9))
    assert np.array_equal(a, b)


def test_gaussian_streams_differ():
    a = gaussian_tensor(4, 5, 6, RngStream(123, 0))
    b = gaussian_tensor(4, 5, 6, RngStream(123, 1))
    assert not np.array_equal(a, b)


def test_gaussian_moments():
    x = gaussian_tensor(100, 100, 10, RngStream(2024))
    assert abs(x.mean()) <= 0.02
    assert abs(x.var() - 1.0) <= 0.05


@pytest.mark.parametrize("make", [lambda: gaussian_tensor(2.5, 3, 4, RngStream(1)),
                                  lambda: gaussian_tensor(2, 3, 4.0, RngStream(1)),
                                  lambda: identity_tensor(2.5, 3),
                                  lambda: identity_tensor(2, 0)],
                         ids=["gaussian-i1", "gaussian-i3", "identity-i1", "identity-zero"])
def test_constructors_refuse_bad_dimensions(make):
    # Non-integer dimensions once leaked numpy's TypeError.
    with pytest.raises(DimMismatch):
        make()


# ------------------------------------------------------------- half spectrum

@pytest.mark.parametrize("i3", [1, 7, 8])
def test_rfft_tubes_matches_numpy_layout(i3, rand_tensor):
    # Library results reach rfft_tubes in every layout: C-ordered from a
    # C-ordered x, slice-major otherwise, F-ordered from load_tns.
    for make in LAYOUTS.values():
        x = make(rand_tensor(11, 5, i3, seed=90))
        want = np.ascontiguousarray(np.moveaxis(np.fft.rfft(x, axis=2), 2, 0))
        h = rfft_tubes(x)
        assert h.flags.c_contiguous and h.shape == want.shape
        assert h.tobytes() == want.tobytes()


def test_irfft_tubes_layout(rand_tensor):
    # By default, and for a like that is not C-contiguous, frontal slices are
    # contiguous C-ordered matrices; gen_synthetic builds its decay cases in
    # this layout.  A C-contiguous like gives a C-ordered result, same values.
    for i3 in (1, 6, 7):
        x = rand_tensor(5, 4, i3, seed=91)
        h = rfft_tubes(x)
        default = irfft_tubes(h, i3)
        for like in (None, np.asfortranarray(x)):
            y = irfft_tubes(h, i3, like=like)
            # The stride of a length-1 axis is arbitrary.
            assert y.shape == (5, 4, i3) and y.strides[:2] == (8 * 4, 8)
            assert i3 == 1 or y.strides[2] == 8 * 5 * 4
            assert y.tobytes() == default.tobytes()
        y = irfft_tubes(h, i3, like=np.ascontiguousarray(x))
        assert y.shape == (5, 4, i3) and y.flags.c_contiguous
        assert y.tobytes() == default.tobytes()


# ------------------------------------------------------------ residual energy

@pytest.mark.parametrize("i3", [1, 2, 6, 7])
def test_residual_energy_matches_time_domain(i3, monkeypatch, rand_tensor):
    i1, i2, rank = 9, 7, 3
    x = rand_tensor(i1, i2, i3, seed=92)
    q = orth(rand_tensor(i1, rank, i3, seed=93))
    b = rand_tensor(rank, i2, i3, seed=94)
    xh, qh, bh = rfft_tubes(x), rfft_tubes(q), rfft_tubes(b)
    inverse = frobenius_norm(x - irfft_tubes(qh @ bh, i3)) ** 2
    oracle = frobenius_norm(x - tprod_oracle(q, b)) ** 2
    whole = residual_energy(xh, qh, bh, i3)
    assert whole == pytest.approx(inverse, rel=1e-13)
    assert whole == pytest.approx(oracle, rel=1e-12)
    # Chunks of two slices, of one slice, and of one slice when a slice exceeds the budget.
    slice_bytes = 16 * i1 * i2
    for budget in (2 * slice_bytes, slice_bytes, 1):
        monkeypatch.setattr(tubal.core, "CHUNK_BYTES", budget)
        assert residual_energy(xh, qh, bh, i3) == pytest.approx(whole, rel=1e-13)


def test_residual_energy_of_zero_tensor(rand_tensor):
    xh = rfft_tubes(np.zeros((6, 5, 4)))
    assert residual_energy(xh, xh[:, :, :0], xh[:, :0, :], 4) == 0.0
    qh = rfft_tubes(orth(rand_tensor(6, 2, 4, seed=95)))
    assert residual_energy(xh, qh, np.zeros((3, 2, 5), dtype=np.complex128), 4) == 0.0


def test_residual_energy_accepts_views(rand_tensor):
    # The adaptive core returns qh and bh as views of larger stacks.
    x = rand_tensor(8, 6, 5, seed=96)
    q = orth(rand_tensor(8, 4, 5, seed=97))
    xh, qh = rfft_tubes(x), rfft_tubes(q)
    bh = np.swapaxes(qh, 1, 2).conj() @ xh
    want = frobenius_norm(x - irfft_tubes(qh[:, :, :3] @ bh[:, :3], 5)) ** 2
    assert residual_energy(xh, qh[:, :, :3], bh[:, :3], 5) == pytest.approx(want, rel=1e-13)


# ------------------------------------------- input validation at the entries

def _config():
    return AdaptiveConfig(epsilon=1e-3, block_size=3, power_iters=1, seed=RngStream(1))


ENTRIES = {
    "adaptive_qb": lambda x: adaptive_qb(x, _config()),
    "run_adaptive": lambda x: run_adaptive(x, _config(), rel=True),
    "run_tsvd": lambda x: run_tsvd(x, 3),
    "run_randomized": lambda x: run_randomized(x, 3, 2, 1, RngStream(1)),
    "randomized_tsvd": lambda x: randomized_tsvd(x, 3, 2, 1, RngStream(1)),
    "truncated_tsvd": lambda x: truncated_tsvd(x, 3),
    "tubal_rank": tubal_rank,
    "t_qr": t_qr,
    "orth": orth,
    "is_orthogonal": lambda x: is_orthogonal(x, 1e-8),
    "transpose": transpose,
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entries_refuse_non_finite_data(entry, bad):
    # Unchecked, a NaN or Inf entry ran adaptive_qb to the rank cap, made
    # tubal_rank return 0 and surfaced elsewhere as numpy's LinAlgError.
    x = gaussian_tensor(20, 15, 7, RngStream(1))
    x[3, 4, 2] = bad
    with pytest.raises(NonFiniteData):
        ENTRIES[entry](x)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entries_refuse_non_3d_data(entry):
    with pytest.raises(DimMismatch):
        ENTRIES[entry](gaussian_tensor(20, 15, 1, RngStream(1))[:, :, 0])


@pytest.mark.parametrize("entry", sorted(ENTRIES) + ["save_tns", "tprod"])
def test_entries_refuse_a_tensor_with_no_frontal_slices(entry, tmp_path):
    # Unchecked, the tube transform leaked numpy's "Invalid number of FFT data
    # points (0)", and save_tns wrote a file that load_tns refused.
    call = {"save_tns": lambda x: save_tns(x, tmp_path / "x.tns"),
            "tprod": lambda x: tprod(x, x)}.get(entry) or ENTRIES[entry]
    with pytest.raises(DimMismatch):
        call(np.zeros((3, 3, 0)))


# numpy warns as the sum of squares overflows; the entry then refuses x.
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("entry", ["adaptive_qb", "run_adaptive", "run_tsvd", "run_randomized",
                                   "randomized_tsvd"])
def test_entries_taking_the_norm_refuse_its_overflow(entry):
    # Unchecked, run_tsvd reported a NaN error for this x.
    x = gaussian_tensor(20, 15, 7, RngStream(1)) * 1e160
    with pytest.raises(NonFiniteData, match="overflows float64"):
        ENTRIES[entry](x)


@pytest.mark.parametrize("entry", ["adaptive_qb", "truncated_tsvd", "tprod", "save_tns",
                                   "frobenius_norm"])
def test_entries_refuse_complex_data(entry, tmp_path):
    # Unchecked, the cast to float64 dropped the imaginary part with only a
    # ComplexWarning, and adaptive_qb answered for the real part;
    # frobenius_norm cast on its own and returned the real part's norm.
    call = {"save_tns": lambda x: save_tns(x, tmp_path / "x.tns"),
            "tprod": lambda x: tprod(x, transpose(x.real)),
            "frobenius_norm": frobenius_norm}.get(entry) or ENTRIES[entry]
    x = gaussian_tensor(6, 5, 4, RngStream(1))
    with pytest.raises(DimMismatch, match="real tensor"):
        call(x + 1j * x)
    assert not (tmp_path / "x.tns").exists()


# The transform of x overflows, and numpy warns; the entry then refuses x.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("entry", ["truncated_tsvd", "tubal_rank", "t_qr", "orth"])
def test_entries_refuse_a_spectrum_that_overflows(entry):
    # Finite entries whose spectrum is not: numpy's SVD raised LinAlgError,
    # and t_qr and orth returned factors with NaN entries.
    with pytest.raises(NonFiniteData, match="spectrum"):
        ENTRIES[entry](np.full((3, 3, 4), 1e308))


def test_is_orthogonal_answers_false_when_the_gram_overflows():
    # The Gram of q overflows: the answer is False, and numpy does not warn.
    assert is_orthogonal(gaussian_tensor(6, 5, 4, RngStream(1)) * 1e300, 1e-8) is False


@pytest.mark.parametrize("call, error", [
    (lambda tmp: decay_profile("hilbert-1", 5, 1), SpecInvalid),
    (lambda tmp: hilbert_tensor(3, 4), SpecInvalid),
    (lambda tmp: gaussian_tensor(0, 2, 2, RngStream(0)), DimMismatch),
    (lambda tmp: gaussian_tensor(2, 2, 2, 7), SpecInvalid),
    (lambda tmp: AdaptiveConfig(1.0, 2, max_rank=0), SpecInvalid),
    (lambda tmp: save_pgm(tmp / "x.pgm", np.zeros((2, 2, 2))), DimMismatch),
    (lambda tmp: load_pgm_stack([]), EmptyDir),
], ids=["decay_profile", "hilbert_tensor", "gaussian_tensor-dims", "gaussian_tensor-rng",
        "AdaptiveConfig-max_rank", "save_pgm", "load_pgm_stack"])
def test_refusals_of_sizes_sources_and_files(call, error, tmp_path):
    with pytest.raises(error):
        call(tmp_path)
    assert not (tmp_path / "x.pgm").exists()
