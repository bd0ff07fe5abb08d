import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import tubal.core
from tubal import (
    DimMismatch,
    ImaginaryResidue,
    RngStream,
    concat_mode1,
    concat_mode2,
    dft_tubes,
    frobenius_norm,
    gaussian_tensor,
    identity_tensor,
    idft_tubes,
    orth,
    tprod,
    tprod_oracle,
    transpose,
)
from tubal.core import irfft_tubes, num_head_slices, residual_energy, rfft_tubes
from conftest import naive_dft_tubes

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
    assert num_head_slices(i3) == (i3 + 2) // 2
    for k in range(num_head_slices(i3), i3):
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


# ------------------------------------------------------------- half spectrum

@pytest.mark.parametrize("i3", [7, 8])
def test_rfft_tubes_row_blocks_bit_identical(i3, monkeypatch, rand_tensor):
    x = np.asfortranarray(rand_tensor(11, 5, i3, seed=90))
    whole = np.ascontiguousarray(np.moveaxis(np.fft.rfft(x, axis=2), 2, 0))
    row_bytes = 16 * (i3 // 2 + 1) * 5
    for budget in (row_bytes * 11, row_bytes * 4, row_bytes, 1):
        monkeypatch.setattr(tubal.core, "RFFT_BLOCK_BYTES", budget)
        h = rfft_tubes(x)
        assert h.flags.c_contiguous and h.shape == whole.shape
        assert h.tobytes() == whole.tobytes()


def test_irfft_tubes_layout(rand_tensor):
    # Frontal slices are contiguous C-ordered matrices; gen_synthetic builds
    # its decay cases in this layout.
    x = irfft_tubes(rfft_tubes(rand_tensor(5, 4, 7, seed=91)), 7)
    assert x.shape == (5, 4, 7) and x.strides == (8 * 4, 8, 8 * 5 * 4)


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
    # Blocks of two slices, of one slice, of two rows of a slice, of one row.
    slice_bytes = 16 * i1 * i2
    for budget in (2 * slice_bytes, slice_bytes, 32 * i2, 1):
        monkeypatch.setattr(tubal.core, "RESIDUAL_BLOCK_BYTES", budget)
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
