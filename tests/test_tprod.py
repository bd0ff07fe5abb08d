import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from tubal import (
    DimMismatch,
    RngStream,
    frobenius_norm,
    gaussian_tensor,
    identity_tensor,
    is_orthogonal,
    orth,
    tprod,
    transpose,
)
from references import SizeGuard, tprod_oracle

dims = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32)


def test_identity_unit(rand_tensor):
    y = rand_tensor(3, 5, 4, seed=1)
    out = tprod(identity_tensor(3, 4), y)
    assert frobenius_norm(out - y) <= 1e-13 * frobenius_norm(y)


def test_single_slice_is_matrix_product(rand_tensor):
    x = rand_tensor(3, 4, 1, seed=2)
    y = rand_tensor(4, 2, 1, seed=3)
    got = tprod(x, y)[:, :, 0]
    want = x[:, :, 0] @ y[:, :, 0]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_matches_oracle(rand_tensor):
    x = rand_tensor(5, 4, 6, seed=4)
    y = rand_tensor(4, 3, 6, seed=5)
    got = tprod(x, y)
    want = tprod_oracle(x, y)
    assert frobenius_norm(got - want) <= 1e-11 * (1 + frobenius_norm(want))


@settings(deadline=None, max_examples=60)
@given(dims, dims, dims, dims, seeds)
def test_oracle_equivalence(i1, i2, i3, i4, seed):
    x = gaussian_tensor(i1, i2, i3, RngStream(seed, 0))
    y = gaussian_tensor(i2, i4, i3, RngStream(seed, 1))
    gap = frobenius_norm(tprod(x, y) - tprod_oracle(x, y))
    assert gap <= 1e-11 * (1 + frobenius_norm(x) * frobenius_norm(y))


def test_oracle_right_identity(rand_tensor):
    x = rand_tensor(4, 3, 5, seed=6)
    assert_allclose(tprod_oracle(x, identity_tensor(3, 5)), x, atol=1e-12)


def test_oracle_associativity(rand_tensor):
    x = rand_tensor(3, 4, 4, seed=7)
    y = rand_tensor(4, 2, 4, seed=8)
    z = rand_tensor(2, 5, 4, seed=9)
    lhs = tprod_oracle(tprod_oracle(x, y), z)
    rhs = tprod_oracle(x, tprod_oracle(y, z))
    assert frobenius_norm(lhs - rhs) <= 1e-10 * (1 + frobenius_norm(lhs))


def test_oracle_size_guard():
    x = np.zeros((500, 500, 25))
    y = np.zeros((500, 500, 25))
    with pytest.raises(SizeGuard):
        tprod_oracle(x, y)


def test_dim_mismatch(rand_tensor):
    with pytest.raises(DimMismatch):
        tprod(rand_tensor(3, 4, 5), rand_tensor(3, 4, 5))
    with pytest.raises(DimMismatch):
        tprod(rand_tensor(3, 4, 5), rand_tensor(4, 3, 6))


@settings(deadline=None, max_examples=40)
@given(dims, dims, dims, dims, seeds)
def test_bilinearity(i1, i2, i3, i4, seed):
    x = gaussian_tensor(i1, i2, i3, RngStream(seed, 0))
    xp = gaussian_tensor(i1, i2, i3, RngStream(seed, 1))
    y = gaussian_tensor(i2, i4, i3, RngStream(seed, 2))
    a, b = 0.7, -1.3
    lhs = tprod(a * x + b * xp, y)
    rhs = a * tprod(x, y) + b * tprod(xp, y)
    assert frobenius_norm(lhs - rhs) <= 1e-10 * (1 + frobenius_norm(rhs))


def test_orthogonal_product_preserves_norm(rand_tensor):
    q = orth(rand_tensor(12, 5, 4, seed=10))
    b = rand_tensor(5, 7, 4, seed=11)
    assert frobenius_norm(tprod(q, b)) == pytest.approx(frobenius_norm(b), rel=1e-10)


def test_reversal(rand_tensor):
    x = rand_tensor(4, 3, 5, seed=12)
    y = rand_tensor(3, 6, 5, seed=13)
    lhs = transpose(tprod(x, y))
    rhs = tprod(transpose(y), transpose(x))
    assert frobenius_norm(lhs - rhs) <= 1e-10 * (1 + frobenius_norm(lhs))


def test_is_orthogonal_identity():
    assert is_orthogonal(identity_tensor(4, 3), 1e-12)


def test_is_orthogonal_rejects_raw_gaussian(rand_tensor):
    assert not is_orthogonal(rand_tensor(20, 5, 4, seed=14), 1e-8)


def test_is_orthogonal_accepts_orth_output(rand_tensor):
    assert is_orthogonal(orth(rand_tensor(30, 6, 5, seed=15)), 1e-10)


@pytest.mark.parametrize("i3", [1, 4, 5])
@pytest.mark.parametrize("perturbation", [1e-9, 1e-3])
def test_is_orthogonal_norm_matches_time_domain(i3, perturbation, rand_tensor):
    # The verdict flips within 1e-12 of the time-domain norm of q^T * q - I.
    q = orth(rand_tensor(20, 6, i3, seed=16)) + perturbation * rand_tensor(20, 6, i3, seed=17)
    scale = np.sqrt(6 * i3)
    gap = frobenius_norm(tprod(transpose(q), q) - identity_tensor(6, i3))
    assert is_orthogonal(q, (gap + 1e-12) / scale)
    assert not is_orthogonal(q, (gap - 1e-12) / scale)
