import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import tubal.core
from tubal import RngStream, gaussian_tensor

# Every run draws the same examples and keeps no example database.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # hypothesis still caches the constants of local source files; a
    # temporary home, removed at the end of the session, keeps that cache
    # out of the checkout.
    home = tempfile.TemporaryDirectory(prefix="tubal-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture
def rand_tensor():
    def make(i1, i2, i3, seed=0):
        return gaussian_tensor(i1, i2, i3, RngStream(seed))
    return make


@pytest.fixture
def blas_threads():
    """Setter of numpy's OpenBLAS thread count for the test, which restores the old count.

    The test is skipped if the count cannot be set: numpy has no OpenBLAS
    that core found.
    """
    get, put = tubal.core._BLAS_THREADS
    old = get()

    def set_threads(n):
        put(n)
        if get() != n:
            pytest.skip("no OpenBLAS whose thread count core can set")
    yield set_threads
    put(old)


def naive_dft_tubes(x: np.ndarray) -> np.ndarray:
    """O(I3^2) summation DFT along tubes, independent of any FFT library."""
    x = np.asarray(x, dtype=np.float64)
    i3 = x.shape[2]
    out = np.zeros(x.shape, dtype=np.complex128)
    for k in range(i3):
        for j in range(i3):
            out[:, :, k] += x[:, :, j] * np.exp(-2j * np.pi * j * k / i3)
    return out


def slice_major(x: np.ndarray) -> np.ndarray:
    """x with contiguous C-ordered frontal slices: strides (8*I2, 8, 8*I1*I2)."""
    return np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)


# The memory layouts a tensor reaches the library in: C-ordered (contiguous
# tubes), Fortran-ordered (load_tns) and slice-major (irfft_tubes' default).
LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray, "slice-major": slice_major}
