"""Dense third-order tensors, the half-spectrum tube transform, and elementary tubal algebra.

A third-order tensor is a real float64 ndarray of shape (I1, I2, I3), in
any memory layout.  Linear offsets, and TNS1 files, are first-mode-fastest:
element (i1, i2, i3) sits at linear offset ``i1 + I1*i2 + I1*I2*i3``.  The
tube transform is the unnormalized forward DFT along mode 3 with the 1/I3
factor on the inverse, matching ``fft(x, [], 3)`` / ``ifft(x, [], 3)``
semantics.

Every t-operation runs on the half spectrum, the (K, I1, I2) stack of the
K = I3//2 + 1 leading DFT slices, as batched matrix operations;
rfft_tubes and irfft_tubes are the only conversions to and from it.

map_chunks walks per-slice work over slice_chunks; its docstring owns the walk's rules.

concat_mode1 and concat_mode2 have no caller in the library and the package
does not export them; they stay public here because the benchmark's
per-layer metrics in BENCHMARK.json name them.
"""

import ctypes
import glob
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NonFiniteData, SpecInvalid

# The passes over an x-sized spectrum (residual_energy, decomp.svd_spectral)
# take it in chunks of whole slices of at most this many bytes, or of one
# slice if a slice is larger, so their temporaries stay x-independent.  Kept
# small: with 8 MiB chunks of a 200^3 cube's spectrum, glibc kept 60 MB of
# freed chunk memory resident in the heap after the t-SVD returned.
CHUNK_BYTES = 2 * 2**20


def third_order(data) -> np.ndarray:
    """data as float64 if it is real and third-order with I3 >= 1 (a length-0 tube has no DFT)."""
    x = np.asarray(data)
    if x.dtype.kind == "c":
        raise DimMismatch(f"expected a real tensor, got dtype {x.dtype}")
    x = x.astype(np.float64, copy=False)
    if x.ndim != 3:
        raise DimMismatch(f"expected a third-order tensor, got ndim={x.ndim}")
    if x.shape[2] == 0:
        raise DimMismatch(f"expected at least one frontal slice, got shape {x.shape}")
    return x


def as_tensor3(data) -> np.ndarray:
    """Validate and coerce ``data`` to a well-formed third-order tensor.

    Raises DimMismatch for wrong dimensionality or no frontal slice (I3 = 0)
    and NonFiniteData if any entry is NaN or Inf.  The loaders and every
    operation on x that needs no ||x||_F call this; the entries that take
    the norm go through checked.
    """
    x = third_order(data)
    if not np.isfinite(x).all():
        raise NonFiniteData("tensor contains NaN or Inf entries")
    return x


def checked(data, check) -> tuple:
    """(x, ||x||_F) for the entries that take the norm: x as float64, norm taken once.

    A non-third-order x, or one with I3 = 0, raises DimMismatch and a
    non-finite norm (from a NaN or Inf entry, or overflow) NonFiniteData;
    the entries are not scanned.
    Then check(I1, I2), the caller's rank rule, runs: all before x is transformed.
    """
    x = third_order(data)
    norm = frobenius_norm(x)
    if not np.isfinite(norm):
        raise NonFiniteData("tensor has NaN or Inf entries, or its norm overflows float64")
    check(*x.shape[:2])
    return x, norm


def as_index(value, what: str, error: type = SpecInvalid) -> int:
    """value as an int if operator.index accepts it (numpy integers do), else raise error."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def rfft_tubes(x: np.ndarray) -> np.ndarray:
    """Half spectrum of a real (I1, I2, I3) tensor: the (K, I1, I2) stack of DFT slices 0..K-1.

    The other I3 - K slices are conjugate mirrors.  Slices are C-ordered
    matrices, so slice products go straight to BLAS.  numpy writes the
    spectrum straight into the stack, so the transform allocates nothing
    beside its result.
    """
    x = np.asarray(x, dtype=np.float64)
    i1, i2, i3 = x.shape
    h = np.empty((i3 // 2 + 1, i1, i2), dtype=np.complex128)
    np.fft.rfft(x, axis=2, out=np.moveaxis(h, 0, 2))
    return h


def irfft_tubes(h: np.ndarray, i3: int, like=None) -> np.ndarray:
    """Real (I1, I2, I3) tensor whose half spectrum is the (K, I1, I2) stack h.

    like is the tensor the result derives from, and picks its memory order:
    if like is C-contiguous the result is C-ordered (contiguous tubes), as
    x - y and the tube transforms are slow across mismatched strides.  By
    default, and for any other like, the result's frontal slices are
    contiguous C-ordered matrices: strides (8*I2, 8, 8*I1*I2).  The values
    are the same bit for bit either way.
    """
    tubes = np.moveaxis(h, 0, 2)
    if like is None or not np.asarray(like).flags.c_contiguous:
        return np.fft.irfft(tubes, n=i3, axis=2)
    return np.fft.irfft(tubes, n=i3, axis=2, out=np.empty(tubes.shape[:2] + (i3,)))


def _parseval_weights(k: int, i3: int) -> np.ndarray:
    """Weight of each of the k half-spectrum slices in a squared Frobenius norm.

    Slice k weighs 2/I3, for itself and its mirror, except the DC slice
    and (for even I3) the Nyquist slice, which are their own mirrors: 1/I3.
    """
    w = np.full(k, 2.0 / i3)
    w[0] = 1.0 / i3
    if i3 % 2 == 0:
        w[-1] = 1.0 / i3
    return w


def row_energies(h: np.ndarray, i3: int) -> np.ndarray:
    """Squared Frobenius norm of each horizontal slice of irfft_tubes(h, i3), by Parseval."""
    return _parseval_weights(h.shape[0], i3) @ (h.real ** 2 + h.imag ** 2).sum(axis=2)


def slice_chunks(h: np.ndarray):
    """Consecutive chunks of whole slices of h: at most CHUNK_BYTES of h, or one slice."""
    step = max(CHUNK_BYTES // max(h[0].nbytes, 1), 1)
    return (slice(a, a + step) for a in range(0, h.shape[0], step))


def _openblas_threads():
    """(get, set) of numpy's bundled OpenBLAS thread count; without one, get gives 1."""
    libs = glob.glob(np.__path__[0] + ".libs/libscipy_openblas64_*.so")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas" or len(libs) != 1:
        return (lambda: 1), (lambda n: None)
    lib = ctypes.CDLL(libs[0])
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_BLAS_THREADS = _openblas_threads()


def map_chunks(fn, h: np.ndarray) -> list:
    """[fn(c) for c in slice_chunks(h)] on w = min(BLAS threads, chunks) workers.

    The walk is for per-slice work that numpy runs one slice at a time
    (decomp.svd_spectral's eigh, the randomized block step's products and
    QR), which gains nothing from a second BLAS thread.  One worker is a
    plain loop on the calling thread, which leaves the BLAS count alone.  For
    w >= 2, worker 0 is the calling thread, the rest a pool made for the call,
    worker i takes chunks i, i + w, ..., and OpenBLAS runs at one thread until
    the walk restores the count it read; so a walk of two or more chunks gives
    one BLAS thread's result, and a walk inside another's reads 1, runs as a
    loop and sets nothing.  fn must be thread-safe and call no public tubal
    function, which a tracer may wrap.
    """
    get, put = _BLAS_THREADS
    chunks = list(slice_chunks(h))
    old = get()
    w = min(old, len(chunks))
    if w < 2:
        return [fn(c) for c in chunks]
    out = [None] * len(chunks)

    def work(i):
        for j in range(i, len(chunks), w):
            out[j] = fn(chunks[j])

    put(1)
    try:
        with ThreadPoolExecutor(w - 1) as pool:
            rest = pool.map(work, range(1, w))
            work(0)
            list(rest)  # raises what a pool worker raised
    finally:
        put(old)
    return out


def residual_energy(xh: np.ndarray, qh: np.ndarray, bh: np.ndarray, i3: int) -> float:
    """Squared Frobenius norm of irfft_tubes(xh - qh @ bh, i3), by Parseval.

    The difference is formed in the slice_chunks of xh, each subtracted
    into its chunk's product in place, so the temporaries hold at most
    max(CHUNK_BYTES, one slice of xh).
    """
    w = _parseval_weights(xh.shape[0], i3)
    total = 0.0
    for c in slice_chunks(xh):
        d = qh[c] @ bh[c]
        np.subtract(xh[c], d, out=d)
        v = d.reshape(d.shape[0], -1).view(np.float64)
        total += float(w[c] @ np.einsum("ij,ij->i", v, v))
        del d, v  # before the next chunk's product is made
    return total


def adjoint(h: np.ndarray) -> np.ndarray:
    """Slice-wise conjugate transpose of a spectral stack: the spectrum of transpose(x)."""
    return h.conj().transpose(0, 2, 1)


def transpose(x: np.ndarray) -> np.ndarray:
    """Tensor transpose: transpose every frontal slice and reverse slices 2..I3."""
    xt = as_tensor3(x).transpose(1, 0, 2)
    return np.concatenate([xt[:, :, :1], xt[:, :, :0:-1]], axis=2)


def identity_tensor(i1: int, i3: int) -> np.ndarray:
    """Identity under the t-product: first frontal slice eye(i1), the rest zero."""
    i1, i3 = (as_index(d, "dimension", DimMismatch) for d in (i1, i3))
    if i1 < 1 or i3 < 1:
        raise DimMismatch("identity tensor dimensions must be >= 1")
    e = np.zeros((i1, i1, i3))
    e[:, :, 0] = np.eye(i1)
    return e


def frobenius_norm(x: np.ndarray) -> float:
    """||third_order(x)||_F by einsum's fixed-order loop, the same at any BLAS thread count."""
    v = np.ravel(third_order(x), "K")
    return float(np.sqrt(np.einsum("i,i->", v, v)))


def concat_mode1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack two tensors along the first mode; modes 2 and 3 must agree."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[1:] != b.shape[1:]:
        raise DimMismatch(f"mode-1 concat needs matching (I2, I3), got {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=0)


def concat_mode2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack two tensors along the second mode; modes 1 and 3 must agree."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise DimMismatch(f"mode-2 concat needs matching (I1, I3), got {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


@dataclass(frozen=True)
class RngStream:
    """Reproducible random source: a (seed, stream) pair on a counter-based generator.

    Identical (seed, stream) pairs replay identical variate sequences on
    any machine and thread count.  Backed by Philox (counter-based, keyed
    by the pair); normal variates come from numpy's ziggurat sampler.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2**64, self.stream % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def check_seed(seed) -> None:
    """Refuse a seed that is not an RngStream with SpecInvalid."""
    if not isinstance(seed, RngStream):
        raise SpecInvalid(f"seed must be an RngStream, got {seed!r}")


def gaussian_tensor(i1: int, i2: int, i3: int, rng) -> np.ndarray:
    """I.i.d. standard normal tensor, entries drawn in linear-offset order."""
    i1, i2, i3 = (as_index(d, "dimension", DimMismatch) for d in (i1, i2, i3))
    if min(i1, i2, i3) < 1:
        raise DimMismatch("gaussian tensor dimensions must be >= 1")
    if isinstance(rng, RngStream):
        rng = rng.generator()
    elif not isinstance(rng, np.random.Generator):
        raise SpecInvalid(f"rng must be an RngStream or a numpy Generator, got {rng!r}")
    return rng.standard_normal(i1 * i2 * i3).reshape((i1, i2, i3), order="F")
