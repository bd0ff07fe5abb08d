"""Dense third-order tensors, tube-domain transforms, and elementary tubal algebra.

A third-order tensor is a real float64 ndarray of shape (I1, I2, I3), in
any memory layout.  Linear offsets, and TNS1 files, are first-mode-fastest:
element (i1, i2, i3) sits at linear offset ``i1 + I1*i2 + I1*I2*i3``.  The
tube transform is the unnormalized forward DFT along mode 3 with the 1/I3
factor on the inverse, matching ``fft(x, [], 3)`` / ``ifft(x, [], 3)``
semantics.

Every t-operation runs on the half spectrum, the (K, I1, I2) stack of the
K = I3//2 + 1 leading DFT slices, as batched matrix operations;
rfft_tubes and irfft_tubes are the only conversions to and from it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, ImaginaryResidue, NonFiniteData

# Relative threshold for discarding the imaginary part after an inverse
# tube transform; above it the input did not satisfy conjugate symmetry.
IMAG_RESIDUE_RTOL = 1e-8

# rfft_tubes copies numpy's rfft output into the stack layout in row blocks
# whose spectrum takes at most this many bytes, bounding the transient.
RFFT_BLOCK_BYTES = 16 * 2**20

# residual_energy forms the difference in blocks of at most this many bytes,
# so measuring a residual makes no x-sized temporary.
RESIDUAL_BLOCK_BYTES = 4 * 2**20


def as_tensor3(data) -> np.ndarray:
    """Validate and coerce ``data`` to a well-formed third-order tensor.

    Raises DimMismatch for wrong dimensionality and NonFiniteData if any
    entry is NaN or Inf.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 3:
        raise DimMismatch(f"expected a third-order tensor, got ndim={x.ndim}")
    if not np.isfinite(x).all():
        raise NonFiniteData("tensor contains NaN or Inf entries")
    return x


def dft_tubes(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT applied to every mode-3 fiber.

    Returns a complex tensor of the same shape; slice k equals
    sum_j x[:, :, j] * exp(-2i*pi*j*k/I3).
    """
    return np.fft.fft(np.asarray(x, dtype=np.float64), axis=2)


def idft_tubes(xhat: np.ndarray) -> np.ndarray:
    """Inverse tube transform (1/I3 normalization), asserting the result is real.

    Raises ImaginaryResidue when max |imag| exceeds
    IMAG_RESIDUE_RTOL * (1 + max |real|), which signals the input did not
    have the conjugate symmetry of a transformed real tensor.
    """
    c = np.fft.ifft(np.asarray(xhat, dtype=np.complex128), axis=2)
    if c.size:
        bound = IMAG_RESIDUE_RTOL * (1.0 + np.abs(c.real).max())
        worst = np.abs(c.imag).max()
        if worst > bound:
            raise ImaginaryResidue(
                f"imaginary residue {worst:.3e} exceeds {bound:.3e}; "
                "input is not conjugate symmetric"
            )
    return c.real.copy()


def num_head_slices(i3: int) -> int:
    """Number of leading tube-frequency slices that determine the rest: ceil((I3+1)/2)."""
    return i3 // 2 + 1


def rfft_tubes(x: np.ndarray) -> np.ndarray:
    """Half spectrum of a real (I1, I2, I3) tensor: the (K, I1, I2) stack of DFT slices 0..K-1.

    The other I3 - K slices are conjugate mirrors.  Slices are C-ordered
    matrices, so slice products go straight to BLAS.  A half spectrum
    larger than RFFT_BLOCK_BYTES is transformed and copied in blocks of
    rows, so the transient beside the result stays within that budget.
    """
    x = np.asarray(x, dtype=np.float64)
    i1, i2, i3 = x.shape
    rows = max(RFFT_BLOCK_BYTES // max(16 * (i3 // 2 + 1) * i2, 1), 1)
    h = np.empty((i3 // 2 + 1, i1, i2), dtype=np.complex128)
    for r in range(0, i1, rows):
        h[:, r:r + rows] = np.moveaxis(np.fft.rfft(x[r:r + rows], axis=2), 2, 0)
    return h


def irfft_tubes(h: np.ndarray, i3: int) -> np.ndarray:
    """Real (I1, I2, I3) tensor whose half spectrum is the (K, I1, I2) stack h.

    The result's frontal slices are contiguous C-ordered matrices: strides
    (8*I2, 8, 8*I1*I2).
    """
    return np.fft.irfft(np.moveaxis(h, 0, 2), n=i3, axis=2)


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


def residual_energy(xh: np.ndarray, qh: np.ndarray, bh: np.ndarray, i3: int) -> float:
    """Squared Frobenius norm of irfft_tubes(xh - qh @ bh, i3), by Parseval.

    The difference is formed in blocks of whole slices, or of rows of one
    slice when a slice alone is larger than RESIDUAL_BLOCK_BYTES, and is
    subtracted into the block's product in place.
    """
    k, i1, i2 = xh.shape
    w = _parseval_weights(k, i3)
    slices = max(RESIDUAL_BLOCK_BYTES // max(16 * i1 * i2, 1), 1)
    rows = max(RESIDUAL_BLOCK_BYTES // max(16 * i2, 1), 1)
    total = 0.0
    for s in range(0, k, slices):
        for r in range(0, i1, rows):
            d = qh[s:s + slices, r:r + rows] @ bh[s:s + slices]
            np.subtract(xh[s:s + slices, r:r + rows], d, out=d)
            v = d.reshape(d.shape[0], -1).view(np.float64)
            total += float(w[s:s + slices] @ np.einsum("ij,ij->i", v, v))
    return total


def adjoint(h: np.ndarray) -> np.ndarray:
    """Slice-wise conjugate transpose of a spectral stack: the spectrum of transpose(x)."""
    return h.conj().transpose(0, 2, 1)


def transpose(x: np.ndarray) -> np.ndarray:
    """Tensor transpose: transpose every frontal slice and reverse slices 2..I3."""
    xt = np.asarray(x).transpose(1, 0, 2)
    if xt.shape[2] <= 1:
        return xt.copy()
    return np.concatenate([xt[:, :, :1], xt[:, :, :0:-1]], axis=2)


def identity_tensor(i1: int, i3: int) -> np.ndarray:
    """Identity under the t-product: first frontal slice eye(i1), the rest zero."""
    if i1 < 1 or i3 < 1:
        raise DimMismatch("identity tensor dimensions must be >= 1")
    e = np.zeros((i1, i1, i3))
    e[:, :, 0] = np.eye(i1)
    return e


def frobenius_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x)))


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


def _resolve_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def gaussian_matrix(rows: int, cols: int, rng) -> np.ndarray:
    """I.i.d. standard normal matrix, entries drawn column by column.

    The draw order matches the linear-offset order of gaussian_tensor so a
    matrix consumes the stream exactly like the equivalent I3=1 tensor.
    """
    gen = _resolve_generator(rng)
    return gen.standard_normal(rows * cols).reshape((rows, cols), order="F")


def gaussian_tensor(i1: int, i2: int, i3: int, rng) -> np.ndarray:
    """I.i.d. standard normal tensor, entries drawn in linear-offset order."""
    if min(i1, i2, i3) < 1:
        raise DimMismatch("gaussian tensor dimensions must be >= 1")
    gen = _resolve_generator(rng)
    return gen.standard_normal(i1 * i2 * i3).reshape((i1, i2, i3), order="F")
