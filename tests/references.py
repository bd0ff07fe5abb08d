"""Dense reference implementations that the tests compare the library against.

None of these runs on a library path.  They are deliberately the slow,
obvious constructions: the full-spectrum tube DFT pair, the block-circulant
t-product, and the blocked matrix randQB (Yu, Gu & Li, SIMAX 2018) that the
adaptive tensor algorithm degenerates to at I3 = 1.
"""

import numpy as np

from tubal import DimMismatch, RngStream, TubalError, gaussian_tensor

# Relative threshold for discarding the imaginary part after an inverse
# tube transform; above it the input did not satisfy conjugate symmetry.
IMAG_RESIDUE_RTOL = 1e-8

# Largest block-circulant matrix (in scalars) tprod_oracle will materialize.
ORACLE_SCALAR_CAP = 10**8


class ImaginaryResidue(TubalError, ValueError):
    """Inverse tube transform left a non-negligible imaginary part."""


class SizeGuard(TubalError, ValueError):
    """Requested dense materialization exceeds the safety cap."""


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


def tprod_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference t-product: fold(circ(x) @ unfold(y)), materialized densely.

    Raises SizeGuard when the circulant would exceed ORACLE_SCALAR_CAP
    scalars.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 3 or y.ndim != 3:
        raise DimMismatch("t-product operands must be third-order tensors")
    if x.shape[1] != y.shape[0] or x.shape[2] != y.shape[2]:
        raise DimMismatch(f"t-product needs (I1,I2,I3)*(I2,I4,I3), got {x.shape} * {y.shape}")
    i1, i2, i3 = x.shape
    i4 = y.shape[1]
    if i1 * i3 * i2 * i3 > ORACLE_SCALAR_CAP:
        raise SizeGuard(
            f"circ() would hold {i1 * i3 * i2 * i3} scalars "
            f"(cap {ORACLE_SCALAR_CAP}); use tprod instead"
        )
    circ = np.zeros((i1 * i3, i2 * i3))
    for r in range(i3):
        for c in range(i3):
            circ[r * i1:(r + 1) * i1, c * i2:(c + 1) * i2] = x[:, :, (r - c) % i3]
    unfolded = y.transpose(2, 0, 1).reshape(i2 * i3, i4)
    prod = circ @ unfolded
    return prod.reshape(i3, i1, i4).transpose(1, 2, 0)


def gaussian_matrix(rows: int, cols: int, rng) -> np.ndarray:
    """I.i.d. standard normal matrix, entries drawn column by column.

    It consumes the stream exactly like gaussian_tensor(rows, cols, 1).
    """
    return gaussian_tensor(rows, cols, 1, rng)[:, :, 0]


def _orth_cols(a: np.ndarray) -> np.ndarray:
    return np.linalg.qr(a)[0]


def blocked_randqb_matrix(a: np.ndarray, epsilon: float, block_size: int,
                          power_iters: int, rng):
    """Blocked randQB on a plain matrix with explicit residual deflation.

    Returns (q, b, rank).  Unlike the tensor algorithm this keeps the
    residual x explicitly, deflates it after every block, and stops when
    ||x||_F <= epsilon; the tensor algorithm must agree with it at I3 = 1.
    Power iterations here multiply by the current residual, as the tensor
    algorithm's block step does, so the two agree at every power_iters.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    x = a.copy()
    q_acc = np.zeros((m, 0))
    b_acc = np.zeros((0, n))
    while q_acc.shape[1] < min(m, n):
        omega = gaussian_matrix(n, min(block_size, min(m, n) - q_acc.shape[1]), gen)
        q_i = _orth_cols(x @ omega)
        for _ in range(power_iters):
            q_i = _orth_cols(x.T @ q_i)
            q_i = _orth_cols(x @ q_i)
        if q_acc.shape[1]:
            q_i = _orth_cols(q_i - q_acc @ (q_acc.T @ q_i))
        b_i = q_i.T @ x
        x = x - q_i @ b_i
        q_acc = np.hstack([q_acc, q_i])
        b_acc = np.vstack([b_acc, b_i])
        if np.linalg.norm(x) <= epsilon:
            break
    return q_acc, b_acc, q_acc.shape[1]
