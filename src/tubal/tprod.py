"""The t-product, its dense block-circulant oracle, and the orthogonality test.

The production path works in the tube-frequency domain and multiplies only
the leading ceil((I3+1)/2) frontal slices; the trailing slices are conjugate
mirrors of the computed ones, so for real tensors (the only supported kind)
the remaining products are never formed.  This holds for even and odd I3
alike: for even I3 the Nyquist slice lies inside the computed range, so
there is no special case.
"""

import numpy as np

from .core import (
    frobenius_norm,
    identity_tensor,
    irfft_tubes,
    rfft_tubes,
    transpose,
)
from .errors import DimMismatch, SizeGuard

# Largest block-circulant matrix (in scalars) tprod_oracle will materialize.
ORACLE_SCALAR_CAP = 10**8


def _check_conformable(x: np.ndarray, y: np.ndarray) -> None:
    if x.ndim != 3 or y.ndim != 3:
        raise DimMismatch("t-product operands must be third-order tensors")
    if x.shape[1] != y.shape[0] or x.shape[2] != y.shape[2]:
        raise DimMismatch(
            f"t-product needs (I1,I2,I3)*(I2,I4,I3), got {x.shape} * {y.shape}"
        )


def tprod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """t-product x * y of an (I1,I2,I3) tensor with an (I2,I4,I3) tensor."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_conformable(x, y)
    return irfft_tubes(rfft_tubes(x) @ rfft_tubes(y), x.shape[2])


def tprod_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference t-product: fold(circ(x) @ unfold(y)), materialized densely.

    Intended for small tensors and tests only; raises SizeGuard when the
    circulant would exceed ORACLE_SCALAR_CAP scalars.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_conformable(x, y)
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


def is_orthogonal(q: np.ndarray, tol: float) -> bool:
    """Whether q has orthonormal lateral slices: transpose(q) * q = identity.

    For q of shape (I1, R, I3) with R < I1 this is the one-sided check that
    the Q factor of a tubal QR satisfies; the two-sided definition of an
    orthogonal tensor applies only when R = I1.
    """
    q = np.asarray(q, dtype=np.float64)
    r, i3 = q.shape[1], q.shape[2]
    gram = tprod(transpose(q), q) - identity_tensor(r, i3)
    return frobenius_norm(gram) <= tol * np.sqrt(r * i3)
