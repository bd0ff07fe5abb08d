"""The t-product and the orthogonality test.

tprod works in the tube-frequency domain and multiplies only the
leading ceil((I3+1)/2) frontal slices; the trailing slices are conjugate
mirrors of the computed ones, so for real tensors (the only supported kind)
the remaining products are never formed.  This holds for even and odd I3
alike: for even I3 the Nyquist slice lies inside the computed range, so
there is no special case.
"""

import numpy as np

from .core import adjoint, as_tensor3, irfft_tubes, rfft_tubes, row_energies, third_order
from .errors import DimMismatch


def conformable(x, y) -> tuple:
    """(x, y) as third-order float64 tensors if x * y is defined, else DimMismatch."""
    x, y = third_order(x), third_order(y)
    if x.shape[1] != y.shape[0] or x.shape[2] != y.shape[2]:
        raise DimMismatch(f"t-product needs (I1,I2,I3)*(I2,I4,I3), got {x.shape} * {y.shape}")
    return x, y


def tprod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """t-product x * y of an (I1,I2,I3) tensor with an (I2,I4,I3) tensor.

    Each operand must be third-order with I3 >= 1 (core.third_order) and
    the two conformable, else DimMismatch; entries are not scanned.  The
    result is C-ordered if x is, else in irfft_tubes' default layout.
    """
    x, y = conformable(x, y)
    return irfft_tubes(rfft_tubes(x) @ rfft_tubes(y), x.shape[2], like=x)


def is_orthogonal(q: np.ndarray, tol: float) -> bool:
    """Whether q has orthonormal lateral slices: transpose(q) * q = identity.

    For q of shape (I1, R, I3) with R < I1 this is the one-sided check that
    the Q factor of a tubal QR satisfies; the two-sided definition of an
    orthogonal tensor applies only when R = I1.  The norm is taken on the
    half spectrum, where the identity is eye(R) in every slice.  A Gram or
    residual that overflows float64 answers False, without a warning.
    """
    q = as_tensor3(q)
    r, i3 = q.shape[1:]
    qh = rfft_tubes(q)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = adjoint(qh) @ qh - np.eye(r)
        return bool(np.sqrt(row_energies(gram, i3).sum()) <= tol * np.sqrt(r * i3))
