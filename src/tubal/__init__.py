"""Third-order tensor algebra under the t-product, with deterministic and
randomized low tubal-rank approximation and a benchmark CLI."""

from .bench import (
    RunReport,
    SyntheticSpec,
    gen_synthetic,
    hilbert_tensor,
    run_adaptive,
    run_randomized,
    run_tsvd,
)
from .core import (
    RngStream,
    as_tensor3,
    frobenius_norm,
    gaussian_tensor,
    identity_tensor,
    transpose,
)
from .decomp import TSVDFactors, orth, reconstruct, t_qr, truncated_tsvd, tubal_rank
from .errors import (
    BadHeader,
    BadMagic,
    DegenerateInput,
    DimMismatch,
    DimOverflow,
    EmptyDir,
    InconsistentDims,
    NonFiniteData,
    RankOutOfRange,
    SpecInvalid,
    TruncatedFile,
    TubalError,
)
from .randomized import (
    AdaptiveConfig,
    QBApprox,
    SpectralQB,
    adaptive_qb,
    qb_to_tsvd,
    randomized_tsvd,
)
from .tio import load_pgm_stack, load_tns, save_pgm_stack, save_tns
from .tprod import is_orthogonal, tprod

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "BadHeader",
    "BadMagic",
    "DegenerateInput",
    "DimMismatch",
    "DimOverflow",
    "EmptyDir",
    "InconsistentDims",
    "NonFiniteData",
    "QBApprox",
    "RankOutOfRange",
    "RngStream",
    "RunReport",
    "SpecInvalid",
    "SpectralQB",
    "SyntheticSpec",
    "TSVDFactors",
    "TruncatedFile",
    "TubalError",
    "adaptive_qb",
    "as_tensor3",
    "frobenius_norm",
    "gaussian_tensor",
    "gen_synthetic",
    "hilbert_tensor",
    "identity_tensor",
    "is_orthogonal",
    "load_pgm_stack",
    "load_tns",
    "orth",
    "qb_to_tsvd",
    "randomized_tsvd",
    "reconstruct",
    "run_adaptive",
    "run_randomized",
    "run_tsvd",
    "save_pgm_stack",
    "save_tns",
    "t_qr",
    "tprod",
    "transpose",
    "truncated_tsvd",
    "tubal_rank",
]
