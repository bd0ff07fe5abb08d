"""Exception types raised across the library."""


class TubalError(Exception):
    """Base class for all library-specific errors."""


class DimMismatch(TubalError, ValueError):
    """Operand dimensions do not conform."""


class RankOutOfRange(TubalError, ValueError):
    """Requested truncation rank is not in [1, min(I1, I2)] or exceeds what is available."""


class DegenerateInput(TubalError, ValueError):
    """Input is numerically zero where a basis was requested."""


class SpecInvalid(TubalError, ValueError):
    """A synthetic problem description or an algorithm configuration violates its constraints."""


class NonFiniteData(TubalError, ValueError):
    """Tensor read from disk or generated contains NaN or Inf entries."""


class BadMagic(TubalError, ValueError):
    """File does not start with the TNS1 magic bytes."""


class TruncatedFile(TubalError, ValueError):
    """File payload does not match the size announced in its header."""


class DimOverflow(TubalError, ValueError):
    """Header dimensions are zero or too large to be trusted."""


class BadHeader(TubalError, ValueError):
    """Image file header is malformed or unsupported."""


class InconsistentDims(TubalError, ValueError):
    """Images in a stack do not all share the same dimensions."""


class EmptyDir(TubalError, ValueError):
    """No loadable images were found in the given directory."""
