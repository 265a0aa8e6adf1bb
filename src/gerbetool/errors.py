"""Exception types shared across the package.

Every failure mode raised by the library derives from GerbeToolError so
callers (and the CLI) can distinguish domain errors from genuine bugs.
"""


class GerbeToolError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GerbeToolError):
    """Input data violates a structural invariant (non-unitary matrix, ...)."""


class ArgumentError(GerbeToolError):
    """Arguments are individually valid but mutually inconsistent."""


class RangeError(GerbeToolError):
    """A mode, cut, or band leaves the truncation window."""


class CoverViolationError(GerbeToolError):
    """A spectral cut collides with an eigenvalue (cut not in the open cover)."""


class CompositionError(GerbeToolError):
    """Determinant lines with mismatched cuts cannot be composed."""


class ResolutionError(GerbeToolError):
    """Sampling or truncation is too coarse for the requested check."""


class ResourceError(GerbeToolError):
    """The request exceeds the supported desk-scale problem size."""


class PrecisionError(GerbeToolError):
    """A numerical tolerance (series tail, conditioning) cannot be met."""


class ConsistencyError(GerbeToolError):
    """A quantity that must be real (or zero) came out structurally wrong."""


class DimensionError(GerbeToolError):
    """A form that is not top-degree was integrated to a number."""


class CapabilityError(GerbeToolError):
    """Requested object is outside the implemented catalog."""


class ConfigError(GerbeToolError):
    """CLI configuration is malformed; message names the offending key."""
