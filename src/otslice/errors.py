"""Exception hierarchy shared by all otslice modules."""


class OTSliceError(Exception):
    """Base class for every error raised by this library."""


class EmptySupport(OTSliceError):
    """A measure needs at least one support point."""


class NegativeWeight(OTSliceError):
    """Weights must be nonnegative."""


class NonFiniteCoordinates(OTSliceError):
    """Support points must have finite coordinates."""


class DimensionMismatch(OTSliceError):
    """Operands live in incompatible ambient dimensions."""


class InvalidOrder(OTSliceError):
    """The order p of a distance must be finite and satisfy p >= 1."""


class InvalidSpec(OTSliceError):
    """A generator spec is internally inconsistent or not sampleable."""


class ArgumentOutOfRange(OTSliceError):
    """A scalar argument lies outside its admissible interval."""


class WeightSumOutOfRange(ArgumentOutOfRange):
    """Weights of a measure, 1D or not, must sum to 1 within ``WEIGHT_SUM_TOL``; NaN fails."""


class InvalidDimension(OTSliceError):
    """An ambient dimension argument is out of range."""


class UnsupportedDimension(OTSliceError):
    """The requested operation is not implemented for this dimension."""


class ProblemTooLarge(OTSliceError):
    """The dense transport problem exceeds the size guard."""


class SolverFailure(OTSliceError):
    """The transport solver could not certify an optimal basic solution."""


class DegenerateInstance(OTSliceError):
    """An instance is too degenerate for the requested statistic."""
