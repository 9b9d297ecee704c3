"""Exception types shared across the package."""


class PhasebeamError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(PhasebeamError, ValueError):
    """Requested Fock-space dimension is not representable (two_s < 1)."""


class InvalidStructureError(PhasebeamError, ValueError):
    """A level/spacing table violates the algebra constraints."""


class NonPositiveLevelError(InvalidStructureError):
    """An interior energy level is zero or negative; square roots of the
    levels enter the ladder operators, so positivity is mandatory."""


class TraceNotZeroError(InvalidStructureError):
    """Level spacings do not sum to zero, so the cyclic truncation fails."""


class MissingKappaError(PhasebeamError, ValueError):
    """A deformation parameter was required but not supplied."""


class DimensionMismatchError(PhasebeamError, ValueError):
    """Operands live in Fock spaces of different dimensions."""


class NotNormalizedError(PhasebeamError, ValueError):
    """A state vector expected to have unit norm does not."""


class InvalidDensityError(PhasebeamError, ValueError):
    """Matrix fails the density-matrix invariants (Hermiticity, unit trace,
    positive semidefiniteness)."""


class NumericalConsistencyError(PhasebeamError, ArithmeticError):
    """A computed quantity violates a bound it must satisfy exactly; the
    result would be meaningless, so it is refused instead of clamped."""


class UsageError(PhasebeamError, ValueError):
    """Malformed command line input."""


class RangeError(UsageError):
    """A command line value parses but lies outside its allowed range."""
