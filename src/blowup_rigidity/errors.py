"""Exception types shared across the package."""


class BlowupError(Exception):
    """Base class for all package errors."""


class NotPrime(BlowupError):
    """A modulus that must be prime is composite."""


class NDoesNotDivide(BlowupError):
    """The requested root-of-unity order does not divide q - 1."""


class InvalidConfig(BlowupError, ValueError):
    """A construction parameter set violates a structural constraint."""


class ZeroBase(BlowupError):
    """An orbit base coordinate is zero."""


class OrbitCollision(BlowupError):
    """Two base coordinates on one axis lie in the same scaling orbit."""


class TooSmallField(BlowupError):
    """The field does not have enough scaling orbits for the requested counts."""


class ExhaustedRetries(BlowupError):
    """No generic configuration was found within the retry budget."""


class ConfigMismatch(BlowupError):
    """Two lattice classes belong to different configurations."""


class AxisOutOfRange(BlowupError):
    """An axis index is outside 1..r."""


class NotEffective(BlowupError):
    """A curve class is not a nonnegative combination of the generators."""


class UnsoundDecomposition(BlowupError):
    """A cone search produced a decomposition that does not re-sum to its
    target."""


class AmbiguousProfile(BlowupError):
    """Incidence profiles do not pin the components apart."""


class NonGeneric(BlowupError):
    """A per-axis stabilizer is strictly larger than the scaling group."""


class InvalidSetting(BlowupError, ValueError):
    """A run setting is out of range: a draw count below 1, or a sweep case
    given twice."""


class UnknownCheckId(BlowupError):
    """A check record was created with an id missing from the registry."""
