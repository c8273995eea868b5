"""Exception hierarchy shared by all modules.

Errors split into two families: precondition/validation failures
(``InputError``) and numerical failures on valid input (``NumericalError``);
the oracles already climb their own precision ladder and every run is
deterministic, so a retry fails again.  The CLI maps these to exit codes 2
and 3.
"""


class CycleIntegralsError(Exception):
    """Base class for all library errors."""


class InputError(CycleIntegralsError):
    """A precondition or validation failure; retrying will not help."""


class NumericalError(CycleIntegralsError):
    """A numerical failure on valid input; the same call fails again."""


# -- poly ------------------------------------------------------------------

class ZeroPolynomial(InputError):
    pass


class DivisionByZeroPolynomial(InputError):
    pass


class NonConvergence(NumericalError):
    """Root finder failed to converge within the iteration budget."""


# -- cycles ----------------------------------------------------------------

class InvalidCycle(InputError):
    """Weights violate the zero-sum condition or are all zero."""


class FiberTooLarge(InputError):
    """Fiber size exceeds the exhaustive-enumeration cap."""


class DomainError(InputError):
    pass


class GenericCycleNotFound(InputError):
    """Rejection sampling exhausted its retry budget."""


class LengthMismatch(InputError):
    """A cycle's length does not match the fiber it is laid on."""


# -- tracking --------------------------------------------------------------

class NearCriticalValue(InputError):
    """Requested fiber lies inside the exclusion disk of a critical value."""


class PathThroughCriticalDisk(InputError):
    pass


class MatchingAmbiguous(NumericalError):
    """Continuation step size underflowed without a certified matching."""


# -- melnikov --------------------------------------------------------------

class IdentityViolation(NumericalError):
    """The exact displacement identity failed beyond tolerance."""


class FitRejected(NumericalError):
    """No rung of the precision ladder gave an acceptable oracle fit: the
    residual stayed above tolerance, a double fit fell short of the declared
    degree, a zero's first-order ring ratio exceeded root_verify, or a
    sign-symmetric product kept a regular zero cluster of odd size."""


class SingularDesignSystem(NumericalError):
    """Design targets made the interpolation system singular."""


class IdenticallyZeroIntegral(InputError):
    """The oracle's branch product vanishes identically (g reduces to zero,
    or a factor vanishes at every sample); the count is undefined."""


# -- counting --------------------------------------------------------------


class BranchMatchingAmbiguous(NumericalError):
    """A displacement zero could not be continued in epsilon to a limit.

    Raised when the zero lies on no certified branch factor, or when its
    continuation toward epsilon = 0 stalls before it reaches a tangential
    zero, a critical value or the divergence horizon.
    """


# -- cli -------------------------------------------------------------------

class MalformedReport(InputError):
    pass
