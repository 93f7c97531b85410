"""Exception types shared across the package.

Every math-level failure raises a subclass of CorrdynError so the CLI can map
them to exit code 1 while usage/parse problems map to exit code 2.
"""


class CorrdynError(Exception):
    """Base class for math/runtime errors."""


class UsageError(CorrdynError):
    """Bad configuration or malformed input file (CLI exit code 2)."""


class ZeroPolynomial(CorrdynError):
    """Root extraction was asked for the zero polynomial."""


class NonConvergence(CorrdynError):
    """Iterative root finding failed."""


class DegreeTooLow(CorrdynError):
    """Operation requires a map of higher degree."""


class DegreeMismatch(CorrdynError):
    """Operand degree differs from the required one."""


class Indeterminate(CorrdynError):
    """Numerator and denominator vanish together (unreduced rational map)."""


class InexactDivision(CorrdynError):
    """Division by (z - w) left a non-negligible remainder."""


class FiberDegenerate(CorrdynError):
    """Graph polynomial vanishes identically on a fiber (vertical line)."""


class DegreeBoundExceeded(CorrdynError):
    """Requested resultant exceeds correspondence.DEGREE_BOUND, or has a stage
    with more than one component."""


class DiscriminantDegenerate(CorrdynError):
    """Discriminant vanishes identically (multiple graph component)."""


class BudgetExceeded(CorrdynError):
    """Enumeration would exceed the node budget."""


class BadParameter(CorrdynError):
    """Family parameter outside its admissible set."""


class NotAnInvolution(CorrdynError):
    """Expected a trace-zero Moebius map."""


class BranchAmbiguity(CorrdynError):
    """Fiber points too close to disambiguate a branch by continuity."""


class ExceptionalStart(CorrdynError):
    """Backward iteration started at an exceptional point."""


class SeedRejected(CorrdynError):
    """Equidistribution run refused a seed in the family's exceptional set."""
