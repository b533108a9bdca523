"""Exception types raised across the package."""


class MaxconeError(Exception):
    """Base class for all package errors."""


class NumericFailure(MaxconeError):
    """A computation on valid input did not reach a trustworthy result.

    The CLI exits 1 on these, like a failed check; every other
    MaxconeError is a usage or configuration error and exits 2.
    """


class OrderingViolation(MaxconeError):
    """Branch points are not strictly ordered around the origin."""


class LengthMismatch(MaxconeError):
    """Parameter list lengths are inconsistent with (m, n)."""


class SignDomain(MaxconeError):
    """A sign entry is not +1 or -1, or a sign pattern precondition fails."""


class Infeasible(MaxconeError):
    """A normalization has no solution compatible with the ordering."""


class OrderingInfeasible(Infeasible):
    """The solved coordinate would violate the strict ordering."""


class BranchPointEvaluation(MaxconeError):
    """Pointwise form evaluation requested at a branch point (w in {0, inf})."""


class DegenerateGauss(MaxconeError):
    """Gauss map is 0 or infinity where a finite nonzero value is required."""


class QuadratureFailure(NumericFailure):
    """Adaptive quadrature could not reach the requested tolerance."""


class PathThroughSingularity(MaxconeError):
    """An integration path touches or crosses the singular set or a pole."""


class NonConvergent(NumericFailure):
    """An apex limit's error estimate or extrapolation residual stayed above tolerance."""


class VerificationFailure(NumericFailure):
    """A numerical check contradicts a closed-form prediction."""


class DegenerateSingularity(NumericFailure):
    """dG/(G dh) failed the real-and-nonzero criterion on a component."""


class AmbiguousDirection(NumericFailure):
    """Cone direction could not be resolved from the x3 comparison."""


class NotOnHyperboloid(MaxconeError):
    """Input of stereographic projection is not on the unit hyperboloid."""


class WeldFailure(NumericFailure):
    """Seam endpoints disagree with the apex beyond tolerance."""


class NotClosedOnCurve(MaxconeError):
    """A loop crosses an odd number of branch cuts and is open on the curve."""


class IOFailure(MaxconeError):
    """Geometry export could not be written."""
