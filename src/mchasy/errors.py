"""Exception types shared across the package."""


class MchasyError(Exception):
    """Base class for everything raised deliberately by this package."""


class DomainError(MchasyError, ValueError):
    """Input outside the documented domain of an operation."""


class RangeError(DomainError):
    """Argument outside the documented accuracy/stability range."""


class BracketError(DomainError):
    """Root finder called without a sign change on the bracket."""


class DivergentSeriesError(DomainError):
    """Series parameters outside the convergence region (e.g. nome >= 1)."""


class ConvergenceError(MchasyError):
    """An iterative kernel ran out of budget.

    ``best`` carries the last estimate, ``estimate_error`` its error bound.
    """

    def __init__(self, message, best=None, estimate_error=None):
        super().__init__(message)
        self.best = best
        self.estimate_error = estimate_error


class RegionError(MchasyError, ValueError):
    """Space-time point does not lie in the region an evaluator covers."""


class AdmissibilityError(MchasyError, ValueError):
    """Scattering data violates a precondition of the requested formula."""


class WindowError(AdmissibilityError):
    """Band equation has no solution for this space-time point."""


class RealityError(MchasyError, ArithmeticError):
    """A value that must be real and finite is not: a non-finite u, an error
    order that is not negative, or hand-built i*T_1/T(i) that is not real."""


class BranchError(MchasyError, ArithmeticError):
    """Branch-consistency self-check of the spectral curve failed."""


class BoundaryAmbiguityError(DomainError):
    """Evaluation on a branch cut without a side specification."""


class PoleOfSolutionError(MchasyError, ArithmeticError):
    """Theta denominator vanished; the model solution has a pole here."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ConventionError(MchasyError, ArithmeticError):
    """Closed-form expansion coefficients disagree with the numerical fit."""


class ConfigError(MchasyError, ValueError):
    """Malformed or inconsistent run configuration."""

    def __init__(self, message, key=None):
        super().__init__(message if key is None else f"{key}: {message}")
        self.key = key
