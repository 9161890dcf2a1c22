"""Exception types shared across the package."""


class PoleError(ValueError):
    """Evaluation requested exactly at a pole."""


class CutAmbiguityError(ValueError):
    """Argument lies on a branch cut and no side was supplied."""


class MembershipError(ValueError):
    """Function is not transformable at this q (integrand not absolutely integrable)."""


class BoundaryRegimeError(ValueError):
    """Closed form degenerates at the regime boundary; use quadrature instead."""


class InversionDomainError(ValueError):
    """Function has no classical Fourier transform; inversion pipeline does not apply."""


class AliasingError(ValueError):
    """Sample grid too coarse for the requested reconstruction extent."""


class ConvergenceError(RuntimeError):
    """Iteration or subdivision budget exhausted before reaching tolerance.

    Carries the best available estimate so callers can degrade gracefully.
    The quadrature engine never raises it and reports each row's outcome
    as data; the transform calls raise one error for the lowest failing
    row (one integral per k) and name that row in row. Their values, errs
    and failed mask then hold every row's result or best estimate.
    qft_surface records it per cell instead, as "did not converge (...)".
    """

    def __init__(self, message, value=None, err=None, row=None,
                 values=None, errs=None, failed=None):
        super().__init__(message)
        self.value = value
        self.err = err
        self.row = row
        self.values = values
        self.errs = errs
        self.failed = failed


class NonFiniteError(RuntimeError):
    """An integrand produced NaN or inf where a finite value is required."""


class TruncationError(RuntimeError):
    """Contour truncated too early: integrand tail at +-T is not negligible."""

    def __init__(self, message, suggested_T=None, tail=None):
        super().__init__(message)
        self.suggested_T = suggested_T
        self.tail = tail


class LimitFailureError(RuntimeError):
    """Values along the epsilon schedule do not contract toward a limit."""
