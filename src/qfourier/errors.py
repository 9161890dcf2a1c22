"""Exception types shared across the package, and its one float-range guard.

Every type derives from QFourierError, so a caller can catch any failure
of the package in one clause, and from ValueError (a bad or unsupported
input) or RuntimeError (a computation that could not finish).

Arithmetic past float range raises a typed error, through float_range
alone: BoundaryRegimeError naming the powers or the route from the closed
forms and 2F1, NonFiniteError from the deformed exponentials and kernel.
"""


class QFourierError(Exception):
    """Common base of every qfourier error."""


class PoleError(QFourierError, ValueError):
    """Evaluation requested exactly at a pole."""


class CutAmbiguityError(QFourierError, ValueError):
    """Argument lies on a branch cut and no side was supplied."""


class MembershipError(QFourierError, ValueError):
    """Function is not transformable at this q (integrand not absolutely integrable)."""


class BoundaryRegimeError(QFourierError, ValueError):
    """Closed form degenerates at the regime boundary, or its powers leave
    float range; use quadrature instead."""


class InversionDomainError(QFourierError, ValueError):
    """Function has no classical Fourier transform; inversion pipeline does not apply."""


class AliasingError(QFourierError, ValueError):
    """Sample grid too coarse for the requested reconstruction extent."""


class ConvergenceError(QFourierError, RuntimeError):
    """Iteration or subdivision budget exhausted before reaching tolerance.

    Carries the best available estimate so callers can degrade gracefully.
    The quadrature engine never raises it and reports each row's outcome
    as data; the transform calls raise one error for the lowest failing
    row (one integral per k) and name that row in row. Their message is
    the row's reason followed by its summed err, reason is the reason
    alone, and values, errs and failed mask hold every row's result or
    best estimate. qft_surface records it per cell instead, as
    "did not converge (...)".
    """

    def __init__(self, message, value=None, err=None, row=None,
                 values=None, errs=None, failed=None, reason=None):
        super().__init__(message)
        self.reason = reason
        self.value = value
        self.err = err
        self.row = row
        self.values = values
        self.errs = errs
        self.failed = failed


class NonFiniteError(QFourierError, RuntimeError):
    """An integrand produced NaN or inf where a finite value is required."""


class TruncationError(QFourierError, RuntimeError):
    """Contour truncated too early: integrand tail at +-T is not negligible."""

    def __init__(self, message, suggested_T=None, tail=None):
        super().__init__(message)
        self.suggested_T = suggested_T
        self.tail = tail


class LimitFailureError(QFourierError, RuntimeError):
    """Values along the epsilon schedule do not contract toward a limit."""


class float_range:
    """Turn an OverflowError or ZeroDivisionError raised in the block into
    kind(message.format(*args)), formatted only then; error() is that
    error, for a non-finite value found without an exception."""

    __slots__ = ("kind", "message", "args")

    def __init__(self, kind, message, *args):
        self.kind, self.message, self.args = kind, message, args

    def error(self):
        return self.kind(self.message.format(*self.args))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type and issubclass(exc_type,
                                   (OverflowError, ZeroDivisionError)):
            raise self.error() from None
