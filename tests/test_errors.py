import pytest

import qfourier
from qfourier import errors

EXPORTED = [getattr(qfourier, name) for name in qfourier.__all__
            if isinstance(getattr(qfourier, name), type)
            and issubclass(getattr(qfourier, name), BaseException)]


def test_every_error_type_is_exported():
    defined = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == errors.__name__}
    assert defined == set(EXPORTED)


@pytest.mark.parametrize("exc", EXPORTED, ids=lambda c: c.__name__)
def test_every_exported_error_is_a_qfourier_error(exc):
    assert issubclass(exc, qfourier.QFourierError)


@pytest.mark.parametrize("exc, base", [
    (qfourier.PoleError, ValueError),
    (qfourier.CutAmbiguityError, ValueError),
    (qfourier.MembershipError, ValueError),
    (qfourier.BoundaryRegimeError, ValueError),
    (qfourier.InversionDomainError, ValueError),
    (qfourier.AliasingError, ValueError),
    (qfourier.ConvergenceError, RuntimeError),
    (qfourier.NonFiniteError, RuntimeError),
    (qfourier.TruncationError, RuntimeError),
    (qfourier.LimitFailureError, RuntimeError),
], ids=lambda c: c.__name__)
def test_each_error_keeps_its_builtin_base(exc, base):
    # callers catch ValueError for a bad input and RuntimeError for a
    # computation that could not finish
    assert issubclass(exc, base)


def test_one_clause_catches_a_package_failure():
    with pytest.raises(qfourier.QFourierError):
        qfourier.roundtrip(qfourier.Heaviside())
