import cmath
import math

import pytest

import qfourier
from qfourier import errors
from qfourier.closedform import powerlaw_qft_closed
from qfourier.qcore import q_exp, q_exp_complex, ultra_kernel
from qfourier.transform import HalfPlanePoint, PlaneTag, PowerLaw, qft_complex

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


def upper(k):
    return HalfPlanePoint(complex(k), PlaneTag.REAL_LIMIT_UPPER)


# power-law windows and real k where the closed form leaves float range:
# the high regime's lam^beta (beta = 200), its c = i(1-q)k lam^(beta(q-1))
# (lam = 1e200) and its a^(1-beta) (beta = 1024); in the low regime a
# beta < 0 overflows c or a^s, and c a^s underflows to 0 at k = 1e-200.
# Quadrature stays finite on each
PAST_FLOAT_RANGE = [
    (PowerLaw(1e3, 200.0, 1e3, 2e3), 1.5, 1.0),
    (PowerLaw(1e200, 4.0, 1e200, 2e200), 1.5, 1.0),
    (PowerLaw(0.5, 1024.0, 0.4, 2.0), 1.5, 1.0),
    (PowerLaw(1e-200, -4.0, 1e-200, 2e-200), 1.9, 1.0),
    (PowerLaw(1e200, -4.0, 1e200, 2e200), 1.9, 1.0),
    (PowerLaw(1.0, 0.5, 1e-300, 1e-299), 1.9, 1e-200),
]
QUADRATURE = r"float.*; use the quadrature route \(qft_complex\)"
DEFORMED = "deformed exponential overflows float at q="


@pytest.mark.parametrize("call, outcome, match", [
    (lambda: q_exp(99.99, 1.01), qfourier.NonFiniteError, DEFORMED),
    (lambda: q_exp(1000.0, 1.0), qfourier.NonFiniteError, DEFORMED),
    (lambda: q_exp_complex(-99.99j, 1.0, 1.01), qfourier.NonFiniteError,
     DEFORMED),
    (lambda: q_exp_complex(-5j, 200.0, 1.0), qfourier.NonFiniteError,
     DEFORMED),
    *[(lambda p=p, q=q, k=k: powerlaw_qft_closed(p, q, upper(k)),
       qfourier.BoundaryRegimeError, QUADRATURE)
      for p, q, k in PAST_FLOAT_RANGE],
    # the same base on the other side of 1: 1.9999^-100 stays in range
    (lambda: ultra_kernel(-99.99j, -1.0, 1.01),
     complex(-7.928151860688087e-31, -0.0), None),
], ids=["q_exp", "q_exp-q1", "q_exp_complex", "q_exp_complex-q1",
        "closed-high-lam^beta", "closed-high-c", "closed-high-a^(1-beta)",
        "closed-low-c", "closed-low-a^s", "closed-low-c*a^s=0",
        "ultra_kernel-finite"])
def test_leaving_float_range_raises_a_typed_error(call, outcome, match):
    # every public call returns a finite value or raises a typed error,
    # never a bare OverflowError or ZeroDivisionError
    if isinstance(outcome, type):
        with pytest.raises(outcome, match=match):
            call()
    else:
        assert call() == outcome


@pytest.mark.parametrize("p, q, k", PAST_FLOAT_RANGE)
def test_quadrature_route_stays_finite_where_closed_form_overflows(p, q, k):
    value, err = qft_complex(p, q, upper(k))
    assert cmath.isfinite(value) and math.isfinite(err)
