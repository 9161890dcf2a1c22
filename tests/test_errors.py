import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import qfourier
from qfourier import errors
from qfourier.closedform import (heaviside_qft, hilhorst_lambda, hilhorst_qft,
                                 powerlaw_qft_closed, regime_of)
from qfourier.inversion import EpsilonSchedule, roundtrip
from qfourier.qcore import QParam, q_exp, q_exp_complex, ultra_kernel
from qfourier.special import Hyp2F1Params, digamma, log_gamma
from qfourier.transform import (Constant, Gaussian, HalfPlanePoint, Heaviside,
                                PlaneTag, PowerLaw, QGaussian,
                                QuadratureConfig, qft_complex, qft_real_line)
from qfourier.ultra import (AnalyticRep, ContourSpec,
                            pseudo_poly_invariance_check)

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


class TestScalar:
    @pytest.mark.parametrize("value, kind, want", [
        (1.5, float, 1.5), (2, float, 2.0), (np.float32(0.5), float, 0.5),
        (np.int64(3), float, 3.0), (Fraction(1, 4), float, 0.25),
        (7, int, 7), (np.int64(7), int, 7), (np.uint8(7), int, 7),
        (1j, complex, 1j), (2.0, complex, 2 + 0j), (3, complex, 3 + 0j),
        (np.complex64(1 + 2j), complex, 1 + 2j),
        (np.float32(0.5), complex, 0.5 + 0j),
    ])
    def test_any_number_of_the_kind_comes_back_as_python(self, value, kind,
                                                         want):
        got = errors.scalar("v", value, kind)
        assert type(got) is kind and got == want

    def test_an_exact_value_comes_back_as_itself(self):
        # no copy on the path every transform point takes
        for value, kind in ((1.5, float), (7, int), (1 + 1j, complex)):
            assert errors.scalar("v", value, kind) is value

    @pytest.mark.parametrize("value, kind, words", [
        (True, float, "v must be finite, got True"),
        (False, int, "v must be an integer, got False"),
        (True, complex, "v must be finite, got True"),
        (np.True_, float, "v must be finite, got np.True_"),
        ("1", float, "v must be finite, got '1'"),
        ("1", complex, "v must be finite, got '1'"),
        (None, float, "v must be finite, got None"),
        (1j, float, "v must be finite, got 1j"),
        (1.0, int, "v must be an integer, got 1.0"),
        (math.nan, float, "v must be finite, got nan"),
        (np.float32("inf"), float, "v must be finite, got inf"),
        (complex(1.0, math.inf), complex, "v must be finite, got (1+infj)"),
        (2 ** 1024, float,
         "v must be finite, got a number beyond float range"),
        (-10 ** 400, complex,
         "v must be finite, got a number beyond float range"),
    ])
    def test_refusal_names_the_parameter(self, value, kind, words):
        with pytest.raises(ValueError) as info:
            errors.scalar("v", value, kind)
        assert str(info.value) == words

    @pytest.mark.parametrize("kind, bound, value, words", [
        (float, {"gt": 0}, 0.0, "v must be finite and > 0, got 0.0"),
        (float, {"ge": 0}, -1, "v must be finite and >= 0, got -1.0"),
        (int, {"ge": 8}, 4, "v must be an integer >= 8, got 4"),
        (int, {"gt": 0}, np.int64(0), "v must be an integer > 0, got 0"),
    ])
    def test_bound(self, kind, bound, value, words):
        with pytest.raises(ValueError) as info:
            errors.scalar("v", value, kind, **bound)
        assert str(info.value) == words
        edge = 1 if "gt" in bound else bound["ge"]
        assert errors.scalar("v", edge, kind, **bound) == edge

    def test_message_is_formatted_only_when_raised(self):
        class Loud(Fraction):
            reprs = 0

            def __repr__(self):
                Loud.reprs += 1
                return "Loud"

        assert errors.scalar("v", Loud(1, 2), gt=0) == 0.5
        assert Loud.reprs == 0
        with pytest.raises(ValueError, match="v must be an integer, got Loud"):
            errors.scalar("v", Loud(1, 2), int)
        assert Loud.reprs == 1


def _phi(z):
    return np.exp(-z * z)


_SMALL = ContourSpec(points_per_line=64)
_REP = AnalyticRep(evaluator=lambda z: 1j / z)
_REAL_UP = PlaneTag.REAL_LIMIT_UPPER

# every public scalar input: (entry point, parameter name, kind, probe,
# good value). probe(v) calls the entry point with v for that parameter
# (every other input valid) and returns what shows v's conversion: the
# stored field, or a number the call returns. good is a valid value that
# float32 holds exactly; an integral one is tried as np.int64 too.
ENTRY_POINTS = [
    *[("PowerLaw", name, float,
       lambda v, name=name: getattr(PowerLaw(**{**dict(
           lam=1.0, beta=2.0, a=1.0, b=2.0), name: v}), name), good)
      for name, good in (("lam", 1.0), ("beta", 2.0), ("a", 1.0),
                         ("b", 2.0))],
    ("Constant", "c", float, lambda v: Constant(v).c, 1.0),
    ("Gaussian", "sigma", float, lambda v: Gaussian(v).sigma, 1.0),
    ("QGaussian", "q_g", float, lambda v: QGaussian(v, 1.0).q_g, 2.0),
    ("QGaussian", "beta_g", float, lambda v: QGaussian(1.5, v).beta_g, 1.0),
    ("Heaviside", "sign", int, lambda v: Heaviside(v).sign, -1.0),
    ("QuadratureConfig", "rel_tol", float,
     lambda v: QuadratureConfig(rel_tol=v).rel_tol, 0.5),
    ("QuadratureConfig", "abs_tol", float,
     lambda v: QuadratureConfig(abs_tol=v).abs_tol, 1.0),
    ("QuadratureConfig", "max_subdivisions", int,
     lambda v: QuadratureConfig(max_subdivisions=v).max_subdivisions, 64.0),
    ("HalfPlanePoint", "k", complex,
     lambda v: HalfPlanePoint(v, _REAL_UP).k, 2.0),
    ("qft_real_line", "k", float,
     lambda v: qft_real_line(Gaussian(1.0), 1.5, v)[0], 2.0),
    ("QParam", "q", float, lambda v: QParam(v).q, 1.0),
    ("q_exp", "x", float, lambda v: q_exp(v, 1.5).value, 1.0),
    ("q_exp_complex", "k", complex, lambda v: q_exp_complex(v, 1.0, 1.5),
     2.0),
    ("q_exp_complex", "x", float, lambda v: q_exp_complex(1.0, v, 1.5), 2.0),
    ("ultra_kernel", "x", float, lambda v: ultra_kernel(1j, v, 1.5), 2.0),
    ("ContourSpec", "zeta", float, lambda v: ContourSpec(zeta=v).zeta, 1.0),
    ("ContourSpec", "truncation", float,
     lambda v: ContourSpec(truncation=v).truncation, 40.0),
    ("ContourSpec", "points_per_line", int,
     lambda v: ContourSpec(points_per_line=v).points_per_line, 64.0),
    ("AnalyticRep", "growth_order", int,
     lambda v: AnalyticRep(abs, growth_order=v).growth_order, 2.0),
    ("pseudo_poly_invariance_check", "P_degree", int,
     lambda v: pseudo_poly_invariance_check(_REP, v, _phi, _SMALL), 2.0),
    *[("Hyp2F1Params", name, complex,
       lambda v, name=name: getattr(Hyp2F1Params(**{**dict(
           a=1.0, b=1.0, c=2.0, z=0.5), name: v}), name), good)
      for name, good in (("a", 1.0), ("b", 1.0), ("c", 2.0), ("z", 0.5))],
    ("log_gamma", "z", complex, log_gamma, 2.0),
    ("digamma", "z", complex, digamma, 2.0),
    ("EpsilonSchedule", "eps", float,
     lambda v: EpsilonSchedule((v, 1e-3)).eps_list[0], 0.25),
    ("roundtrip", "k_max", float,
     lambda v: roundtrip(Gaussian(1.0), k_max=v, dk=0.5).residual, 4.0),
    ("roundtrip", "dk", float,
     lambda v: roundtrip(Gaussian(1.0), k_max=4.0, dk=v).residual, 0.5),
    ("regime_of", "beta", float, lambda v: regime_of(1.5, v), 2.0),
    ("hilhorst_lambda", "a", float, lambda v: hilhorst_lambda(v, 2.0, 1.5),
     1.0),
    ("hilhorst_lambda", "b", float, lambda v: hilhorst_lambda(1.0, v, 1.5),
     2.0),
    ("hilhorst_qft", "lam", float,
     lambda v: hilhorst_qft(v, 1.5, HalfPlanePoint(1.0, _REAL_UP)), 1.0),
    ("heaviside_qft", "sign", int,
     lambda v: heaviside_qft(v, 1.5, HalfPlanePoint(1.0, _REAL_UP)), 1.0),
]
ENTRY_IDS = [f"{entry}-{name}" for entry, name, *_ in ENTRY_POINTS]


def _numpy_forms(kind, good):
    """The numpy scalars of good that an input of this kind takes."""
    forms = [] if kind is int else [np.float32(good)]
    return forms + [np.int64(good)] if good == int(good) else forms


@pytest.mark.parametrize("entry, name, kind, probe, good", ENTRY_POINTS,
                         ids=ENTRY_IDS)
def test_numpy_scalars_come_back_as_python_numbers(entry, name, kind, probe,
                                                   good):
    # the call at a numpy scalar is the call at the Python number of the
    # same value, down to the result's type
    want = probe(int(good) if kind is int else good)
    for value in _numpy_forms(kind, good):
        got = probe(value)
        assert type(got) is type(want) and got == want, (value, got, want)


@pytest.mark.parametrize("entry, name, kind, probe, good", ENTRY_POINTS,
                         ids=ENTRY_IDS)
def test_bools_and_strings_are_refused_by_name(entry, name, kind, probe,
                                               good):
    text = str(int(good) if kind is int else good)
    for value in (True, False, text):
        with pytest.raises(ValueError, match=f"^{name} must be ") as info:
            probe(value)
        assert str(info.value).endswith(f", got {value!r}")


def test_ultra_kernel_k_is_a_scalar_k():
    # its k needs Im k != 0, which no real good value of the table has
    want = ultra_kernel(1j, 1.0, 1.5)
    got = ultra_kernel(np.complex64(1j), 1.0, 1.5)
    assert type(got) is type(want) and got == want
    for value in (True, "1j"):
        with pytest.raises(ValueError, match=f"^k must be finite, got "
                           f"{value!r}$"):
            ultra_kernel(value, 1.0, 1.5)
