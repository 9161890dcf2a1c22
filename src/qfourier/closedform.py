"""Closed-form transform catalog: bounded power laws, steps, constants.

Each evaluator returns the same half-plane boundary values the quadrature
engine produces, so the two routes can be checked against each other. The
power-law family carries the collision phenomenon: at the regime boundary
q = 1 + 1/beta the transform depends on (a, b) only through the scale lam,
so every normalized member with one lam shares one transform.

Branch discipline: all fractional powers use the principal complex log.
The kernel's own power comes from qcore's one evaluator, through
q_exp_complex. The 2F1 arguments that arise here satisfy Re z <= 0 for
upper-tagged k, so the [1, oo) cut is never touched.
"""
from __future__ import annotations

import cmath
import math
from enum import Enum

from .errors import BoundaryRegimeError, PoleError, float_range, scalar
from .qcore import as_qparam, q_exp_complex
from .special import Hyp2F1Params, hyp2f1
from .transform import _LOWER_TAGS, HalfPlanePoint, PlaneTag, PowerLaw

__all__ = [
    "RegimeTag",
    "regime_of",
    "powerlaw_qft_closed",
    "powerlaw_qft_boundary",
    "hilhorst_lambda",
    "hilhorst_qft",
    "heaviside_qft",
    "constant_qft_delta_weight",
]

_UPPER_TAGS = (PlaneTag.UPPER, PlaneTag.REAL_LIMIT_UPPER)

# Inside this band around s = 1 - beta(q-1) = 0 the 2F1 parameters grow like
# 1/s and the assembly loses all accuracy; exact s = 0 collapses instead.
_BOUNDARY_BAND = 1e-6
# The two 2F1 terms' difference has their relative error (1e-12 in Tier-1)
# times (|term_a| + |term_b|) / |term_a - term_b|: below this ratio it keeps
# under six digits. Benchmark closed forms sit at 0.0285 and above.
_CANCEL = 1e-6


class RegimeTag(Enum):
    LOW_Q = "low_q"
    HIGH_Q = "high_q"
    BOUNDARY = "boundary"


def regime_of(q, beta: float) -> RegimeTag:
    """Side of the split point q = 1 + 1/beta, by the sign of 1 - beta(q-1)."""
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("regime classification requires q > 1")
    s = 1.0 - scalar("beta", beta) * (qp.q - 1.0)
    if s == 0.0:
        return RegimeTag.BOUNDARY
    return RegimeTag.LOW_Q if s > 0.0 else RegimeTag.HIGH_Q


def _upper_k(k: HalfPlanePoint) -> complex:
    if k.plane not in _UPPER_TAGS:
        raise ValueError("k must be upper-tagged or real_limit_upper")
    return complex(k.k)


def _moment(p: PowerLaw) -> float:
    # plain integral of (lam/x)^beta over [a, b]
    if p.beta == 1.0:
        return p.lam * math.log(p.b / p.a)
    with float_range(BoundaryRegimeError, "beta = {:g} is too large here: "
                     "the moment's powers lam^beta, a^(1-beta) and b^(1-beta) "
                     "overflow float; use the quadrature route (qft_complex)",
                     p.beta):
        return p.lam ** p.beta * (p.b ** (1.0 - p.beta)
                                  - p.a ** (1.0 - p.beta)) / (1.0 - p.beta)


def powerlaw_qft_boundary(p: PowerLaw, q, k: HalfPlanePoint) -> complex:
    """Collapsed transform at the regime boundary beta = 1/(q-1).

    There x * f(x)^(q-1) = lam identically on the support, the kernel factor
    leaves the integral, and the transform is the plain moment times the
    deformed plane wave at x = lam.
    """
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("boundary form requires q in (1, 2)")
    kv = _upper_k(k)
    if 1.0 - p.beta * (qp.q - 1.0) != 0.0:
        raise ValueError("parameters are not on the boundary beta = 1/(q-1)")
    e = (qp.q - 2.0) / (qp.q - 1.0)
    # powers of order 1/(q-1), which overflow float as q -> 1
    with float_range(BoundaryRegimeError, "q - 1 = {:g} is too small here: "
                     "the boundary powers lam^(1/(q-1)), a^((q-2)/(q-1)) and "
                     "b^((q-2)/(q-1)) overflow float; use the quadrature "
                     "route (qft_complex)", qp.q - 1.0):
        pref = p.lam ** (1.0 / (qp.q - 1.0)) \
            * ((qp.q - 1.0) / (2.0 - qp.q)) * (p.a ** e - p.b ** e)
    return pref * q_exp_complex(kv, p.lam, qp)


def powerlaw_qft_closed(p: PowerLaw, q, k: HalfPlanePoint) -> complex:
    """Transform of the bounded power law via the two-regime 2F1 assembly.

    Exact boundary parameters take the collapsed form; a 1e-6 neighborhood
    of the boundary raises BoundaryRegimeError because the hypergeometric
    parameters diverge there (the quadrature route stays accurate). So does
    a q near 1 where the low-regime or boundary powers of order 1/(q-1)
    overflow float, a q near 1 or tiny |k| where the low-regime prefactor
    (i(1-q)k)^(-1/(q-1)) does (its message names both), a k = 0 whose
    moment powers of order beta do, either regime whose powers of order
    beta leave float range, and two 2F1 terms that cancel (_CANCEL).
    """
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("closed form requires q in (1, 2)")
    kv = _upper_k(k)
    s = 1.0 - p.beta * (qp.q - 1.0)
    if s == 0.0:
        return powerlaw_qft_boundary(p, qp, k)
    if abs(s) < _BOUNDARY_BAND:
        raise BoundaryRegimeError(
            f"q is within {_BOUNDARY_BAND:g} of 1 + 1/beta; the 2F1 parameters "
            "scale like 1/(1 - beta(q-1)) there, use the quadrature route")
    if kv == 0:
        return complex(_moment(p))
    if p.beta == 0.0:
        # f = 1 on [a, b]: the kernel's primitive is base^((2-q)/(1-q))
        top = [(1.0 + 1j * (1.0 - qp.q) * kv * x) * q_exp_complex(kv, x, qp)
               for x in (p.b, p.a)]
        return (top[0] - top[1]) / (1j * (2.0 - qp.q) * kv)

    nu = 1.0 / (qp.q - 1.0)
    # powers of order beta in both regimes, where s = 1 - beta(q-1)
    beta_powers = float_range(
        BoundaryRegimeError, "beta = {:g}, lam = {:g}: the powers lam^beta, "
        "lam^(beta(q-1)), a^(1-beta), b^(1-beta), a^s and b^s leave float "
        "range; use the quadrature route (qft_complex)", p.beta, p.lam)
    if s > 0.0:
        p2 = (2.0 - qp.q) / ((qp.q - 1.0) * s)
        p3 = nu + p.beta * (2.0 - qp.q) / s
        e = (qp.q - 2.0) / (qp.q - 1.0)
        # powers of order 1/(q-1), which overflow float as q -> 1; the
        # prefactor's does too as |k| -> 0
        with float_range(BoundaryRegimeError, "q - 1 = {:g} is too small "
                         "here: the low-regime powers a^((q-2)/(q-1)) and "
                         "b^((q-2)/(q-1)) overflow float; use the "
                         "quadrature route (qft_complex)", qp.q - 1.0):
            wa, wb = p.a ** e, p.b ** e
        with float_range(BoundaryRegimeError, "q - 1 = {:g}, |k| = {!r}: "
                         "the low-regime prefactor (i(1-q)k)^(-1/(q-1)) "
                         "overflows float; use the quadrature route "
                         "(qft_complex)", qp.q - 1.0, abs(kv)):
            pref = ((qp.q - 1.0) / (2.0 - qp.q)) \
                * cmath.exp(-nu * cmath.log(1j * (1.0 - qp.q) * kv))
        with beta_powers:
            c = 1j * (1.0 - qp.q) * kv * p.lam ** (p.beta * (qp.q - 1.0))
            za, zb = -1.0 / (c * p.a ** s), -1.0 / (c * p.b ** s)
    else:
        p2 = (1.0 - p.beta) / s
        p3 = (2.0 - p.beta * qp.q) / s
        with beta_powers:
            c = 1j * (1.0 - qp.q) * kv * p.lam ** (p.beta * (qp.q - 1.0))
            wa, wb = p.a ** (1.0 - p.beta), p.b ** (1.0 - p.beta)
            za, zb, scale = -c * p.a ** s, -c * p.b ** s, p.lam ** p.beta
        pref = scale / (p.beta - 1.0)
    term_a = wa * hyp2f1(Hyp2F1Params(nu, p2, p3, za))
    term_b = wb * hyp2f1(Hyp2F1Params(nu, p2, p3, zb))
    cancel = float_range(BoundaryRegimeError, "the two 2F1 terms cancel "
                         "below {:g} of their size, or underflow to 0; use "
                         "the quadrature route (qft_complex)", _CANCEL)
    with cancel:
        if abs(term_a - term_b) <= _CANCEL * (abs(term_a) + abs(term_b)):
            raise cancel.error()
    return pref * (term_a - term_b)


def hilhorst_lambda(a: float, b: float, q) -> float:
    """Scale lam that normalizes the boundary power law on [a, b] to unit mass."""
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("hilhorst_lambda requires q in (1, 2)")
    a, b = scalar("a", a), scalar("b", b)
    if not 0.0 < a < b:
        raise ValueError(f"need 0 < a < b, got a={a!r}, b={b!r}")
    e = (qp.q - 2.0) / (qp.q - 1.0)
    # powers of order 1/(q-1): near q = 1 they overflow float, or both
    # underflow to 0 and leave a bracket of 0 to raise to 1 - q < 0
    with float_range(BoundaryRegimeError, "q - 1 = {:g} is too small here: "
                     "a^((q-2)/(q-1)) and b^((q-2)/(q-1)) overflow or "
                     "underflow float", qp.q - 1.0):
        bracket = ((qp.q - 1.0) / (2.0 - qp.q)) * (a ** e - b ** e)
        return bracket ** (1.0 - qp.q)


def hilhorst_qft(lam: float, q, k: HalfPlanePoint) -> complex:
    """Shared transform of the normalized boundary family: [1+(1-q)ik*lam]^(1/(1-q)).

    Every member with the same lam maps here, whatever its (a, b); the pair
    enters only through the normalization constraint.
    """
    lam = scalar("lam", lam, gt=0)
    return q_exp_complex(_upper_k(k), lam, q)


def heaviside_qft(sign: int, q, k: HalfPlanePoint) -> complex:
    """Step-function transform: i/((2-q)k) on the matching half-plane, 0 opposite."""
    sign = scalar("sign", sign, int)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    qp = as_qparam(q)
    kv = complex(k.k)
    if kv == 0:
        raise PoleError(
            "k = 0 is the delta concentration point; its weight lives in the "
            "contour machinery, not in this boundary value")
    matching = _UPPER_TAGS if sign == 1 else _LOWER_TAGS
    if k.plane in matching:
        return 1j / ((2.0 - qp.q) * kv)
    return 0j


def constant_qft_delta_weight(q) -> float:
    """Coefficient of the delta at k = 0 for f = 1: 2*pi/(2-q)."""
    qp = as_qparam(q)
    return 2.0 * math.pi / (2.0 - qp.q)
