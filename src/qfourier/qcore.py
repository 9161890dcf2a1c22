"""q-deformed exponentials and the two-sheeted kernel built from them.

The branch convention is fixed here: complex powers use the principal
branch of the logarithm, and q = 1 is an exact separate code path, never a
small-epsilon substitute. The closed forms go through these evaluators;
transform._kernel_integrand keeps a vectorized copy in real arithmetic
(log1p modulus, arctan2 phase), judged against mpmath on accuracy rather
than against cmath on bits, and ultra never evaluates the kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import PoleError


@dataclass(frozen=True)
class QParam:
    """Deformation index restricted to the band 1 <= q < 2."""

    q: float

    def __post_init__(self):
        q = self.q
        if isinstance(q, bool) or not isinstance(q, (int, float)):
            raise ValueError("q must be a real number")
        if not math.isfinite(q):
            raise ValueError("q must be finite")
        if not 1.0 <= q < 2.0:
            raise ValueError(f"q={q} outside the valid band [1, 2)")
        object.__setattr__(self, "q", float(q))

    @property
    def classical(self) -> bool:
        """True exactly at q = 1, where all kernels collapse to exp."""
        return self.q == 1.0


def as_qparam(q) -> QParam:
    """Coerce a float into a validated QParam; QParam instances pass through."""
    return q if isinstance(q, QParam) else QParam(q)


@dataclass(frozen=True)
class CutoffReal:
    """Result of a truncated power: value plus a flag telling whether the
    positive-part truncation fired. value >= 0 always; cut implies value == 0."""

    value: float
    cut: bool


def q_exp(x: float, q) -> CutoffReal:
    """Deformed exponential [1 + (1-q)x]_+^{1/(1-q)}.

    Returns the plain exponential at q = 1. The truncation flag is carried
    explicitly so integrators can detect support cutoffs instead of silently
    integrating zeros.
    """
    qp = as_qparam(q)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if qp.classical:
        return CutoffReal(math.exp(x), False)
    base = 1.0 + (1.0 - qp.q) * x
    if base <= 0.0:
        return CutoffReal(0.0, True)
    return CutoffReal(base ** (1.0 / (1.0 - qp.q)), False)


def q_exp_complex(k: complex, x: float, q) -> complex:
    """Deformed plane wave [1 + i(1-q)kx]^{1/(1-q)}, principal branch.

    exp(ikx) at q = 1. For real k the modulus is (1+(1-q)^2 k^2 x^2)^{1/(2(1-q))},
    which never exceeds 1 for q in (1,2).
    """
    qp = as_qparam(q)
    k = complex(k)
    if not (math.isfinite(x) and cmath.isfinite(k)):
        raise ValueError("k and x must be finite")
    if qp.classical:
        return cmath.exp(1j * k * x)
    base = 1.0 + 1j * (1.0 - qp.q) * k * x
    if base == 0:
        raise PoleError("deformed exponential pole: 1 + i(1-q)kx = 0")
    return cmath.exp(cmath.log(base) / (1.0 - qp.q))


def ultra_kernel(k: complex, x: float, q) -> complex:
    """Half-plane kernel {H(x)H[Im k] - H(-x)H[-Im k]} * q_exp_complex(k, x, q).

    Defined off the real k axis only; real-axis values are boundary limits and
    are computed directly by the transform module. Vanishes identically on the
    quadrants {x>0, Im k<0} and {x<0, Im k>0}. The measure-zero point x = 0
    returns 0 (integrators never sample it).
    """
    qp = as_qparam(q)
    k = complex(k)
    if k.imag == 0.0:
        raise ValueError(
            "ultra_kernel requires Im k != 0; use the transform module's "
            "real-axis path for boundary values"
        )
    if x > 0 and k.imag > 0:
        return q_exp_complex(k, x, qp)
    if x < 0 and k.imag < 0:
        return -q_exp_complex(k, x, qp)
    return 0j
