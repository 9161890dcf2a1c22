"""q-deformed exponentials and the two-sheeted kernel built from them.

The branch convention is fixed here: complex powers use the principal
branch of the logarithm, and q = 1 is an exact separate code path, never a
small-epsilon substitute. Every q != 1 power of the kernel's base, in the
transform's integrand, the closed forms and q_exp_complex alike, is taken
by _deformed_power; ultra never evaluates the kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, PoleError, float_range, scalar


@dataclass(frozen=True)
class QParam:
    """Deformation index restricted to the band 1 <= q < 2."""

    q: float

    def __post_init__(self):
        q = scalar("q", self.q)
        if not 1.0 <= q < 2.0:
            raise ValueError(f"q={q} outside the valid band [1, 2)")
        object.__setattr__(self, "q", q)

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
    integrating zeros. A value past float range raises NonFiniteError, at
    q = 1 as for a base near 0 at q != 1.
    """
    qp = as_qparam(q)
    x = scalar("x", x)
    with float_range(NonFiniteError, "deformed exponential overflows float "
                     "at q={!r}, x={!r}", qp.q, x):
        if qp.classical:
            return CutoffReal(math.exp(x), False)
        base = 1.0 + (1.0 - qp.q) * x
        if base <= 0.0:
            return CutoffReal(0.0, True)
        return CutoffReal(base ** (1.0 / (1.0 - qp.q)), False)


def q_exp_complex(k: complex, x: float, q) -> complex:
    """Deformed plane wave [1 + i(1-q)kx]^{1/(1-q)}, principal branch.

    exp(ikx) at q = 1. For real k the modulus is (1+(1-q)^2 k^2 x^2)^{1/(2(1-q))},
    which never exceeds 1 for q in (1,2). For q != 1 the value is
    _deformed_power's. A value past float range raises NonFiniteError, as
    the transform's kernel does, at q = 1 and at q != 1.
    """
    qp = as_qparam(q)
    k, x = scalar("k", k, complex), scalar("x", x)
    guard = float_range(NonFiniteError, "deformed exponential overflows "
                        "float at q={!r}, k={!r}, x={!r}", qp.q, k, x)
    if qp.classical:
        with guard:
            return cmath.exp(1j * k * x)
    c = (1.0 - qp.q) * x
    b, d = c * k.real, -c * k.imag
    if b == 0.0 and d == -1.0:
        raise PoleError("deformed exponential pole: 1 + i(1-q)kx = 0")
    with np.errstate(over="ignore", invalid="ignore"):
        w = complex(_deformed_power(qp.q, np.array([b]), np.array([d]))[0])
    if not cmath.isfinite(w):
        raise guard.error()
    return w


def _deformed_power(qv, b, d=None, scale=1.0):
    """scale * ((1 + d) + i b)^(1/(1-q)) at q = qv != 1, principal branch,
    on real arrays b and d of one shape; d=None stands for d = 0 and skips
    its terms, with the bits the general form gives there.

    The kernel's base 1 + i(1-q) k X is (1 + d) + i b with c = (1-q) X,
    b = c Re k, d = -c Im k. In real arithmetic, which numpy runs in SIMD,
    the modulus comes from log1p(d(2+d) + b^2), keeping the digits of
    |base|^2 - 1 near |base| = 1, and the phase theta from arctan2(b, 1 + d).
    Where 1 + d < 1/2, on the side of the pole the transform never
    integrates, |base|^2 - 1 is near -1 and the log-modulus is taken as
    log(hypot(1 + d, b)) instead. The phase factor e^{i theta} comes from
    t = tan(theta/2), as cos theta = (1 - t^2)/(1 + t^2) and
    sin theta = 2t/(1 + t^2): numpy's tan is a SIMD loop, its cos and sin
    are scalar libm calls. The value is within a few ulps of 1 + |w|,
    w = log(base)/(1-q). Where |base|^2 overflows (|b| above about
    1.3e154), the log-modulus is 2 log(hypot(1 + d, b)) instead of inf:
    the modulus there is tiny but not 0, and a caller may scale it up
    again, as the algebraic-tail map's Jacobian of order 1e160 does. One
    max over the log-moduli finds such nodes; a nan node hides them, and
    the kernel raises on that node. scale multiplies the modulus.

    The call writes only into arrays it allocated and into b, which is
    overwritten; d and scale are left alone. b must be a fresh contiguous
    array: numpy's SIMD loops can give other bits on a strided or reversed
    view. The caller holds numpy's error state.
    """
    if d is None:
        r, e = b * b, 1.0
    else:
        r = 2.0 + d
        r *= d
        r += b * b
        e = 1.0 + d
        near = e < 0.5
    # |value| = scale |base|^(1/(1-q)), |base|^2 = 1 + r
    if d is not None and np.count_nonzero(near):
        # 2 log|base| there; log1p is kept off those nodes, where r can
        # round to -1
        r[near] = 0.0
        np.log1p(r, out=r)
        r[near] = 2.0 * np.log(np.hypot(e[near], b[near]))
    else:
        np.log1p(r, out=r)
    top = r.max() if r.size else 0.0
    if top == math.inf:
        # |base|^2 overflowed: 2 log|base| there, from the unsquared sides
        big = r == math.inf
        r[big] = 2.0 * np.log(np.hypot(e if d is None else e[big], b[big]))
    r *= 0.5 / (1.0 - qv)
    mod = np.exp(r, out=r)
    mod *= scale
    # with h = mod/(1 + t^2), value = (2h - mod) + 2i t h; the real part
    # is taken as (h - mod) + h, so that no term exceeds mod, which for
    # t^2 <= 1 gives the bits of 2h - mod (Sterbenz: h - mod is exact).
    # Each part is built in a contiguous array: numpy writes a strided
    # output such as out.real slower than it copies one.
    t = np.arctan2(b, e, out=b)
    t *= 0.5 / (1.0 - qv)
    np.tan(t, out=t)
    h = t * t
    h += 1.0
    np.divide(mod, h, out=h)
    re = np.subtract(h, mod, out=mod)
    re += h
    t *= h
    t += t
    # h goes before the complex result comes, which lowers the peak
    del h
    out = np.empty(b.shape, dtype=complex)
    out.real = re
    out.imag = t
    return out


def ultra_kernel(k: complex, x: float, q) -> complex:
    """Half-plane kernel {H(x)H[Im k] - H(-x)H[-Im k]} * q_exp_complex(k, x, q).

    Defined off the real k axis only; real-axis values are boundary limits and
    are computed directly by the transform module. Vanishes identically on the
    quadrants {x>0, Im k<0} and {x<0, Im k>0}. The measure-zero point x = 0
    returns 0 (integrators never sample it).
    """
    qp = as_qparam(q)
    k, x = scalar("k", k, complex), scalar("x", x)
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
