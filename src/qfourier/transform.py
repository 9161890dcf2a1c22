"""Forward transform: membership analysis and adaptive evaluation.

The integrand is f(x) {1 + i(1-q) k x f(x)^(q-1)}^(1/(1-q)). Its base has
real part >= 1 whenever x > 0 with Im k >= 0 (and symmetrically x < 0 with
Im k <= 0), so no pole can sit on an integration path; a node that breaks
this raises PoleError, and a kernel value that is not finite raises
NonFiniteError rather than being cleared.

Half-plane semantics: the upper tag integrates over x > 0, the lower tag
contributes minus the integral over x < 0, and the real_limit tags evaluate
the same one-sided integrals at real k. The full real-axis transform is the
sum of the two real_limit pieces (see qft_real_line).

Infinite tails are handled three ways. Super-algebraic densities are cut
at a point where an explicit bound on the remainder drops below the
absolute tolerance, and the bound is added to the error estimate. A
constant tail (Heaviside, Constant) takes the kernel's closed primitive
from x = 0, exact up to rounding, with no quadrature. Other algebraically
decaying integrands are mapped onto (0, 1] by x = X1 v^(-p) past a
finite part up to X1; p is chosen from the decay exponent so the
transformed integrand vanishes at v = 0. It stops where its Jacobian
nears the largest float, and the mass past there is bounded from one
kernel value and added to the error estimate, as the cut's remainder is.
Past the linear-phase region the kernel's total remaining phase is
bounded by pi/(2(q-1)), so the mapped tail is at most mildly oscillatory.

Every finite piece starts from equal seed panels, one per 0.8 kernel
periods and never fewer than eight (the mapped tail on [v0, 1] included),
within a quarter of the subdivision budget. An integrand call costs far
more than the panels it carries, so most short pieces converge on their
seeds in one call rather than by bisection.

For q != 1 the kernel's power is qcore._deformed_power's, taken in real
arithmetic. One numpy error state covers each half-line piece, and the
integrands check their own values.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (BoundaryRegimeError, ConvergenceError, MembershipError,
                     NonFiniteError, PoleError, float_range)
from .qcore import QParam, _deformed_power, as_qparam
from .quadrature import _EPS, _XGK, adaptive_quad


class FunctionSpec:
    """Base for the nonnegative densities the transform accepts."""

    kind = "abstract"

    def values(self, x):
        raise NotImplementedError

    def support(self):
        """(lo, hi), possibly infinite."""
        raise NotImplementedError

    def peak_value(self) -> float:
        raise NotImplementedError

    def tail_exponent(self):
        """None for compact support, math.inf for faster-than-algebraic
        decay, otherwise the exponent g with f ~ |x|^-g at infinity. g = 0
        promises f = peak_value() on all of each half-line, x > 0 or x < 0,
        that the support reaches infinity on, whatever values(0) is: the
        transform takes such a piece in closed form, with no quadrature."""
        raise NotImplementedError

    def length_scale(self) -> float:
        """Width over which f falls off; sizes the super-algebraic tail cut
        and the default inversion grids."""
        return 1.0

    def jump_points(self):
        """x positions where f jumps; roundtrip sizes its k range by them
        and leaves windows around them out of the residual."""
        return ()

    def even(self) -> bool:
        """True when the support is symmetric about 0 and values(-x) has
        the bits of values(x) for every x: qft_real_line then integrates
        x > 0 alone and takes x < 0 as its mirror. False unless a class
        vouches for its own values()."""
        return False


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def _finite(*vals):
    return all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and math.isfinite(v) for v in vals)


@dataclass(frozen=True)
class PowerLaw(FunctionSpec):
    """f(x) = (lam/x)^beta on [a, b], zero elsewhere; 0 < a < b."""
    lam: float
    beta: float
    a: float
    b: float
    kind = "powerlaw"

    def __post_init__(self):
        _require(_finite(self.lam, self.beta, self.a, self.b),
                 "PowerLaw parameters must be finite numbers")
        _require(self.lam > 0, f"lam must be > 0, got {self.lam}")
        _require(0 < self.a < self.b,
                 f"need 0 < a < b, got a={self.a}, b={self.b}")
        # the profile is monotone in x, so its ends bound it on [a, b]
        with np.errstate(over="ignore"):
            ends = (self.lam / np.array([self.a, self.b])) ** self.beta
        _require(bool(np.all(np.isfinite(ends))),
                 f"(lam/x)^beta overflows at x=a or x=b for lam={self.lam}, "
                 f"beta={self.beta}, a={self.a}, b={self.b}")

    def values(self, x):
        x = np.asarray(x, dtype=float)
        m = x >= self.a
        m &= x <= self.b
        # x is moved into [a, b] off the window, so nothing divides by 0
        # or overflows there, and v is finite for the product with the
        # mask to clear it
        v = np.where(m, x, self.a)
        np.divide(self.lam, v, out=v)
        v **= self.beta
        v *= m
        return v

    def support(self):
        return (self.a, self.b)

    def jump_points(self):
        return (self.a, self.b)

    def peak_value(self):
        return max((self.lam / self.a) ** self.beta,
                   (self.lam / self.b) ** self.beta)

    def tail_exponent(self):
        return None


@dataclass(frozen=True)
class Heaviside(FunctionSpec):
    """Unit step: sign=+1 selects x > 0, sign=-1 selects x < 0."""
    sign: int = 1
    kind = "heaviside"

    def __post_init__(self):
        _require(self.sign in (1, -1), f"sign must be +1 or -1, got {self.sign}")

    def values(self, x):
        x = np.asarray(x, dtype=float)
        return ((self.sign * x) > 0).astype(float)

    def support(self):
        return (0.0, math.inf) if self.sign == 1 else (-math.inf, 0.0)

    def peak_value(self):
        return 1.0

    def tail_exponent(self):
        return 0.0


@dataclass(frozen=True)
class Constant(FunctionSpec):
    """f = c on the whole line, c >= 0."""
    c: float = 1.0
    kind = "constant"

    def __post_init__(self):
        _require(_finite(self.c) and self.c >= 0,
                 f"c must be finite and >= 0, got {self.c}")

    def values(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def support(self):
        if self.c == 0:
            return (0.0, 0.0)
        return (-math.inf, math.inf)

    def peak_value(self):
        return self.c

    def tail_exponent(self):
        return 0.0


@dataclass(frozen=True)
class Gaussian(FunctionSpec):
    """f(x) = exp(-x^2 / (2 sigma^2)), unit amplitude."""
    sigma: float = 1.0
    kind = "gaussian"

    def __post_init__(self):
        _require(_finite(self.sigma) and self.sigma > 0,
                 f"sigma must be finite and > 0, got {self.sigma}")
        _require(math.isfinite(2.0 * self.sigma * self.sigma),
                 f"2 sigma^2 overflows for sigma={self.sigma}")
        # values() divides x * x by 2 sigma^2, as it computes it; a
        # subnormal sigma^2 (and x * x near x = sigma) has lost its digits
        _require(self.sigma ** 2 >= sys.float_info.min,
                 f"sigma^2 underflows below the normal float range for "
                 f"sigma={self.sigma}")

    def values(self, x):
        # -x^2 / (2 sigma^2) as x^2 / -(2 sigma^2), the same bits
        v = np.array(x, dtype=float)
        v *= v
        v /= -2.0 * self.sigma ** 2
        return np.exp(v, out=v)

    def support(self):
        return (-math.inf, math.inf)

    def peak_value(self):
        return 1.0

    def tail_exponent(self):
        return math.inf

    def length_scale(self):
        return self.sigma

    def even(self):
        # values() squares x; a subclass may override values()
        return type(self) is Gaussian


@dataclass(frozen=True)
class QGaussian(FunctionSpec):
    """Deformed bell curve [1 - (1-q_g) beta_g x^2]_+^(1/(1-q_g)).

    Compactly supported for q_g < 1; a plain Gaussian at q_g = 1; heavy
    algebraic tails |x|^(-2/(q_g-1)) for 1 < q_g < 3.
    """
    q_g: float
    beta_g: float
    kind = "qgaussian"

    def __post_init__(self):
        _require(_finite(self.q_g, self.beta_g),
                 "QGaussian parameters must be finite numbers")
        _require(self.q_g < 3, f"q_g must be < 3 for integrability, got {self.q_g}")
        _require(self.beta_g > 0, f"beta_g must be > 0, got {self.beta_g}")

    def values(self, x):
        x = np.asarray(x, dtype=float)
        if self.q_g == 1.0:
            return np.exp(-self.beta_g * x * x)
        base = 1.0 - (1.0 - self.q_g) * self.beta_g * x * x
        out = np.maximum(base, 0.0) ** (1.0 / (1.0 - self.q_g))
        far = np.isposinf(base)
        if np.count_nonzero(far):
            # base overflows past |x| ~ 1e154, where its 1 is below rounding
            out = np.array(out)
            out[far] = np.exp((math.log((self.q_g - 1.0) * self.beta_g) + 2.0
                               * np.log(np.abs(x[far]))) / (1.0 - self.q_g))
        return out

    def support(self):
        if self.q_g < 1.0:
            xc = 1.0 / math.sqrt((1.0 - self.q_g) * self.beta_g)
            return (-xc, xc)
        return (-math.inf, math.inf)

    def peak_value(self):
        return 1.0

    def tail_exponent(self):
        if self.q_g < 1.0:
            return None
        if self.q_g == 1.0:
            return math.inf
        return 2.0 / (self.q_g - 1.0)

    def length_scale(self):
        # the Gaussian sigma at q_g = 1
        return 1.0 / math.sqrt(2.0 * self.beta_g)

    def even(self):
        # values() depends on x through x * x and |x| only
        return type(self) is QGaussian


@dataclass(frozen=True, eq=False)
class Sampled(FunctionSpec):
    """Piecewise-linear density through (x, y) samples, zero outside."""
    x: object
    y: object
    kind = "sampled"

    def __post_init__(self):
        xs = np.asarray(self.x, dtype=float)
        ys = np.asarray(self.y, dtype=float)
        _require(xs.ndim == 1 and xs.shape == ys.shape and len(xs) >= 2,
                 "Sampled needs matching 1-d x and y with >= 2 points")
        _require(np.all(np.isfinite(xs)) and np.all(np.isfinite(ys)),
                 "Sampled grids must be finite")
        _require(bool(np.all(np.diff(xs) > 0)),
                 "Sampled x grid must be strictly increasing")
        _require(bool(np.all(ys >= 0)),
                 "Sampled values must be nonnegative")
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "y", ys)

    def values(self, x):
        return np.interp(np.asarray(x, dtype=float), self.x, self.y,
                         left=0.0, right=0.0)

    def support(self):
        return (float(self.x[0]), float(self.x[-1]))

    def jump_points(self):
        # zero outside the samples: a nonzero end sample is a jump
        return tuple(float(x) for x, y in ((self.x[0], self.y[0]),
                                           (self.x[-1], self.y[-1])) if y)

    def peak_value(self):
        return float(self.y.max())

    def tail_exponent(self):
        return None


class PlaneTag(Enum):
    UPPER = "upper"
    LOWER = "lower"
    REAL_LIMIT_UPPER = "real_limit_upper"
    REAL_LIMIT_LOWER = "real_limit_lower"


# the tags whose piece integrates over x < 0
_LOWER_TAGS = (PlaneTag.LOWER, PlaneTag.REAL_LIMIT_LOWER)

# the "k must be finite" error of a k that float() cannot take, such as
# an int of 2^1024 or more
_K_OUT_OF_RANGE = "k must be finite, got a number beyond float range"


@dataclass(frozen=True)
class HalfPlanePoint:
    """A transform evaluation point: k plus which half-plane piece."""
    k: complex
    plane: PlaneTag

    def __post_init__(self):
        # each message is formatted only when it is raised: a point is
        # built for every transform evaluation
        with float_range(ValueError, _K_OUT_OF_RANGE):
            k = complex(self.k)
        if not (math.isfinite(k.real) and math.isfinite(k.imag)):
            raise ValueError(f"k must be finite, got {k!r}")
        object.__setattr__(self, "k", k)
        if self.plane is PlaneTag.UPPER:
            if not k.imag > 0:
                raise ValueError(f"upper tag needs Im k > 0, got {k!r}")
        elif self.plane is PlaneTag.LOWER:
            if not k.imag < 0:
                raise ValueError(f"lower tag needs Im k < 0, got {k!r}")
        elif self.plane in (PlaneTag.REAL_LIMIT_UPPER,
                            PlaneTag.REAL_LIMIT_LOWER):
            if k.imag != 0:
                raise ValueError(
                    f"real_limit tags need Im k = 0, got {k!r}")
        else:
            raise ValueError(f"unknown plane tag {self.plane!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        _require(_finite(self.rel_tol, self.abs_tol)
                 and self.rel_tol > 0 and self.abs_tol > 0,
                 "tolerances must be finite and > 0")
        _require(isinstance(self.max_subdivisions, int)
                 and not isinstance(self.max_subdivisions, bool)
                 and self.max_subdivisions >= 4,
                 "max_subdivisions must be an integer >= 4")


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    integrable_pos: bool
    integrable_neg: bool
    decay_exponent: float | None
    detail: str


@dataclass(eq=False)
class TransformSurface:
    """A q_list x k_grid table of transform values and error estimates.

    why[i][j] is None for a good cell, else the reason cell (i, j) failed;
    failed is the mask of cells with a reason.
    """
    k_grid: tuple
    q_list: tuple
    values: np.ndarray
    err: np.ndarray
    why: list

    def __post_init__(self):
        shape = (len(self.q_list), len(self.k_grid))
        _require(self.values.shape == shape and self.err.shape == shape
                 and len(self.why) == shape[0]
                 and all(len(row) == shape[1] for row in self.why),
                 "surface matrices must be |q_list| x |k_grid|")
        _require(bool(np.all(self.err[~self.failed] >= 0)),
                 "error estimates must be nonnegative")

    @property
    def failed(self) -> np.ndarray:
        return np.array([[w is not None for w in row] for row in self.why],
                        dtype=bool).reshape(self.values.shape)


def _integrand_decay(gamma_f, qv):
    """Decay exponent d of the integrand at infinity: integrand ~ x^-d."""
    if gamma_f is None:
        return None
    if gamma_f == math.inf:
        return math.inf
    if qv == 1.0:
        return gamma_f
    s = 1.0 - gamma_f * (qv - 1.0)
    return 1.0 / (qv - 1.0) if s >= 0 else gamma_f


def membership_check(f: FunctionSpec, q) -> MembershipReport:
    """Integrability of f times the deformed kernel on each half-line.

    Closed-form variants are classified by their decay exponent; a compact
    support is a member outright.
    """
    qp = as_qparam(q)
    lo, hi = f.support()
    if f.peak_value() == 0.0:
        return MembershipReport(True, True, True, None,
                                "density is identically zero")
    d = _integrand_decay(f.tail_exponent(), qp.q)
    notes = []
    if hi == math.inf or lo == -math.inf:
        if d == math.inf:
            ok = True
            notes.append("super-algebraic decay dominates any kernel power")
        else:
            ok = d > 1.0
            notes.append(f"integrand ~ |x|^-{d:g} at infinity")
        integrable_pos = ok if hi == math.inf else True
        integrable_neg = ok if lo == -math.inf else True
        exponent = -d if d != math.inf else -math.inf
    else:
        integrable_pos = integrable_neg = True
        exponent = None
        notes.append("compact support")
    member = integrable_pos and integrable_neg
    if not member:
        notes.append("needs q > 1 for a convergent integral"
                     if qp.classical else "decay too slow for this q")
    return MembershipReport(member, integrable_pos, integrable_neg,
                            exponent, "; ".join(notes))


def _kernel_integrand(f: FunctionSpec, qv: float, k, reflect):
    """Vectorized integrand on a positive half-line variable u, one row per k.

    integrand(u, rows) evaluates u[i] with wavenumber k[rows[i]];
    reflect=False puts the nodes at x = u, reflect=True at x = -u, and a
    boolean array reflect picks the side per k. A call whose rows all lie
    on one side takes u or -u whole. A node on the wrong side of the
    kernel's branch point raises PoleError, and a kernel value that is not
    finite, as at a nan of f, raises NonFiniteError. It writes only into
    arrays it allocated: u and rows are left alone, and the array it
    returns shares no memory with u.

    For q != 1 the kernel is qcore._deformed_power at X = x f^(q-1), scaled
    by f, with no d when every k is real. The caller holds numpy's error
    state (see _qft_rows).
    """
    k = np.asarray(k, dtype=complex)
    k_re, minus_im = k.real, -k.imag
    real = not np.count_nonzero(minus_im)
    sides = np.asarray(reflect, dtype=bool)

    def integrand(u, rows):
        u = np.asarray(u, dtype=float)
        flip = sides[rows] if sides.ndim else sides
        n_flip = np.count_nonzero(flip)
        if not n_flip:
            x = u
        elif n_flip == flip.size:
            x = -u
        else:
            x = np.array(u)
            np.negative(x, out=x, where=flip[:, None])
        y = f.values(x)
        # the support, and any nan of f, which the finiteness check names
        m = ~(y <= 0)
        # np.count_nonzero costs a third of ndarray.any() on a short mask
        on = np.count_nonzero(m)
        if not on:
            return np.zeros(u.shape, dtype=complex)
        # evaluated on every node, then cleared off the support (y = 0)
        if qv == 1.0:
            out = 1j * k[rows][:, None] * x
            np.exp(out, out=out)
            out *= y
        else:
            c = (1.0 - qv) * x
            c *= y ** (qv - 1.0)
            d = None
            if not real:
                d = c * minus_im[rows][:, None]
                _check(d < -1e-9, PoleError,
                       "kernel pole on the integration path", qv, rows, k, x)
            c *= k_re[rows][:, None]
            out = _deformed_power(qv, c, d, y)
        bad = ~np.isfinite(out)
        bad &= m
        _check(bad, NonFiniteError, "kernel value is not finite", qv, rows,
               k, x)
        if on < m.size:
            out[~m] = 0.0
        return out

    return integrand


def _tail_map(gfun, m0, X1, p):
    """Integrand of a row table whose rows from m0 on are mapped algebraic
    tails (gfun's before them): row m0 + j takes v in (0, 1] to x = X1[j]
    v^-p[j] and scales gfun there by the Jacobian p[j] x/v. It writes only
    into arrays it allocated: u and rows are left alone. The caller keeps v
    where x, the Jacobian and v^-(p+1) stay in float range (_qft_rows
    starts each row at v0)."""
    def mapped(u, rows):
        on = rows >= m0
        n_on = np.count_nonzero(on)
        if not n_on:
            return gfun(u, rows)
        whole = n_on == on.size
        v = u if whole else u[on]
        t = rows[on] - m0
        x, jac = np.empty_like(v), np.empty_like(v)
        X1t, pt = X1[t][:, None], p[t]
        # one scalar exponent at a time: numpy's power takes other
        # paths for an exponent array, and the bits would move
        exps = set(pt.tolist())
        for pu in exps:
            s = pt == pu if len(exps) > 1 else slice(None)
            x[s] = X1t[s] * v[s] ** (-pu)
            jac[s] = X1t[s] * pu * v[s] ** (-pu - 1.0)
        if not whole:
            x_all = np.array(u)
            x_all[on] = x
            x = x_all
        out = gfun(x, rows)
        if whole:
            out *= jac
        else:
            out[on] *= jac
        return out

    return mapped


def _check(bad, error, what, qv, rows, k, x):
    """Raise error naming q, k and x at the first node flagged in bad."""
    if np.count_nonzero(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise error(f"{what} at q={qv!r}, k={complex(k[rows[i]])!r}, "
                    f"x={float(x[i, j])!r}")


# Fewest seed panels of a finite piece of a half-line integral (within a
# quarter of the subdivision budget). Against 1, this cuts transform-sweep's
# gk15_panel calls from 14,868 to 6,078 per pass for 1.3x the nodes; 6 and
# 12 made its Heaviside rows less accurate.
_SEED_FLOOR = 8

# The first Gauss-Kronrod node of a panel sits this fraction of its width
# in from the panel's start
_NODE_INSET = 0.5 * (1.0 - float(_XGK[0]))

# Ratio of consecutive edges A + l R^j of the rows that grade a piece's
# start, and the least l graded: its rows' panels can still be bisected
# about 18 times before their width leaves the normal float range
_GRADE = 16.0
_ELL_MIN = 2.0 ** -1000


def _osc_panels(A, B, freq, qv, cap):
    """Seed panel counts of the rows [A[i], B[i]] (or [A, B[i]] for a
    scalar A), one panel per 0.8 kernel periods at frequency freq[i].

    The phase is freq (B - A), capped at pi/(q-1): the kernel's phase stays
    within +-pi/(2(q-1)), so it turns by no more than that. Near q = 1 a
    long window gets dense seeds, and a q well above 1, where freq
    overstates the phase, is not over-seeded. At most cap panels, and at
    least min(_SEED_FLOOR, cap), so a short or slowly turning row mostly
    converges on its seeds in one integrand call; a row of zero width or
    with an infinite B gets one. The rule runs row by row in Python floats.
    """
    floor = min(_SEED_FLOOR, cap)
    turn = math.pi / (qv - 1.0) if qv > 1.0 else math.inf
    period = 2.0 * math.pi * 0.8
    counts = []
    for width, f in zip((B - A).tolist(), freq.tolist()):
        if not (width > 0 and math.isfinite(width)):
            counts.append(1)
            continue
        # a freq of 0 or NaN gives a phase of 0 or NaN, so n >= floor fails
        n = min(min(f * width, turn) / period, cap)
        counts.append(int(n) if n >= floor else floor)
    return np.array(counts, dtype=int)


def _raise_failed(values, errs, why):
    """Raise the ConvergenceError of the lowest row with a reason in why.

    Its message is that reason with the row's summed err, and it carries
    the reason, that row's summed value and err, and values, errs and the
    failed mask of every row (a scalar value is the one-row case). Nothing
    happens when every row converged.
    """
    if any(why):
        values, errs = np.atleast_1d(values, errs)
        failed = np.array([w is not None for w in why])
        row = int(failed.argmax())
        raise ConvergenceError(
            f"{why[row]} (err~{errs[row]:.3e})", reason=why[row],
            value=complex(values[row]), err=float(errs[row]), row=row,
            values=values, errs=errs, failed=failed)


def _admitted(f: FunctionSpec, q) -> QParam:
    """q as a QParam; raises MembershipError unless f is a member there."""
    qp = as_qparam(q)
    report = membership_check(f, qp)
    if not report.member:
        raise MembershipError(
            f"{f.kind} is outside the admissible set at q={qp.q:g}: "
            f"{report.detail}")
    return qp


def _head_rows(A, ends, freq, qv, k, cap):
    """The finite row table (piece, lo, hi, panels) of the pieces
    [A[i], ends[i]]: row i is piece i's own row, and the rows past them
    grade the start of each piece whose kernel falls off before the first
    node of its first seed panel. panels is _osc_panels of each row.

    For q > 1 the kernel's modulus falls like |base|^(-1/(q-1)), and
    |base| passes sqrt(2) within l = 1/((q-1) freq) of x = 0. Where l lies
    below that node, a Gauss-Kronrod inset of the first panel's width, no
    node sees the piece's mass and the err cannot see it either. Such a
    piece's own row starts at A + l R^J instead, the least such edge at or
    past that node (R = _GRADE), and rows [A, A + l], [A + l, A + l R],
    ..., [A + l R^(J-1), A + l R^J], each clipped to the piece's end,
    follow in x order and cover what it left: a row of at least 8 seed
    panels has its first node within 1% of its start's distance from A.
    The rule runs row by row in Python floats; where no row moved (always
    at q = 1) A and ends come back as lo and hi.

    An l below _ELL_MIN raises BoundaryRegimeError naming q and k: the
    panels there would be too narrow for gk15_panel, whose panel mean
    divides by the width.
    """
    piece, lo, hi = np.arange(A.size), A, ends
    panels = _osc_panels(A, ends, freq, qv, cap)
    if qv == 1.0:
        return piece, lo, hi, panels
    rows = list(zip(piece.tolist(), A.tolist(), ends.tolist()))
    # l < first for first = inset (b - a)/n, in a form without 1/freq
    slope = (qv - 1.0) * _NODE_INSET
    for i, (a, b, n, fr) in enumerate(zip(A.tolist(), ends.tolist(),
                                          panels.tolist(), freq.tolist())):
        if not slope * fr * (b - a) > n:
            continue
        edge = 1.0 / ((qv - 1.0) * fr)
        if edge < _ELL_MIN:
            raise BoundaryRegimeError(
                f"the kernel at q={qv!r}, k={complex(k[i])!r} falls off "
                f"within {edge:.3e} of x = {a!r}, below the panel width "
                "the quadrature resolves")
        first, start = _NODE_INSET * (b - a) / n, a
        while start < b:
            end = min(a + edge, b)
            rows.append((i, start, end))
            start = end
            if edge >= first:
                break
            edge *= _GRADE
        rows[i] = (i, start, b)
    if len(rows) > A.size:
        piece, lo, hi = (np.array(v) for v in zip(*rows))
        panels = _osc_panels(lo, hi, freq[piece], qv, cap)
    return piece, lo, hi, panels


def _closed_tail(qv, k, c):
    """Half-line pieces of a constant density c, one per k, in closed form
    from x = 0, and a bound on each one's rounding error.

    On x > 0 the integrand c base^(1/(1-q)), base = 1 + i(1-q) k x
    c^(q-1), has the primitive c base^((2-q)/(1-q)) / (i(2-q) k c^(q-1)),
    0 at infinity for 1 < q < 2, so the piece is i c^(2-q)/((2-q) k). On
    x < 0 (u = -x, k_s = -k) the piece, negated as _qft_rows negates that
    side, is the same. The power and the real and complex quotients stay
    within 1.7 eps (20,000 random q, c and k against mpmath); the bound
    is 8 eps |v|, plus ulp(0) (1 + 2/|k|) for roundings below the normal
    range. A value or bound that is not finite raises
    BoundaryRegimeError naming q and the first such k.
    """
    t = c ** (2.0 - qv) / (2.0 - qv)
    with np.errstate(over="ignore", invalid="ignore"):
        v = 1j * t / k
        # numpy's i/(-x) has real part -0; +0 makes it +0 as at x, so a real
        # k and its mirror -k differ in Im alone (qft_surface copies them)
        v.real += 0.0
        bound = 8.0 * _EPS * np.hypot(v.real, v.imag) + math.ulp(0.0) * (
            1.0 + 2.0 / np.hypot(k.real, k.imag))
    bad = ~(np.isfinite(v) & np.isfinite(bound))
    if np.count_nonzero(bad):
        raise float_range(
            BoundaryRegimeError, "the constant tail's closed-form remainder "
            "leaves float range at q={!r}, k={!r}", qv,
            complex(k[np.argmax(bad)])).error()
    return v, bound


def _qft_rows(f: FunctionSpec, qp: QParam, k, reflect,
              cfg: QuadratureConfig | None):
    """Half-line pieces of the transform, one per entry of a 1-d k: over
    x < 0 where the boolean array reflect is true, else over x > 0, at a
    qp that _admitted has passed. Returns (values, errs, why) as
    adaptive_quad's row form does, one row per k.

    A piece integrates over u = x on [max(lo, 0), hi], or over u = -x on
    [-min(hi, 0), -lo] for the negative side, whose sum is negated at the
    end. The tail picks the route. A finite end is one interval. A
    super-algebraic tail is cut where an explicit remainder bound (added
    to err) falls under abs_tol. A constant tail (Heaviside, Constant:
    then A = 0 and f = c on all of the half-line) is its closed form from
    x = 0 with that form's rounding bound as err (_closed_tail), and no
    row. Any other algebraic tail has a finite part to X1 = A + 12/freq
    (at most A + 1e9) and is mapped onto [v0, 1] past X1 (_tail_map), up
    to x_end = X1 v0^-p: at v0 the Jacobian p x/v, or v^-(p+1) where
    p X1 < 1, reaches a quarter of the largest float. _head_rows gives the
    finite rows, grading rows included; the mapped tails follow them in
    one table that one adaptive_quad call integrates in one numpy error
    state, each row with the bits it would have alone. One kernel call at
    each infinite tail's last x, the cut point or x_end, bounds the mass
    past it in the piece's err. A piece sums its own row, then its grading
    rows, then its mapped tail, and takes the reason of its first failing
    part: a piece that missed tolerance keeps the sum as its best estimate.
    A mapped tail's bound |g(x_end)| x_end/(decay - 1), an asymptotic
    estimate, raises BoundaryRegimeError where it alone exceeds its
    tolerance.
    """
    cfg = cfg if cfg is not None else QuadratureConfig()
    n = k.size
    values, errs, why = np.zeros(n, dtype=complex), np.zeros(n), [None] * n
    lo, hi = f.support()
    A = np.where(reflect, -min(hi, 0.0), max(lo, 0.0))
    ends = np.where(reflect, -lo, hi)
    qv, gamma_f = qp.q, f.tail_exponent()
    live, tail = ends > A, ends == math.inf
    if gamma_f is not None and gamma_f <= 1.0 and np.any(k[tail] == 0):
        raise ValueError(
            "k=0 reduces the transform to the plain integral of f, "
            f"which diverges for {f.kind}")
    if gamma_f == 0.0:
        # f = c on all of the half-line (A = 0): no quadrature row
        values[tail], errs[tail] = _closed_tail(qv, k[tail], f.peak_value())
        live &= ~tail
    live = np.flatnonzero(live)
    if not live.size:
        return values, errs, why
    k, reflect, A, ends = k[live], reflect[live], A[live], ends[live]
    m, far = live.size, np.flatnonzero(ends == math.inf)
    # a super-algebraic tail is cut, any other algebraic tail is mapped
    cut, tail = (far, far[:0]) if gamma_f == math.inf else (far[:0], far)

    # np.hypot rounds like the scalar abs(); np.abs on a complex array does not
    freq = np.hypot(k.real, k.imag) * f.peak_value() ** (qv - 1.0)
    cap = min(256, max(cfg.max_subdivisions // 4, 1))
    # one error state for the whole table: the kernel's real parts overflow
    # to the true limit, a plane wave's overflowing phase gives nan, and
    # the tail's 12/freq divides by 0 at k = 0; _kernel_integrand checks
    # what it returns
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if cut.size:
            # explicit cut where the remainder bound drops under abs_tol
            width = max(f.length_scale(), 1.0)
            ends[cut] = A[cut] + width * (
                math.sqrt(2.0 * math.log(1.0 / cfg.abs_tol)) + 1.5)
            last, scale = ends[cut], width
        if tail.size:
            # algebraic tail: finite oscillatory part to X1, then the map
            X1 = A[tail] + np.where(freq[tail] > 1e-9, 12.0 / freq[tail], 1.0)
            X1 = np.minimum(X1, A[tail] + 1e9)
            ends[tail] = X1
            decay = np.where(k[tail] == 0, gamma_f,
                             _integrand_decay(gamma_f, qv))
            p = np.minimum(60.0, np.maximum(1.0, 2.0 / (decay - 1.0)))
            v0 = (4.0 * np.maximum(p * X1, 1.0) / sys.float_info.max) ** (
                1.0 / (p + 1.0))
            last = X1 * v0 ** -p
            scale = last / (decay - 1.0)
        piece, row_lo, row_hi, panels = _head_rows(A, ends, freq, qv, k, cap)
        # the piece of every row: the finite rows, then the mapped tails
        table = np.concatenate([piece, tail])
        gfun = _kernel_integrand(f, qv, k[table], reflect[table])
        val, err, reasons = adaptive_quad(
            _tail_map(gfun, piece.size, X1, p) if tail.size else gfun,
            np.concatenate([row_lo, v0 if tail.size else []]),
            np.concatenate([row_hi, np.ones(tail.size)]),
            rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
            max_subdivisions=cfg.max_subdivisions,
            panels=np.concatenate([panels, np.full(tail.size,
                                                   min(_SEED_FLOOR, cap))]))
        if far.size:
            # past each infinite tail's last x, |g| width bounds a cut's
            # remainder and |g| x_end/(decay - 1) a map's (g ~ x^-decay)
            g = gfun(last[:, None], far)[:, 0]
            bound = np.hypot(g.real, g.imag) * scale
            err[far] += bound
    if table.size > m:
        # rows past m add into their piece, in table order
        np.add.at(val, table[m:], val[m:])
        np.add.at(err, table[m:], err[m:])
        for i, w in zip(table[m:].tolist(), reasons[m:]):
            reasons[i] = reasons[i] or w
        val, err, reasons = val[:m], err[:m], reasons[:m]
    for j, i in enumerate(tail.tolist()):
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(val[i]))
        if not bound[j] <= tol:
            raise BoundaryRegimeError(
                "the algebraic tail's mass past the largest float x is "
                f"lost at q={qv!r}, k={complex(k[i])!r}: its bound "
                f"{bound[j]:.3e} exceeds the tolerance {tol:.3e}")
    np.negative(val, out=val, where=reflect)
    if m == n:
        return val, err, reasons
    values[live], errs[live] = val, err
    for i, w in zip(live.tolist(), reasons):
        why[i] = w
    return values, errs, why


def qft_complex(f: FunctionSpec, q, point: HalfPlanePoint,
                cfg: QuadratureConfig | None = None):
    """One half-plane piece of the transform; returns (value, err).

    Raises MembershipError when the integrand is not integrable for this q,
    and ConvergenceError (with the best estimate attached) when the
    subdivision budget runs out.
    """
    qp = _admitted(f, q)
    reflect = point.plane in _LOWER_TAGS
    val, err, why = _qft_rows(f, qp, np.array([point.k]), np.array([reflect]),
                              cfg)
    _raise_failed(val, err, why)
    return val[0], err[0]


def qft_real_line(f: FunctionSpec, q, k, cfg: QuadratureConfig | None = None):
    """Full real-axis transform at real k; a complex k raises ValueError.

    The two half-plane pieces are boundary values of one sectionally
    analytic function, and the transform is their jump across the axis:
    upper minus lower, which unfolds to the integral over all of x.
    Returns (value, err). k may be a 1-d array: both sides of every k
    then run in one quadrature call, values and errs come back as arrays
    with the bits of the one-k calls, and a ConvergenceError is that of
    the lowest failing k. For an even f (f.even()) that call integrates
    x > 0 alone: at real k the kernel's modulus is even in x and its phase
    odd, so the x < 0 piece is minus the conjugate of the x > 0 piece, with
    the same err and reason, and the sum keeps the bits of both sides (the
    x < 0 piece alone can differ in the sign of a zero imaginary part, at
    k = 0). A scalar k makes one qft_complex call per side.
    A ConvergenceError's estimate sums both sides, the one that converged
    included; with array k it carries values, errs and failed per k. A
    complex or non-finite k is refused with the first such k's value, in
    the same words for a scalar and an array.
    """
    guard = float_range(ValueError, _K_OUT_OF_RANGE)
    with guard:
        kv = np.ravel(k)
    if np.iscomplexobj(kv):
        raise ValueError("k must be real for the real-line transform, got "
                         f"{complex(kv[0]) if kv.size else k!r}")
    if np.ndim(k) == 0:
        with guard:
            k = float(k)
        points = [HalfPlanePoint(complex(k, 0.0), plane) for plane in
                  (PlaneTag.REAL_LIMIT_UPPER, PlaneTag.REAL_LIMIT_LOWER)]
        sides = []
        for pt in points:
            try:
                sides.append((*qft_complex(f, q, pt, cfg), None))
            except ConvergenceError as exc:
                sides.append((exc.value, exc.err, exc.reason))
        (v1, e1, why1), (v2, e2, why2) = sides
        why = [why1 or why2]
    else:
        _require(np.ndim(k) == 1, "k must be a scalar or a 1-d array")
        with guard:
            kv = kv.astype(float)
        bad = kv[~np.isfinite(kv)]
        if bad.size:
            raise ValueError(f"k must be finite, got {complex(bad[0])!r}")
        n, qp = kv.size, _admitted(f, q)
        if f.even():
            # at real k the x < 0 rows are the x > 0 rows conjugated, node
            # by node, so their seeds, stops and reasons are the same
            v1, e1, why = _qft_rows(f, qp, kv.astype(complex),
                                    np.zeros(n, dtype=bool), cfg)
            v2, e2 = -v1.conj(), e1
        else:
            val, err, why = _qft_rows(f, qp,
                                      np.concatenate((kv, kv), dtype=complex),
                                      np.arange(2 * n) >= n, cfg)
            v1, v2, e1, e2 = val[:n], val[n:], err[:n], err[n:]
            why = [w1 or w2 for w1, w2 in zip(why[:n], why[n:])]
    val, err = v1 - v2, e1 + e2
    _raise_failed(val, err, why)
    return val, err


def qft_surface(f: FunctionSpec, q_list, k_grid,
                cfg: QuadratureConfig | None = None) -> TransformSurface:
    """Tabulate the transform over q_list x k_grid.

    A HalfPlanePoint in k_grid is that half-plane piece (qft_complex); a
    real number is the full real-line transform at that k (qft_real_line).
    A real k goes to qft_real_line as a one-element array, so both of its
    sides run in one quadrature call, or only x > 0 for an even f; the
    cell has the bits and the error text of its own scalar call. A failing
    cell is recorded rather than aborting the surface. Its why is "did not
    converge (<message>)" when the subdivision budget ran out, and the
    cell keeps its best estimate. It is the error text when the cell has
    no value, with value nan+nanj and err inf: a ValueError (membership, a
    k that is not finite, divergent k = 0, an algebraic tail's mass lost
    past the largest float x, a constant tail's closed form past float
    range) or a NonFiniteError (a kernel value that overflows).

    Each q row admits f once and runs its half-plane cells, every tag
    together and the mirror copies below left out, as the rows of one
    _qft_rows call; each cell has the bits, and a budget failure the
    words, of its own qft_complex call. Where that admission or call
    raises, the row's half-plane cells run one qft_complex call each, so
    each keeps its own error text.

    Each mirror pair of a q row is computed once. For a real f the kernel
    at -conj(k) is the conjugate of the kernel at k node by node (the
    modulus is even in Re k, arctan2 and tan are odd), so the seeds and
    every stop decision match and F(-conj k) = conj F(k) bit for bit. The
    mirror of a real k is -k, that of a half-plane point -conj(k) with the
    same tag. A cell whose mirror converged earlier in its row copies that
    cell's err and its value with the imaginary part negated; a zero
    imaginary part keeps its sign, as the direct call gives it (the
    engine's sums start from +0 and a negative side negates its sum). A
    failed cell is not copied, nor is a real-line k that is not a real
    number: each is computed on its own.
    """
    q_list = tuple(as_qparam(q) for q in q_list)
    k_grid = tuple(k_grid)
    shape = (len(q_list), len(k_grid))
    values = np.zeros(shape, dtype=complex)
    err = np.zeros(shape, dtype=float)
    why = [[None] * len(k_grid) for _ in q_list]
    # each cell's key and its mirror's; None where the cell has no mirror
    keys = [_mirror_keys(pt) for pt in k_grid]
    # the half-plane columns each row batches: a mirror of a batched
    # column is left out, and is computed alone only if that column fails
    batch, seen = [], set()
    for j, pt in enumerate(k_grid):
        if isinstance(pt, HalfPlanePoint) and keys[j][1] not in seen:
            batch.append(j)
            seen.add(keys[j][0])
    ks = np.array([k_grid[j].k for j in batch], dtype=complex)
    reflect = np.array([k_grid[j].plane in _LOWER_TAGS for j in batch],
                       dtype=bool)
    for i, qp in enumerate(q_list):
        rows = {}
        if batch:
            try:
                rows = dict(zip(batch, zip(*_qft_rows(
                    f, _admitted(f, qp), ks, reflect, cfg))))
            except (ValueError, NonFiniteError):
                pass  # the loop below runs each cell alone, with its error
        # key -> column of each converged cell of this row
        done = {}
        for j, pt in enumerate(k_grid):
            key, mirror = keys[j]
            if mirror in done:
                v = values[i, done[mirror]]
                values[i, j] = complex(v.real, -v.imag if v.imag else v.imag)
                err[i, j] = err[i, done[mirror]]
                continue
            try:
                if j in rows:
                    v, e, w = rows[j]
                    _raise_failed(v, e, [w])
                    values[i, j], err[i, j] = v, e
                elif isinstance(pt, HalfPlanePoint):
                    values[i, j], err[i, j] = qft_complex(f, qp, pt, cfg)
                else:
                    v, e = qft_real_line(f, qp, np.array([pt]), cfg)
                    values[i, j], err[i, j] = v[0], e[0]
            except ConvergenceError as exc:
                values[i, j], err[i, j] = exc.value, exc.err
                why[i][j] = f"did not converge ({exc})"
            except (ValueError, NonFiniteError) as exc:
                values[i, j], err[i, j] = complex(math.nan, math.nan), np.inf
                why[i][j] = str(exc)
            else:
                if key is not None:
                    done[key] = j
    return TransformSurface(k_grid=k_grid, q_list=q_list, values=values,
                            err=err, why=why)


def _mirror_keys(pt):
    """(key, mirror key) of a qft_surface k; (None, None) for a real-line
    k that is not a real number, which qft_real_line refuses."""
    if isinstance(pt, HalfPlanePoint):
        return (pt.k, pt.plane), (-pt.k.conjugate(), pt.plane)
    if isinstance(pt, numbers.Real):
        return pt, -pt
    return None, None
