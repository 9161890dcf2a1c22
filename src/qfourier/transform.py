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

Infinite tails are handled two ways. Super-algebraic densities are cut at a
point where an explicit bound on the remainder drops below the absolute
tolerance, and the bound is added to the error estimate. Algebraically
decaying integrands are mapped onto (0, 1] by x = X1 v^(-p); p is chosen
from the decay exponent so the transformed integrand vanishes at v = 0, and
no truncation error remains. Past the linear-phase region the kernel's
total remaining phase is bounded by pi/(2(q-1)), so the mapped tail is at
most mildly oscillatory.

For q != 1 the kernel is evaluated in real arithmetic: a log1p modulus and
an arctan2 phase, which numpy runs in SIMD where its complex log and exp
are scalar calls, and which lose no digits near |base| = 1. Where the
base's parts overflow, the modulus underflows to its true limit 0. One
numpy error state covers each half-line piece, and the integrands check
their own values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (ConvergenceError, MembershipError, NonFiniteError,
                     PoleError)
from .qcore import QParam, as_qparam
from .quadrature import _LOOP_BELOW, adaptive_quad


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
        decay, otherwise the exponent g with f ~ |x|^-g at infinity."""
        raise NotImplementedError

    def length_scale(self) -> float:
        """Width over which f falls off; sizes the super-algebraic tail cut
        and the default inversion grids."""
        return 1.0

    def jump_points(self):
        """x positions where f jumps; roundtrip sizes its k range by them
        and leaves windows around them out of the residual."""
        return ()


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
        m = (x >= self.a) & (x <= self.b)
        # x is moved into [a, b] off the window, so nothing divides by 0
        # or overflows there
        return np.where(m, (self.lam / np.where(m, x, self.a)) ** self.beta,
                        0.0)

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

    def values(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x / (2.0 * self.sigma ** 2))

    def support(self):
        return (-math.inf, math.inf)

    def peak_value(self):
        return 1.0

    def tail_exponent(self):
        return math.inf

    def length_scale(self):
        return self.sigma


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
        return np.maximum(base, 0.0) ** (1.0 / (1.0 - self.q_g))

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


@dataclass(frozen=True)
class HalfPlanePoint:
    """A transform evaluation point: k plus which half-plane piece."""
    k: complex
    plane: PlaneTag

    def __post_init__(self):
        k = complex(self.k)
        _require(math.isfinite(k.real) and math.isfinite(k.imag),
                 f"k must be finite, got {k!r}")
        object.__setattr__(self, "k", k)
        if self.plane is PlaneTag.UPPER:
            _require(k.imag > 0, f"upper tag needs Im k > 0, got {k!r}")
        elif self.plane is PlaneTag.LOWER:
            _require(k.imag < 0, f"lower tag needs Im k < 0, got {k!r}")
        elif self.plane in (PlaneTag.REAL_LIMIT_UPPER,
                            PlaneTag.REAL_LIMIT_LOWER):
            _require(k.imag == 0,
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


def _kernel_integrand(f: FunctionSpec, qv: float, k, reflect: bool):
    """Vectorized integrand on a positive half-line variable u, one row per k.

    integrand(u, rows) evaluates u[i] with wavenumber k[rows[i]];
    reflect=False puts the nodes at x = u, reflect=True at x = -u. A node
    on the wrong side of the kernel's branch point raises PoleError, and a
    kernel value that is not finite raises NonFiniteError.

    For q != 1 the kernel is taken in real arithmetic: with
    c = (1-q) x f^(q-1), its base 1 + i(1-q) k x f^(q-1) is (1 + d) + i b,
    d = -c Im k and b = c Re k. Its modulus comes from log1p(d(2+d) + b^2),
    which keeps the digits of |base|^2 - 1 near |base| = 1, and its phase
    from arctan2(b, 1 + d) on the principal branch. Where b^2 overflows the
    modulus underflows to its limit 0. When every k is real, d = 0 and the
    terms in d are skipped; the bits are those of the general form. The
    caller holds numpy's error state (see _qft_rows): a node off the
    support can give inf * 0, and b^2 can overflow.
    """
    k = np.asarray(k, dtype=complex)
    k_re, minus_im = k.real, -k.imag
    real = not minus_im.any()

    def integrand(u, rows):
        u = np.asarray(u, dtype=float)
        x = -u if reflect else u
        y = f.values(x)
        m = y > 0
        if not m.any():
            return np.zeros(u.shape, dtype=complex)
        # evaluated on every node, then cleared off the support: a node
        # outside it (y = 0, possibly at x = inf) has no kernel value
        if qv == 1.0:
            kr = k[rows][:, None]
            out = y * np.exp(1j * kr * x)
        else:
            c = (1.0 - qv) * x * y ** (qv - 1.0)
            b = c * k_re[rows][:, None]
            if real:
                r, e = b * b, 1.0
            else:
                d = c * minus_im[rows][:, None]
                _check(d < -1e-9, PoleError,
                       "kernel pole on the integration path", qv, rows, k, x)
                r = d * (2.0 + d)
                r += b * b
                e = 1.0 + d
            # |kernel| = f |base|^(1/(1-q)), |base|^2 = 1 + r
            np.log1p(r, out=r)
            r *= 0.5 / (1.0 - qv)
            mod = np.exp(r, out=r)
            mod *= y
            phase = np.arctan2(b, e, out=b)
            phase /= 1.0 - qv
            out = np.empty(u.shape, dtype=complex)
            np.cos(phase, out=out.real)
            np.sin(phase, out=out.imag)
            out *= mod
        _check(~np.isfinite(out) & m, NonFiniteError,
               "kernel value is not finite", qv, rows, k, x)
        if not m.all():
            out[~m] = 0.0
        return out

    return integrand


def _check(bad, error, what, qv, rows, k, x):
    """Raise error naming q, k and x at the first node flagged in bad."""
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise error(f"{what} at q={qv!r}, k={complex(k[rows[i]])!r}, "
                    f"x={float(x[i, j])!r}")


def _osc_panels(A, B, freq, qv, cap=256):
    """Seed panel counts of the rows [A, B[i]], one panel per 0.8 kernel
    periods at frequency freq[i].

    The phase is freq (B - A), capped at pi/(q-1): the kernel's phase stays
    within +-pi/(2(q-1)), so it turns by no more than that. Near q = 1 a
    long window gets dense seeds, and a q well above 1, where freq
    overstates the phase, is not over-seeded. At most cap panels; a row
    with fewer than two, no positive freq or an infinite B gets one. Fewer
    than _LOOP_BELOW rows take the rule row by row in Python, more take it
    in numpy; both give the same counts.
    """
    if freq.size < _LOOP_BELOW:
        return np.array([_osc_count(A, b, f, qv, cap)
                         for b, f in zip(B.tolist(), freq.tolist())],
                        dtype=int)
    width = B - A
    with np.errstate(over="ignore", invalid="ignore"):
        phase = freq * width
        if qv > 1.0:
            phase = np.minimum(phase, math.pi / (qv - 1.0))
        n = np.minimum(phase / (2.0 * math.pi * 0.8), cap)
    # a freq of 0 or NaN gives a phase of 0 or NaN, so n >= 2 fails
    return np.where((n >= 2) & np.isfinite(width), n, 1).astype(int)


def _osc_count(A, B, freq, qv, cap):
    """_osc_panels' rule for one row, in Python floats."""
    if not math.isfinite(B - A):
        return 1
    phase = freq * (B - A)
    if qv > 1.0:
        phase = min(phase, math.pi / (qv - 1.0))
    n = min(phase / (2.0 * math.pi * 0.8), cap)
    return int(n) if n >= 2 else 1


def _merge(why1, why2):
    """Per-row reasons of two pieces summed per row: the first piece's wins."""
    return [w1 or w2 for w1, w2 in zip(why1, why2)] if any(why2) else why1


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


def _half_line(gfun, A, B, cfg: QuadratureConfig, *, qv, freq, decay,
               trunc_scale):
    """Integrate gfun over [A, B] for every row, A < B <= inf.

    freq and decay are per-row arrays, and qv is q. Returns (values, errs,
    why) as adaptive_quad's row form does, with the pieces of the half-line
    summed per row and each row's why the reason of its first failing piece. A
    finite B is one interval; an infinite one is cut where an explicit
    remainder bound (added to err) falls under abs_tol when decay is
    super-algebraic, and mapped onto (0, 1] otherwise.
    """
    n = freq.size
    rows = np.arange(n)
    cap = min(256, max(cfg.max_subdivisions // 4, 1))
    tol = dict(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
               max_subdivisions=cfg.max_subdivisions)

    def split_quad(hi):
        # gfun over [A, hi[i]] for every row, split by its oscillation
        hi = np.broadcast_to(hi, (n,))
        return adaptive_quad(gfun, np.full(n, A), hi, **tol,
                             panels=_osc_panels(A, hi, freq, qv, cap))

    if math.isfinite(B):
        return split_quad(B)

    if math.isinf(decay[0]):
        # explicit cut where the remainder bound drops under abs_tol
        width = max(trunc_scale, 1.0)
        T = A + width * (math.sqrt(2.0 * math.log(1.0 / cfg.abs_tol)) + 1.5)
        val, err, why = split_quad(T)
        g = gfun(np.full((n, 1), T), rows)[:, 0]
        return val, err + np.hypot(g.real, g.imag) * width, why

    # algebraic tail: finite oscillatory part, then the compactifying map
    amp = np.maximum(freq, 0.0)
    X1 = A + np.where(amp > 1e-9, 12.0 / amp, 1.0)
    X1 = np.minimum(X1, A + 1e9)
    X1 = np.maximum(X1, A + 1.0)
    p = np.minimum(60.0, np.maximum(1.0, 2.0 / (decay - 1.0)))

    def mapped(v, rows):
        v = np.asarray(v, dtype=float)
        x = np.empty_like(v)
        jac = np.empty_like(v)
        X1r, pr = X1[rows][:, None], p[rows]
        # one scalar exponent at a time: numpy's power takes other
        # paths for an exponent array, and the bits would move
        exps = set(pr.tolist())
        for pu in exps:
            s = pr == pu if len(exps) > 1 else slice(None)
            x[s] = X1r[s] * v[s] ** (-pu)
            jac[s] = X1r[s] * pu * v[s] ** (-pu - 1.0)
        return _zero_nonfinite(gfun(x, rows) * jac)

    v1, e1, why1 = split_quad(X1)
    v2, e2, why2 = adaptive_quad(mapped, np.zeros(n), np.ones(n), **tol)
    return v1 + v2, e1 + e2, _merge(why1, why2)


def _zero_nonfinite(out):
    """Set the entries of the mapped tail's integrand that are not finite
    to 0, in place, and return it.

    Where x or its Jacobian overflows, v sits at the v -> 0 end of a tail
    the map makes vanish, so the limit there is 0. The kernel's values are
    checked finite, so such an entry is inf or nan in both parts, and
    clearing it whole gives the bits of np.nan_to_num(posinf=0, neginf=0).
    """
    bad = ~np.isfinite(out)
    if bad.any():
        out[bad] = 0.0
    return out


def _qft_rows(f: FunctionSpec, q, k, positive_side: bool,
              cfg: QuadratureConfig | None):
    """One half-line piece of the transform for every entry of a 1-d k.

    Returns (values, errs, why) as _half_line does, one row per k: a row
    that missed tolerance keeps the sum of all pieces as its best estimate.
    """
    qp = as_qparam(q)
    cfg = cfg if cfg is not None else QuadratureConfig()
    report = membership_check(f, qp)
    if not report.member:
        raise MembershipError(
            f"{f.kind} is outside the admissible set at q={qp.q:g}: "
            f"{report.detail}")

    n = k.size
    lo, hi = f.support()
    if positive_side:
        A, B = max(lo, 0.0), hi
    else:
        A, B = lo, min(hi, 0.0)
    if B <= A or n == 0:
        return np.zeros(n, dtype=complex), np.zeros(n), [None] * n

    qv = qp.q
    gamma_f = f.tail_exponent()
    unbounded = (B == math.inf) if positive_side else (A == -math.inf)
    decay = None
    if unbounded:
        decay = np.full(n, _integrand_decay(gamma_f, qv), dtype=float)
        at_zero = k == 0
        if at_zero.any():
            if gamma_f is not None and gamma_f != math.inf and gamma_f <= 1.0:
                raise ValueError(
                    "k=0 reduces the transform to the plain integral of f, "
                    f"which diverges for {f.kind}")
            decay[at_zero] = gamma_f

    # np.hypot rounds like the scalar abs(); np.abs on a complex array does not
    freq = np.hypot(k.real, k.imag) * f.peak_value() ** (qv - 1.0)
    trunc_scale = f.length_scale()

    gfun = _kernel_integrand(f, qv, k, reflect=not positive_side)
    # one error state for the whole piece: the kernel's real parts overflow
    # to the true limit, a node off the support (f = 0, x possibly inf)
    # gives inf * 0, and the tail map's 12/freq divides by 0 at k = 0;
    # _kernel_integrand and mapped check what they return
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if positive_side:
            return _half_line(gfun, A, B, cfg, qv=qv, freq=freq,
                              decay=decay, trunc_scale=trunc_scale)
        val, err, why = _half_line(gfun, -B, -A, cfg, qv=qv, freq=freq,
                                   decay=decay, trunc_scale=trunc_scale)
    return -val, err, why


def qft_complex(f: FunctionSpec, q, point: HalfPlanePoint,
                cfg: QuadratureConfig | None = None):
    """One half-plane piece of the transform; returns (value, err).

    Raises MembershipError when the integrand is not integrable for this q,
    and ConvergenceError (with the best estimate attached) when the
    subdivision budget runs out.
    """
    positive_side = point.plane in (PlaneTag.UPPER,
                                    PlaneTag.REAL_LIMIT_UPPER)
    val, err, why = _qft_rows(f, q, np.array([point.k]), positive_side, cfg)
    _raise_failed(val, err, why)
    return val[0], err[0]


def qft_real_line(f: FunctionSpec, q, k, cfg: QuadratureConfig | None = None):
    """Full real-axis transform at real k; a complex k raises ValueError.

    The two half-plane pieces are boundary values of one sectionally
    analytic function, and the transform is their jump across the axis:
    upper minus lower, which unfolds to the integral over all of x.
    Returns (value, err). k may be a 1-d array: every k then runs in one
    batch, values and errs come back as arrays with the bits of the
    one-k calls, and a ConvergenceError is that of the lowest failing k.
    A ConvergenceError's estimate sums both sides, the one that converged
    included; with array k it carries values, errs and failed per k.
    """
    _require(not np.iscomplexobj(k),
             f"k must be real for the real-line transform, got {k!r}")
    if np.ndim(k) == 0:
        sides = []
        for plane in (PlaneTag.REAL_LIMIT_UPPER, PlaneTag.REAL_LIMIT_LOWER):
            pt = HalfPlanePoint(complex(float(k), 0.0), plane)
            try:
                sides.append((*qft_complex(f, q, pt, cfg), None))
            except ConvergenceError as exc:
                sides.append((exc.value, exc.err, exc.reason))
        (v1, e1, why1), (v2, e2, why2) = sides
        why = _merge([why1], [why2])
    else:
        kv = np.asarray(k, dtype=float)
        _require(kv.ndim == 1, "k must be a scalar or a 1-d array")
        _require(bool(np.all(np.isfinite(kv))), "k must be finite")
        kc = kv.astype(complex)
        v1, e1, why1 = _qft_rows(f, q, kc, True, cfg)
        v2, e2, why2 = _qft_rows(f, q, kc, False, cfg)
        why = _merge(why1, why2)
    val, err = v1 - v2, e1 + e2
    _raise_failed(val, err, why)
    return val, err


def qft_surface(f: FunctionSpec, q_list, k_grid,
                cfg: QuadratureConfig | None = None) -> TransformSurface:
    """Tabulate the transform over q_list x k_grid.

    A HalfPlanePoint in k_grid is that half-plane piece (qft_complex); a
    real number is the full real-line transform at that k (qft_real_line).
    A failing cell is recorded rather than aborting the surface. Its why
    is "did not converge (<message>)" when the subdivision budget ran out,
    and the cell keeps its best estimate. It is the error text when the
    cell has no value, with value nan+nanj and err inf: a ValueError
    (membership, divergent k = 0) or a NonFiniteError (a kernel value
    that overflows).
    """
    cfg = cfg if cfg is not None else QuadratureConfig()
    q_list = tuple(as_qparam(q) for q in q_list)
    k_grid = tuple(k_grid)
    shape = (len(q_list), len(k_grid))
    values = np.zeros(shape, dtype=complex)
    err = np.zeros(shape, dtype=float)
    why = [[None] * len(k_grid) for _ in q_list]
    for i, qp in enumerate(q_list):
        for j, pt in enumerate(k_grid):
            try:
                if isinstance(pt, HalfPlanePoint):
                    values[i, j], err[i, j] = qft_complex(f, qp, pt, cfg)
                else:
                    values[i, j], err[i, j] = qft_real_line(f, qp, pt, cfg)
            except ConvergenceError as exc:
                values[i, j], err[i, j] = exc.value, exc.err
                why[i][j] = f"did not converge ({exc})"
            except (ValueError, NonFiniteError) as exc:
                values[i, j], err[i, j] = complex(math.nan, math.nan), np.inf
                why[i][j] = str(exc)
    return TransformSurface(k_grid=k_grid, q_list=q_list, values=values,
                            err=err, why=why)
