"""Recovery of f from its transform through the classical limit.

Route: evaluate the real-line transform at q = 1 + eps for a decreasing
schedule of eps, extrapolate the slices toward eps = 0, then apply the
plain inverse Fourier integral on a symmetric k grid. The limit exists
pointwise only when f itself has a classical Fourier transform, so step
functions and constants are rejected up front; their spectral content is
a delta at k = 0 and belongs to the contour machinery.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (AliasingError, InversionDomainError, LimitFailureError,
                     scalar)
from .quadrature import trapezoid_weights
from .transform import (FunctionSpec, QuadratureConfig, _real_ks,
                        membership_check, qft_real_line)

__all__ = ["EpsilonSchedule", "InversionResult", "q1_slice", "inverse_ft",
           "roundtrip"]

# residual is measured outside this half-width around each jump of f
_JUMP_WINDOW = 0.05

# imaginary part above this (relative) fraction draws a warning
_IMAG_RESIDUE_TOL = 1e-6

# x rows per block in inverse_ft: 16 rows of the inversion window's
# 833-point k grid are 0.1 MB real arrays
_X_BLOCK = 16


@dataclass(frozen=True)
class EpsilonSchedule:
    """Decreasing eps values for the q = 1 + eps slices."""
    eps_list: tuple = (1e-2, 1e-3, 1e-4)
    extrapolation: str = "richardson"

    def __post_init__(self):
        eps = tuple(scalar("eps", e) for e in self.eps_list)
        if len(eps) == 0:
            raise ValueError("eps_list must not be empty")
        if any(not (0.0 < e < 0.5) for e in eps):
            raise ValueError("every eps must lie in (0, 0.5)")
        if any(e1 >= e0 for e0, e1 in zip(eps, eps[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if self.extrapolation not in ("none", "richardson"):
            raise ValueError("extrapolation must be 'none' or 'richardson'")
        if self.extrapolation == "richardson" and len(eps) < 2:
            raise ValueError("richardson extrapolation needs at least two eps")
        object.__setattr__(self, "eps_list", eps)


@dataclass(eq=False)
class InversionResult:
    x_grid: np.ndarray
    f_rec: np.ndarray
    residual: float
    slice_diagnostics: dict = field(default_factory=dict)
    probe_k: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.x_grid = np.asarray(self.x_grid, dtype=float)
        self.f_rec = np.asarray(self.f_rec, dtype=float)
        self.probe_k = np.asarray(self.probe_k, dtype=float)
        if self.x_grid.shape != self.f_rec.shape or self.x_grid.ndim != 1:
            raise ValueError("x_grid and f_rec must be matching 1-d arrays")
        if math.isnan(self.residual) or self.residual < 0.0:
            raise ValueError("residual must be nonnegative")
        for eps, vals in self.slice_diagnostics.items():
            if len(vals) != self.probe_k.size:
                raise ValueError(
                    f"diagnostics for eps={eps:g} do not match probe_k")


def _require_classical_member(f: FunctionSpec):
    rep = membership_check(f, 1.0)
    if not rep.member:
        raise InversionDomainError(
            "f has no classical Fourier transform: " + rep.detail)


def _slices(f, k_grid, sched, cfg):
    """The q = 1 + eps transform slices over k_grid, one per eps.

    Each slice is one batched call, every k of the grid in lockstep. Slice
    differences that grow along the schedule mean there is no eps -> 0
    limit, and raise LimitFailureError.
    """
    slices = [qft_real_line(f, 1.0 + eps, k_grid, cfg)[0]
              for eps in sched.eps_list]
    diffs = [float(np.max(np.abs(s1 - s0)))
             for s0, s1 in zip(slices, slices[1:])]
    for d0, d1 in zip(diffs, diffs[1:]):
        if d1 > 1.05 * d0 + 1e-10:
            raise LimitFailureError(
                f"slice differences grow along the schedule "
                f"({d0:.3e} -> {d1:.3e}); the eps -> 0 trend is not Cauchy")
    return slices


def _collapse(slices, sched):
    if sched.extrapolation == "none" or len(slices) == 1:
        return slices[-1].copy()
    e0, e1 = sched.eps_list[-2], sched.eps_list[-1]
    return (e0 * slices[-1] - e1 * slices[-2]) / (e0 - e1)


def q1_slice(f: FunctionSpec, k_grid, sched: EpsilonSchedule | None = None,
             cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Transform values extrapolated to q = 1: the classical FT of f.

    The delta-filter in q collapses to point evaluation at q = 1 + eps;
    the schedule's last two slices feed a first-order extrapolation unless
    extrapolation is 'none'.
    """
    sched = sched if sched is not None else EpsilonSchedule()
    if np.iscomplexobj(k_grid):
        raise ValueError("k must be real: k_grid holds complex values")
    kg = np.atleast_1d(np.asarray(k_grid))
    if kg.ndim != 1 or kg.size == 0:
        raise ValueError("k_grid must be a nonempty 1-d real array")
    kg = _real_ks(kg)
    _require_classical_member(f)
    return _collapse(_slices(f, kg, sched, cfg), sched)


def inverse_ft(G, k_grid, x_grid) -> np.ndarray:
    """Classical inverse integral (1/2pi) int G(k) e^{-ikx} dk by trapezoid.

    k_grid must be strictly increasing and symmetric about 0, sampled
    finely enough for the x extent (Nyquist); a noticeable imaginary part
    in the result means G was not conjugate-symmetric and draws a warning.
    cos kx and sin kx come from t = tan(kx/2) as 2/(1 + t^2) - 1 and
    2t/(1 + t^2): numpy's tan is a SIMD loop, its cos and sin are scalar
    libm calls. On an exactly symmetric grid t is taken on the
    non-negative half of k only and the trig mirrored onto the negative
    half, which gives the full grid's trig bit for bit; any other grid
    takes it on all of its points.
    """
    G = np.asarray(G, dtype=complex)
    k = np.asarray(k_grid, dtype=float)
    x = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if k.ndim != 1 or k.size < 2 or G.shape != k.shape:
        raise ValueError("G and k_grid must be matching 1-d arrays, len >= 2")
    if x.size == 0:
        raise ValueError("x_grid must not be empty")
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(k))
            and np.all(np.isfinite(x))):
        raise ValueError("inputs must be finite")
    dk = np.diff(k)
    if np.any(dk <= 0.0):
        raise ValueError("k_grid must be strictly increasing")
    if not np.allclose(k, -k[::-1], atol=1e-12 * max(1.0, abs(k[-1]))):
        raise ValueError("k_grid must be symmetric about 0")
    extent = float(np.max(np.abs(x)))
    if extent * float(np.max(dk)) > math.pi * (1.0 + 1e-9):
        raise AliasingError(
            f"x extent {extent:g} exceeds the Nyquist bound "
            f"pi/dk = {math.pi / float(np.max(dk)):g}; refine k_grid")
    # trapezoid weights folded into G once; G e^{-ikx} = (gr + i gi)(c - i s)
    # with c, s = cos kx, sin kx, summed in real arithmetic on a block of x
    # rows at a time. Each row is reduced once along the whole k grid by
    # np.add.reduce, so the bits do not depend on the block size (with a
    # BLAS matmul they do).
    g = G * trapezoid_weights(dk)
    gr, gi = g.real.copy(), g.imag.copy()
    # the mirror is bitwise: tan(-a) == -tan(a) and x*(-k) == -(x*k), so
    # c is even and s odd in k; m = 0 takes the trig on the whole grid
    m = k.size // 2 if np.array_equal(k, -k[::-1]) else 0
    vals = np.empty(x.size, dtype=complex)
    for i in range(0, x.size, _X_BLOCK):
        # np.tan runs on the fresh contiguous product: numpy's SIMD loops
        # can give other bits on a strided or reversed view
        t = np.outer(x[i:i + _X_BLOCK], k[m:])
        t *= 0.5
        np.tan(t, out=t)
        # u = 2/(1 + t^2), so c = u - 1 and s = t u
        u = t * t
        u += 1.0
        np.divide(2.0, u, out=u)
        c = np.empty((t.shape[0], k.size))
        s = np.empty_like(c)
        np.subtract(u, 1.0, out=c[:, m:])
        np.multiply(t, u, out=s[:, m:])
        c[:, :m] = c[:, :-m - 1:-1]
        np.negative(s[:, :-m - 1:-1], out=s[:, :m])
        re = c * gr
        re += s * gi
        vals.real[i:i + _X_BLOCK] = np.add.reduce(re, axis=-1)
        c *= gi
        s *= gr
        c -= s
        vals.imag[i:i + _X_BLOCK] = np.add.reduce(c, axis=-1)
    vals /= 2.0 * math.pi
    residue = float(np.max(np.abs(vals.imag))) \
        / (1.0 + float(np.max(np.abs(vals.real))))
    if residue > _IMAG_RESIDUE_TOL:
        warnings.warn(
            f"imaginary residue {residue:.2e} after inversion; G was not "
            "conjugate-symmetric", UserWarning, stacklevel=2)
    return vals.real


def _default_x_grid(f: FunctionSpec) -> np.ndarray:
    g = f.tail_exponent()
    scale = f.length_scale()
    if g == math.inf:
        return np.linspace(-6.0 * scale, 6.0 * scale, 241)
    if g is None:
        lo, hi = f.support()
        return np.linspace(lo - 1.5, hi + 1.5, 401)
    # down to 1e-5 of the peak on a q-Gaussian tail of this exponent
    edge = scale * math.sqrt(g * (1e5 ** (2.0 / g) - 1.0))
    return np.linspace(-edge, edge, 801)


def _default_k_max(f: FunctionSpec, eps_last: float) -> float:
    jumps = f.jump_points()
    if jumps:
        # the q = 1 + eps slice damps the content of a jump at x_j like
        # exp(-eps k^2 x_j^2 / 2); past sqrt(24/eps)/x_j only noise is
        # left. The nearest jump sets it. One at x = 0 is never damped, so
        # no k_max ends its content: it takes x_j = 0.25, not the cap of
        # 4096, which costs twice the k for half its truncation ripple
        reach = math.sqrt(24.0 / eps_last)
        x_ref = min(abs(xj) or 0.25 for xj in jumps)
        return reach / x_ref if 4096.0 * x_ref > reach else 4096.0
    if f.tail_exponent() == math.inf:
        return max(8.0 / f.length_scale(), 6.0)
    return 40.0


def roundtrip(f: FunctionSpec, sched: EpsilonSchedule | None = None,
              cfg: QuadratureConfig | None = None, x_grid=None,
              k_max: float | None = None, dk: float | None = None
              ) -> InversionResult:
    """Forward transform near q = 1, slice, invert, compare against f.

    The residual is the max reconstruction error outside +-0.05 windows
    around f's jump points. Each slice smooths a jump at x_j over a width
    of roughly sqrt(eps)*x_j, so extrapolating across a coarse eps leaks
    that slice's wide mollification into the windows; for the sharpest
    jump recovery pass a single small eps with extrapolation 'none'.

    The inverse integral is taken about x0, the midpoint of x_grid and
    f's default grid together, and the default k step is 0.75 pi / reach,
    with reach = max|x - x0| over both grids: half their joint span. The
    trapezoid in k repeats f every 2 pi / dk, 8/3 reach here, so every
    image of f stays off the x grid, and off f's own grid too when x_grid
    is narrower than f. Such a narrow grid on a wide f therefore costs
    more k points than its own width asks for, which is what keeps the
    images off. Half the span about its midpoint is never more than the
    reach from 0, so no input takes more k points than it would about
    x = 0; an off-centre compact f, such as a window on [1, 2], takes
    fewer. When x0 is 0 (both grids symmetric) nothing is shifted. An
    explicit dk overrides the step rule.
    """
    sched = sched if sched is not None else EpsilonSchedule()
    _require_classical_member(f)
    x_f = _default_x_grid(f)
    x = x_f if x_grid is None \
        else np.atleast_1d(np.asarray(x_grid, dtype=float))
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise ValueError("x_grid must be nonempty and finite")
    km = scalar("k_max", k_max) if k_max is not None \
        else _default_k_max(f, sched.eps_list[-1])
    # invert about the centre of both grids: the images of f then need
    # room for half their joint span only, not for their reach from 0
    lo = min(float(np.min(x)), float(np.min(x_f)))
    hi = max(float(np.max(x)), float(np.max(x_f)))
    x0 = 0.5 * (lo + hi)
    if dk is None:
        reach = max(hi - x0, x0 - lo, 1e-9)
        dk = 0.75 * math.pi / reach
    step = scalar("dk", dk)
    if not 0.0 < step <= km:
        raise ValueError("need 0 < dk <= k_max < inf")
    kn = step * np.arange(int(math.ceil(km / step)) + 1)

    slices = _slices(f, kn, sched, cfg)
    g_half = _collapse(slices, sched)
    if x0 != 0.0:
        # f(x) = (1/2pi) int G(k) e^{-ik x0} e^{-ik(x - x0)} dk
        g_half *= np.exp(-1j * x0 * kn)
    # f is real, so the negative-k half follows by conjugation
    k_full = np.concatenate([-kn[:0:-1], kn])
    g_full = np.concatenate([np.conj(g_half[:0:-1]), g_half])
    f_rec = inverse_ft(g_full, k_full, x - x0)

    truth = f.values(x)
    mask = np.ones(x.size, dtype=bool)
    for xj in f.jump_points():
        mask &= np.abs(x - xj) > _JUMP_WINDOW
    residual = float(np.max(np.abs(f_rec - truth)[mask])) \
        if mask.any() else math.inf

    probe_idx = sorted({int(np.argmin(np.abs(kn - kp)))
                        for kp in (0.5, 1.0, 2.0) if kp <= kn[-1]})
    diag = {eps: s[probe_idx] for eps, s in zip(sched.eps_list, slices)}
    return InversionResult(x_grid=x, f_rec=f_rec, residual=residual,
                           slice_diagnostics=diag, probe_k=kn[probe_idx])
