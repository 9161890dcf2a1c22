"""Contour functionals for boundary-value representations of distributions.

A density f(t) on the real line is represented by the Cauchy transform
F(z) = (1/2pi i) Int f(t)/(t-z) dt, analytic off the real axis. Pairing F
with an entire, rapidly decreasing test function phi is a closed-contour
integral over two horizontal lines: the upper line Im z = +zeta traversed
left to right and the lower line Im z = -zeta traversed right to left (a
clockwise circuit around the real axis). Adding any polynomial to F leaves
the pairing unchanged, which the invariance check exercises directly.

For a real density the Cauchy transform is conjugate-odd,
F(conj z) = -conj F(z) (Bremermann, "Distributions, Complex Variables and
Fourier Transforms", 1965): its values on the lower line are the upper
line's, conjugated and negated. A representation that declares this
(AnalyticRep.conjugate_odd; dirac_rep does) is evaluated on the upper line
alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TruncationError, scalar, scalars
from .quadrature import graded_line_nodes, trapezoid_weights

_TAIL_TOL = 1e-10

# z rows per block in dirac_rep's evaluator: 16 rows of a 4001-point grid
# are two 0.5 MB real arrays
_CAUCHY_BLOCK = 16


@dataclass(frozen=True)
class ContourSpec:
    """Two-line contour geometry: offset, truncation, and node count."""
    zeta: float = 1.0
    truncation: float = 40.0
    points_per_line: int = 4096

    def __post_init__(self):
        for name in ("zeta", "truncation"):
            object.__setattr__(self, name,
                               scalar(name, getattr(self, name), gt=0))
        object.__setattr__(self, "points_per_line", scalar(
            "points_per_line", self.points_per_line, int, ge=8))


@dataclass(frozen=True)
class AnalyticRep:
    """A function analytic off a horizontal strip, with polynomial growth
    order p: |F(z)| <= C |z|^p away from the strip.

    conjugate_odd declares F(conj z) = -conj F(z), as for the Cauchy
    transform of a real density; contour_apply then evaluates F on the
    upper line only. A real polynomial is conjugate-even instead,
    P(conj z) = conj P(z), so F plus one must not declare it."""
    evaluator: Callable[[complex], complex]
    growth_order: int = 0
    conjugate_odd: bool = False

    def __post_init__(self):
        if not callable(self.evaluator):
            raise ValueError("evaluator must be callable")
        object.__setattr__(self, "growth_order", scalar(
            "growth_order", self.growth_order, int, ge=0))
        if not isinstance(self.conjugate_odd, bool):
            raise ValueError("conjugate_odd must be a bool")


@dataclass(frozen=True)
class ContourResult:
    value: complex
    quadrature_err: float
    tail: float


def _eval_points(fun, zs):
    try:
        out = np.asarray(fun(zs), dtype=complex)
        if out.shape == zs.shape:
            return out
    except Exception:
        pass
    return np.array([complex(fun(z)) for z in zs], dtype=complex)


def _growth_warning(F: AnalyticRep, zs, vals):
    idx = np.linspace(0, len(zs) - 1, 64).astype(int)
    scale = (1.0 + np.abs(zs[idx])) ** F.growth_order
    ratio = np.abs(vals[idx]) / scale
    med = np.median(ratio)
    if med > 0 and np.max(ratio[[0, -1]]) > 20.0 * med:
        warnings.warn(
            f"representation grows faster than its declared order "
            f"p={F.growth_order} toward the contour ends", stacklevel=3)


def contour_apply_detailed(F: AnalyticRep, phi,
                           gamma: ContourSpec | None = None) -> ContourResult:
    """contour_apply plus quadrature and truncation diagnostics."""
    gamma = gamma if gamma is not None else ContourSpec()
    t, w = graded_line_nodes(gamma.truncation, gamma.points_per_line)
    z_up = t + 1j * gamma.zeta
    z_dn = t - 1j * gamma.zeta

    f_up = _eval_points(F.evaluator, z_up)
    # z_dn is conj(z_up) node for node
    f_dn = (-np.conj(f_up) if F.conjugate_odd
            else _eval_points(F.evaluator, z_dn))
    g_up = f_up * _eval_points(phi, z_up)
    g_dn = f_dn * _eval_points(phi, z_dn)

    _growth_warning(F, z_up, f_up)

    # sampled tail bound: endpoint magnitude times the truncation scale
    end = max(abs(g_up[0]), abs(g_up[-1]), abs(g_dn[0]), abs(g_dn[-1]))
    tail = end * gamma.truncation
    if tail > _TAIL_TOL:
        raise TruncationError(
            f"integrand magnitude {end:.3e} at |t|={gamma.truncation:g} "
            "is too large for the requested truncation",
            suggested_T=2.0 * gamma.truncation, tail=tail)

    value = np.sum(w * g_up) - np.sum(w * g_dn)

    # halved-resolution estimate on the same graded family; skipping every
    # other node doubles the u spacing, so the kept weights just double
    w2 = 2.0 * w[::2]
    coarse = np.sum(w2 * g_up[::2]) - np.sum(w2 * g_dn[::2])
    err = abs(value - coarse) + tail
    return ContourResult(value=complex(value), quadrature_err=float(err),
                         tail=float(tail))


def contour_apply(F: AnalyticRep, phi,
                  gamma: ContourSpec | None = None) -> complex:
    """Pair F with the test function phi over the oriented two-line contour.

    phi is evaluated on both lines, F on the upper line alone when it
    declares conjugate_odd (the lower line's values are then -conj of the
    upper's, the bits a real density's Cauchy sum gives there too).
    Raises TruncationError (with a suggested larger truncation) when the
    sampled endpoint magnitude says the tails are not negligible.
    """
    return contour_apply_detailed(F, phi, gamma).value


def dirac_rep(f_density, t_grid) -> AnalyticRep:
    """Cauchy-transform representation of a density sampled on a grid.

    The returned evaluator computes (1/2pi i) Int f(t)/(t-z) dt by the
    trapezoid rule on t_grid; evaluation closer to the real axis than one
    grid spacing warns about a degraded estimate. The density's samples are
    real, so the representation is conjugate-odd, bit for bit wherever its
    sums are nonzero (a zero sum may differ in the sign of 0): at conj z
    the sums see the same d and y * y, and y flips the imaginary sum's
    sign alone.
    """
    grid = scalars("t_grid", t_grid)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("t_grid must be one-dimensional with >= 2 points")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    try:
        fvals = np.asarray(f_density(grid), dtype=float)
        if fvals.shape != grid.shape:
            raise ValueError
    except Exception:
        fvals = np.array([float(f_density(t)) for t in grid])
    h = np.diff(grid)
    w = trapezoid_weights(h)
    min_h = float(h.min())
    wf = w * fvals
    pref = 1.0 / (2j * math.pi)

    def evaluator(z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z.imag) < min_h):
            warnings.warn(
                "evaluation within one grid spacing of the real axis; "
                "the Cauchy kernel is nearly singular there", stacklevel=2)
        # for real t and wf, 1/(t - z) = (t - x + iy) / ((t - x)^2 + y^2):
        # real arithmetic on a block of z rows at a time, each row reduced
        # once along the whole grid, so the bits do not depend on the block
        # size or on a point's place in its block (with a BLAS matmul in
        # place of np.add.reduce they do)
        flat = z.reshape(-1)
        sums = np.empty(flat.shape, dtype=complex)
        for i in range(0, flat.size, _CAUCHY_BLOCK):
            zb = flat[i:i + _CAUCHY_BLOCK]
            y = zb.imag
            d = grid - zb.real[:, None]
            k = d * d
            k += (y * y)[:, None]
            np.divide(wf, k, out=k)
            sums.imag[i:i + _CAUCHY_BLOCK] = y * np.add.reduce(k, axis=-1)
            k *= d
            sums.real[i:i + _CAUCHY_BLOCK] = np.add.reduce(k, axis=-1)
        out = pref * sums.reshape(z.shape)
        return out if out.shape else complex(out)

    return AnalyticRep(evaluator=evaluator, growth_order=0,
                       conjugate_odd=True)


def pseudo_poly_invariance_check(F: AnalyticRep, P_degree: int, phi,
                                 gamma: ContourSpec | None = None,
                                 *, seed: int = 0) -> float:
    """|contour_apply(F + P) - contour_apply(F)| for a random polynomial P
    of the given degree with coefficients drawn from [-1, 1]."""
    P_degree = scalar("P_degree", P_degree, int, ge=0)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, P_degree + 1)

    def shifted(z):
        return F.evaluator(z) + np.polynomial.polynomial.polyval(z, coeffs)

    base = contour_apply(F, phi, gamma)
    # F + P is neither conjugate-odd nor conjugate-even: no declaration
    moved = contour_apply(
        AnalyticRep(evaluator=shifted,
                    growth_order=max(F.growth_order, P_degree)),
        phi, gamma)
    return abs(moved - base)
