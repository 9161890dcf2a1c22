"""Complex log-gamma and the Gauss hypergeometric function.

log_gamma uses a Lanczos approximation (g = 7, 9 terms) in the half-plane
Re z >= 1.5 and climbs there by the recursion log Gamma(z) = log Gamma(z+1)
- log z otherwise; both pieces are analytic in their regions and agree with
the real function, so the result is the principal branch.

digamma differentiates that same Lanczos sum term by term.

hyp2f1 sums the Gauss series where the argument is small and otherwise
routes through the classical connection formulas (Pfaff, 1-z, 1/z, 1/(1-z),
1-1/z), picking whichever transformed argument has the smallest modulus.
The 1/(1-z) and 1-1/z routes are Pfaff's transformation followed by the
1-z and 1/z formulas. Each of those two pairs gamma factors Gamma(+-(m+eps))
for an integer m: m + eps is c-a-b on the 1-z route and a-b on the 1/z
route. At eps = 0 the plain formula has poles, and it cancels like 1/eps
near them. Within _LOG_CASE_BAND of an integer both routes switch to one
limit form, _log_case. It is exact at eps = 0, where it reduces to the
logarithmic-case formulas (DLMF 15.8.8, 15.8.10; Abramowitz & Stegun
15.3.10-15.3.14), and it stays accurate for small nonzero eps. It uses
divided differences of 1/Gamma, not a shift of the parameters. The cut
along [1, oo) is never resolved implicitly: evaluation on the cut requires
the caller to name a side.

The Gauss series reads its terms' parameter factors (a+n)(b+n) and
(c+n)(n+1) from chunks of _CHUNK terms, built once per (a, b, c) by the
same expressions and kept in a bounded lru_cache (_factors, untraced, as
a traced count must repeat in every benchmark pass). Its key holds the
exact bits of a, b and c, since == and hash take -0.0 for 0.0. _log_case
keeps its per-term loop: near the regime boundary it runs 100,000 terms.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from dataclasses import dataclass
from enum import Enum

from .errors import (BoundaryRegimeError, ConvergenceError,
                     CutAmbiguityError, PoleError, float_range, scalar)
from .qcore import as_qparam

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_SERIES_CAP = 100_000
_CHUNK = 64  # terms per chunk of _series' factors
_SERIES_RADIUS = 0.8
# connection formulas whose gap m + eps has |eps| below this take the limit
# form of _log_case. It is accurate on the whole band but costs about twice
# the plain two-term form, whose 1/eps cancellation is mild beyond it.
_LOG_CASE_BAND = 0.1
# a gamma ratio or power past float range (parameters ~1e4, |z| near 1)
_OVERFLOW = "2F1 overflows float on the {} at a={:g}, b={:g}, c={:g}, z={:g}"


class CutSide(Enum):
    """Which side of the [1, oo) branch cut a real argument belongs to."""
    ABOVE = "above"
    BELOW = "below"


def _is_nonpos_int(w: complex) -> bool:
    return w.imag == 0.0 and w.real <= 0.0 and w.real == round(w.real)


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Raises PoleError at the non-positive integers.
    """
    z = scalar("z", z, complex)
    if _is_nonpos_int(z):
        raise PoleError(f"log_gamma pole at z={z.real:g}")
    shift = 0j
    w = z
    while w.real < 1.5:
        shift += cmath.log(w)
        w += 1.0
    x = _LANCZOS_COEF[0]
    for k in range(1, 9):
        x += _LANCZOS_COEF[k] / (w - 1.0 + k)
    t = w + (_LANCZOS_G - 0.5)
    return _HALF_LOG_2PI + (w - 0.5) * cmath.log(t) - t + cmath.log(x) - shift


def _log1p(u: complex) -> complex:
    """log(1 + u) without losing the digits of a small u."""
    return complex(0.5 * math.log1p(u.real * (2.0 + u.real) + u.imag * u.imag),
                   math.atan2(u.imag, 1.0 + u.real))


def _expm1(u: complex) -> complex:
    """exp(u) - 1 without losing the digits of a small u."""
    em = math.expm1(u.real)
    half = math.sin(0.5 * u.imag)
    return complex(em * math.cos(u.imag) - 2.0 * half * half,
                   (em + 1.0) * math.sin(u.imag))


def _dlog1p(h, v) -> complex:
    """log(1 + h v) / h, and its limit v at h = 0."""
    return v if h == 0 else _log1p(h * v) / h


def _dexpm1(h, v) -> complex:
    """(exp(h v) - 1) / h, and its limit v at h = 0."""
    return v if h == 0 else _expm1(h * v) / h


def _log_gamma_dd(x: complex, h) -> complex:
    """(log Gamma(x+h) - log Gamma(x)) / h, and digamma(x) at h = 0.

    Each piece of the Lanczos sum in log_gamma, and each step of its
    recursion, is differenced in closed form, so nothing cancels as h -> 0.
    The difference follows the segment from x to x+h, not the principal
    branch of either end.
    """
    shift = 0j
    w = x
    while w.real < 1.5:
        shift += _dlog1p(h, 1.0 / w)
        w += 1.0
    t = w + (_LANCZOS_G - 0.5)
    s = _LANCZOS_COEF[0]
    ds = 0j
    for k in range(1, 9):
        s += _LANCZOS_COEF[k] / (w - 1.0 + k)
        ds -= _LANCZOS_COEF[k] / ((w - 1.0 + k) * (w + h - 1.0 + k))
    return cmath.log(t + h) + (w - 0.5) * _dlog1p(h, 1.0 / t) - 1.0 \
        + _dlog1p(h, ds / s) - shift


def digamma(z: complex) -> complex:
    """psi(z) = d/dz log Gamma(z), differentiated from the log_gamma sum.

    Raises PoleError at the non-positive integers.
    """
    z = scalar("z", z, complex)
    if _is_nonpos_int(z):
        raise PoleError(f"digamma pole at z={z.real:g}")
    return _log_gamma_dd(z, 0.0)


def _sinpi(x: complex) -> complex:
    """sin(pi x), exactly zero at the integers."""
    n = round(x.real)
    v = cmath.sin(math.pi * (x - n))
    return -v if n % 2 else v


def _cospi(x: complex) -> complex:
    n = round(x.real)
    v = cmath.cos(math.pi * (x - n))
    return -v if n % 2 else v


def _rgamma_pair(x: complex, h):
    """1/Gamma at x+h and at x on one scale, with their divided difference.

    Returns (L, u, v, dd) with exp(L) u = 1/Gamma(x+h), exp(L) v = 1/Gamma(x)
    and dd = (u - v)/h (its limit at h = 0). Left of Re x = 1/2 the
    reflection 1/Gamma(x) = sin(pi x) Gamma(1-x)/pi keeps the zeros of
    1/Gamma exact, so x or x+h may sit on one.
    """
    x = complex(x)
    if x.real >= 0.5:
        dd = _dexpm1(h, -_log_gamma_dd(x, h))
        return -log_gamma(x), 1.0 + h * dd, 1.0 + 0j, dd
    y = 1.0 - x
    g = _dexpm1(h, -_log_gamma_dd(y, -h))
    sx = _sinpi(x)
    if h == 0:
        tau = math.pi * _cospi(x)
    else:
        tau = 2.0 * _cospi(x + 0.5 * h) * cmath.sin(0.5 * math.pi * h) / h
    dd = tau + g * sx + h * g * tau
    return log_gamma(y) - math.log(math.pi), sx + h * dd, sx, dd


def gamma_ratio_collapse(q) -> float:
    """Gamma((2-q)/(q-1)) / Gamma(1/(q-1)) for 1 < q < 2.

    Computed through log_gamma; by the recursion Gamma(z+1) = z Gamma(z)
    the exact value is (q-1)/(2-q), which callers may use as a cross-check.
    """
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("gamma ratio diverges at q=1 (Gamma pole)")
    qv = qp.q
    num = (2.0 - qv) / (qv - 1.0)
    den = 1.0 / (qv - 1.0)
    return cmath.exp(log_gamma(num) - log_gamma(den)).real


@dataclass(frozen=True)
class Hyp2F1Params:
    """Parameters and argument of the Gauss hypergeometric function."""
    a: complex
    b: complex
    c: complex
    z: complex

    def __post_init__(self):
        # the fields written in place, as object.__setattr__ would: a
        # closed form builds two of these per call
        fields = vars(self)
        for name, v in fields.items():
            fields[name] = scalar(name, v, complex)
        if _is_nonpos_int(self.c):
            raise PoleError(
                f"2F1 undefined: c={self.c.real:g} is a non-positive integer")


@functools.lru_cache(maxsize=128, typed=True)
def _factors(bits, a, b, c, start):
    """(a+n)(b+n) and (c+n)(n+1) for n from start on, the second cut
    before its first zero. bits holds a, b and c's exact bits, and typed
    keeps int parameters (exact products) apart from complex ones."""
    ns = range(start, start + _CHUNK)
    nums = tuple((a + n) * (b + n) for n in ns)
    dens = [(c + n) * (n + 1.0) for n in ns]
    if 0 in dens:
        del dens[dens.index(0):]
    return nums, tuple(dens)


def _series(a, b, c, z):
    """Gauss series at z; terminates exactly when a or b is in Z<=0."""
    s = term = 1.0 + 0j
    below = 0
    bits = struct.pack("6d", a.real, a.imag, b.real, b.imag, c.real, c.imag)
    for start in range(0, _SERIES_CAP, _CHUNK):
        nums, dens = _factors(bits, a, b, c, start)
        for p, d in zip(nums[:_SERIES_CAP - start], dens):
            # the ratio (a+n)(b+n) z / ((c+n)(n+1)), evaluated left to right
            term *= p * z / d
            if term == 0:
                return s
            s += term
            if abs(term) < 1e-16 * abs(s):
                below += 1
                if below >= 3:
                    return s
            else:
                below = 0
        n = start + len(dens)
        if len(dens) < _CHUNK and n < _SERIES_CAP:
            raise PoleError(f"series denominator pole at term {n} (c={c})")
    raise ConvergenceError(
        f"2F1 series did not settle within {_SERIES_CAP} terms at |z|={abs(z):.4f}",
        value=s)


def _coeff(n1, n2, d1, d2):
    """Gamma(n1)Gamma(n2) / (Gamma(d1)Gamma(d2)); zero when a denominator
    gamma sits on a pole."""
    if _is_nonpos_int(d1) or _is_nonpos_int(d2):
        return 0j
    if _is_nonpos_int(n1) or _is_nonpos_int(n2):
        raise PoleError(
            "connection-formula gamma pole not removed by degeneracy handling")
    return cmath.exp(log_gamma(n1) + log_gamma(n2)
                     - log_gamma(d1) - log_gamma(d2))


def hyp2f1(p: Hyp2F1Params, cut_side: CutSide | None = None) -> complex:
    """Gauss 2F1 continued to the cut plane C \\ [1, oo).

    On the cut itself cut_side selects the limit from Im z > 0 (ABOVE) or
    Im z < 0 (BELOW); omitting it there raises CutAmbiguityError.
    """
    a, b, c, z = p.a, p.b, p.c, p.z
    if z == 0:
        return 1.0 + 0j
    if _is_nonpos_int(a) or _is_nonpos_int(b):
        # terminating series: a polynomial, entire in z, no cut
        return _series(a, b, c, z)
    if z == 1:
        if (c - a - b).real <= 0:
            raise ValueError(
                "2F1 diverges at z=1 when Re(c-a-b) <= 0")
        with float_range(BoundaryRegimeError, _OVERFLOW, "z=1 Gauss sum",
                         a, b, c, z):
            return _coeff(c, c - a - b, c - a, c - b)
    on_cut = z.imag == 0.0 and z.real > 1.0
    if on_cut and cut_side is None:
        raise CutAmbiguityError(
            f"z={z.real:g} lies on the [1,oo) cut; pass cut_side")
    return _dispatch(a, b, c, z, cut_side if on_cut else None)


def _dispatch(a, b, c, z, side):
    # side-aware logarithms; only the outer prefactors ever sit on a cut,
    # transformed arguments land strictly off [1, oo)
    if side is not None:
        im = -1.0 if side is CutSide.ABOVE else 1.0
        log_1mz = math.log(abs(1.0 - z)) + 1j * im * math.pi
        log_mz = math.log(abs(z)) + 1j * im * math.pi
        # z/(1-z) crosses the negative axis on the side opposite to z
        log_z_1mz = math.log(abs(z / (1.0 - z))) - 1j * im * math.pi
    else:
        log_1mz = cmath.log(1.0 - z)
        log_mz = cmath.log(-z)
        log_z_1mz = cmath.log(z / (1.0 - z))

    w_direct = z
    w_pfaff = z / (z - 1.0)
    candidates = [
        ("1-z", 1.0 - z),
        ("1/z", 1.0 / z),
        ("1/(1-z)", 1.0 / (1.0 - z)),
        ("1-1/z", 1.0 - 1.0 / z),
    ]
    if side is None:
        # gamma-free routes first when their argument is already small
        if abs(w_direct) <= _SERIES_RADIUS and abs(w_direct) <= abs(w_pfaff):
            candidates = [("z", w_direct)]
        elif abs(w_pfaff) <= _SERIES_RADIUS:
            candidates = [("z/(z-1)", w_pfaff)]
        else:
            candidates = [("z", w_direct), ("z/(z-1)", w_pfaff)] + candidates

    name, w = min(candidates, key=lambda item: abs(item[1]))
    with float_range(BoundaryRegimeError, _OVERFLOW, name + " route",
                     a, b, c, z):
        return _route(name, a, b, c, w, log_1mz, log_mz, log_z_1mz)


def _route(name, a, b, c, w, log_1mz, log_mz, log_z_1mz):
    """2F1 through the connection route name, in its argument w."""
    if name == "z":
        return _series(a, b, c, w)
    if name == "z/(z-1)":
        return cmath.exp(-a * log_1mz) * _series(a, c - b, c, w)
    if name == "1-z":
        return _route_1mz(a, b, c, w, log_1mz)
    if name == "1/z":
        return _route_inv(a, b, c, w, log_mz)
    # the last two routes are Pfaff's z/(z-1) followed by one of the above:
    # 1 - z/(z-1) = 1/(1-z) and (z-1)/z = 1 - 1/z
    if name == "1/(1-z)":
        return cmath.exp(-a * log_1mz) * \
            _route_1mz(a, c - b, c, w, -log_1mz)
    return cmath.exp(-a * log_1mz) * _route_inv(a, c - b, c, w, log_z_1mz)


def _route_1mz(a, b, c, w, log_w):
    """2F1(a, b; c; z) from series in w = 1 - z, given log_w = log(1 - z).

    DLMF 15.8.4; when c - a - b lies within _LOG_CASE_BAND of an integer
    the limit form of _log_case replaces the pair of gamma-weighted terms.
    """
    s = c - a - b
    m = round(s.real)
    eps = s - m
    if abs(eps) >= _LOG_CASE_BAND:
        # the paired gamma factors sit at +/- the same combination; computing
        # that combination once keeps the pair consistent
        t1 = _coeff(c, s, c - a, c - b) * _series(a, b, 1.0 - s, w)
        t2 = _coeff(c, -s, a, b) * cmath.exp(s * log_w) * \
            _series(c - a, c - b, 1.0 + s, w)
        return t1 + t2
    if m < 0:
        # Euler's transformation flips the sign of c - a - b
        return cmath.exp(s * log_w) * _route_1mz(c - a, c - b, c, w, log_w)
    return _log_case(c, a, b, m, eps, w, log_w, b + m, (a, 1.0 - b - m),
                     c - b, c - a)


def _route_inv(a, b, c, u, log_mz):
    """2F1(a, b; c; z) from series in u = 1/z, given log_mz = log(-z).

    DLMF 15.8.2; when a - b lies within _LOG_CASE_BAND of an integer the
    limit form of _log_case replaces the pair of gamma-weighted terms.
    """
    d = a - b
    m = round(d.real)
    eps = d - m
    if abs(eps) >= _LOG_CASE_BAND:
        t1 = _coeff(c, -d, b, c - a) * cmath.exp(-a * log_mz) * \
            _series(a, 1.0 - c + a, 1.0 + d, u)
        t2 = _coeff(c, d, a, c - b) * cmath.exp(-b * log_mz) * \
            _series(b, 1.0 - c + b, 1.0 - d, u)
        return t1 + t2
    if m < 0:
        return _route_inv(b, a, c, u, log_mz)
    return cmath.exp(-b * log_mz) * _log_case(
        c, b, 1.0 - c + b, m, eps, u, -log_mz, c - a, (b,), a, c - b)


def _log_rising(x, m):
    """log of x (x+1) ... (x+m-1), or None when one factor is zero."""
    total = 0j
    for i in range(m):
        if x + i == 0:
            return None
        total += cmath.log(x + i)
    return total


def _log_case(c, A, B, m, eps, v, log_x, x2, rising, g1, g2):
    """Connection formula whose two series differ by m + eps in their c.

    Evaluates, for an integer m >= 0 and |eps| < _LOG_CASE_BAND,

        Gamma(c) Gamma(m+eps) / (Gamma(g1) Gamma(g2)) F(A, B; 1-m-eps; v)
      + Gamma(c) Gamma(-m-eps) / (Gamma(h1) Gamma(h2)) sigma v^m X^eps
            F(A+m+eps, B+m+eps; 1+m+eps; v)

    with X^eps = exp(eps log_x). DLMF 15.8.4 has this shape with
    sigma = 1, h1 = A, h2 = B, and DLMF 15.8.2 with sigma = (-1)^m,
    h1 = A, h2 = c-a. 1/Gamma(x2) and 1/Gamma(x2 + eps) are the second
    reciprocal-gamma pair: x2 = B+m for 15.8.4 and c-a for 15.8.2. The
    first m terms of the first series stay finite.
    From term m on, the two series pair up into
    (-1)^m pi/sin(pi eps) (alpha_k - gamma_k) v^(m+k), where alpha_k and
    gamma_k are products of reciprocal gammas that agree at eps = 0. Their
    divided difference d_k = (alpha_k - gamma_k)/eps is formed without
    cancellation: d_0 telescopes over the factor pairs of _rgamma_pair, and
    d_(k+1) = r_k d_k + gamma_k (r_k - r'_k)/eps with the ratio gap in closed
    form (Michel & Stoitsov, Comput. Phys. Commun. 178 (2008) 535). At
    eps = 0 the same expressions are the digamma and log terms of
    DLMF 15.8.8 and 15.8.10, so exactly and nearly integer gaps share one
    formula. The polynomial factor in front is (A)_m (1-B-m)_m
    = (-1)^m (A)_m (B)_m for 15.8.4 and (A)_m for 15.8.2, where the sign
    cancels against sigma; rising names the starts of these products.
    Scales are summed as logarithms, so gaps m in the hundreds (parameters
    near the power-law regime boundary) neither overflow nor underflow.
    """
    head = 0j
    if m > 0:
        t = 1.0 + 0j
        for n in range(m):
            head += t
            if n + 1 < m:
                t *= -(A + n) * (B + n) * v / ((n + 1.0) * (m - n - 1.0 + eps))
        head *= _coeff(c, m + eps, g1, g2)

    l1, a1, c1, d1 = _rgamma_pair(A + m, eps)
    l2, a2, c2, d2 = _rgamma_pair(x2, eps)
    l3, c3, a3, d3 = _rgamma_pair(1.0 + m, eps)
    l4, a4, _, d4 = _rgamma_pair(1.0 + 0j, -eps)
    dx = _dexpm1(eps, log_x)
    alpha = (a1, a2, a3, a4)
    gamma = (c1, c2, c3, 1.0 + eps * dx)
    diffs = (d1, d2, -d3, -d4 - dx)
    d = 0j
    for i in range(4):
        term = diffs[i]
        for j in range(i):
            term *= alpha[j]
        for j in range(i + 1, 4):
            term *= gamma[j]
        d += term
    g = gamma[0] * gamma[1] * gamma[2] * gamma[3]

    log_scale = log_gamma(c) + l1 + l2 + l3 + l4 + m * cmath.log(v)
    for x in rising:
        lr = _log_rising(x, m)
        if lr is None:
            return head
        log_scale += lr
    pe = 1.0 if eps == 0 else math.pi * eps / cmath.sin(math.pi * eps)
    factor = pe * cmath.exp(log_scale)

    total = 0j
    below = 0
    am, bm = A + m, B + m
    for k in range(_SERIES_CAP):
        total += d
        if abs(d) <= 1e-16 * abs(total):
            below += 1
            if below >= 3:
                break
        else:
            below = 0
        ak, bk = am + k, bm + k
        mk, kk = 1.0 + m + k, 1.0 + k
        prod, sum_ = ak * bk, ak + bk
        den1 = (mk + eps) * kk
        # r_k = prod/den0 and r'_k = (ak+eps)(bk+eps)/den1; their gap over
        # eps is the bracket below divided by den0 den1
        d = v * (prod * den1 * d + g * (
            prod * (kk + mk) - sum_ * mk * kk
            + eps * mk * (sum_ - kk + eps))) / (mk * (kk - eps) * den1)
        g *= v * (prod + eps * (sum_ + eps)) / den1
    else:
        raise ConvergenceError(
            f"2F1 log-case series did not settle within {_SERIES_CAP} terms "
            f"at |v|={abs(v):.4f}", value=head + factor * total)

    return head + factor * total
