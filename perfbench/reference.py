"""References computed apart from qfourier: mpmath integrals of the defining
integrand, a double-precision Gauss-Legendre rule, and exact values.

The integrand is f(x) [1 + i(1-q) k x f(x)^(q-1)]^(1/(1-q)) with the
principal branch, the definition the package documents. The upper piece
integrates it over x > 0; the real-line transform integrates it over the
whole line.
"""

from __future__ import annotations

import math

import numpy as np

_DPS = 20


def _mp():
    import mpmath
    mpmath.mp.dps = _DPS
    return mpmath


def _mp_kernel(mp, fx, x, q, k):
    return fx * mp.exp(mp.log(1 + 1j * (1 - q) * k * x * fx ** (q - 1))
                       / (1 - q))


def powerlaw_mp(lam, beta, a, b, q, k):
    """Upper piece of (lam/x)^beta on [a, b] at complex k, by mpmath."""
    mp = _mp()
    lam, beta, q, k = mp.mpf(lam), mp.mpf(beta), mp.mpf(q), mp.mpc(k)

    def g(x):
        return _mp_kernel(mp, (lam / x) ** beta, x, q, k)

    return complex(mp.quad(g, mp.linspace(mp.mpf(a), mp.mpf(b), 5)))


def gaussian_line_mp(sigma, q, k):
    """Real-line transform of exp(-x^2/(2 sigma^2)) by mpmath; the tail
    past 12 sigma is below 1e-31 of the mass."""
    mp = _mp()
    s, q, k = mp.mpf(sigma), mp.mpf(q), mp.mpf(k)

    def g(x):
        return _mp_kernel(mp, mp.exp(-x * x / (2 * s * s)), x, q, k)

    return complex(mp.quad(g, [c * s for c in (-12, -6, -3, 0, 3, 6, 12)]))


def qgaussian_line_mp(q_g, beta_g, q, k):
    """Real-line transform of [1 - (1-q_g) beta_g x^2]^(1/(1-q_g)), q_g > 1."""
    mp = _mp()
    qg, bg, q, k = mp.mpf(q_g), mp.mpf(beta_g), mp.mpf(q), mp.mpf(k)

    def g(x):
        fx = (1 - (1 - qg) * bg * x * x) ** (1 / (1 - qg))
        return _mp_kernel(mp, fx, x, q, k)

    cuts = [-mp.inf, -64, -16, -4, -1, 0, 1, 4, 16, 64, mp.inf]
    return complex(mp.quad(g, cuts))


_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)


def powerlaw_gl(lam, beta, a, b, q, ks, panels=16):
    """Upper pieces of (lam/x)^beta on [a, b] at the array ks, by a
    16-panel 40-point Gauss-Legendre rule in double precision."""
    edges = np.linspace(a, b, panels + 1)
    c = 0.5 * (edges[:-1] + edges[1:])
    h = 0.5 * (edges[1:] - edges[:-1])
    x = (c[:, None] + h[:, None] * _GL_X[None, :]).ravel()
    w = (h[:, None] * _GL_W[None, :]).ravel()
    fx = (lam / x) ** beta
    ks = np.asarray(ks, dtype=complex)[:, None]
    base = 1.0 + 1j * (1.0 - q) * ks * (x * fx ** (q - 1.0))[None, :]
    return (np.exp(np.log(base) / (1.0 - q)) * (w * fx)[None, :]).sum(axis=1)


def heaviside_exact(q, k, matching):
    """Step transform: i/((2-q)k) on the matching half-plane, 0 on the other."""
    return 1j / ((2.0 - q) * k) if matching else 0j


def delta_weight(q):
    return 2.0 * math.pi / (2.0 - q)


# N(0,1) paired with exp(-t^2): the Gaussian integral of exp(-3t^2/2)/sqrt(2pi)
DIRAC_PAIRING = 1.0 / math.sqrt(3.0)
