import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfourier.errors import (BoundaryRegimeError, ConvergenceError,
                             CutAmbiguityError, PoleError)
from qfourier import special
from qfourier.special import (CutSide, Hyp2F1Params, digamma,
                              gamma_ratio_collapse, hyp2f1, log_gamma)

mpmath.mp.dps = 30

# parameter sets on which a connection formula has an integer gap
DEGENERATE = [
    # c-a-b an integer: the 1-z route needs the limit formula
    (0.5, 1.5, 3.0, 0.95 + 0j),
    # a-b an integer: the 1/(1-z) route needs it
    (1.0, 2.0, 3.5, -40.0 + 0j),
    # sets the power-law closed forms produce: beta = 2 at q = 1.25,
    # beta = 3 at q = 1.5 (a-b and c-a-b both integers) and beta = 1 at
    # q = 1.7 (a = b)
    (4.0, 6.0, 7.0, -1.5j),
    (2.0, 4.0, 5.0, -3j),
    (1 / 0.7, 1 / 0.7, 1 / 0.7 + 1, 2.5j),
    # a-b and c-a both integers: the 1/z route meets a zero of 1/Gamma,
    # and the value is (1-z)^-3 (1 - z/3)
    (4.0, 2.0, 3.0, 30.0 + 20.0j),
]


def stirling_loggamma(z):
    """Oracle: asymptotic series plus upward recursion, no Lanczos anywhere.

    Bernoulli coefficients B_{2n}/(2n(2n-1)) for n = 1..6; accurate to
    machine precision once |z| >= 25 in the right half-plane.
    """
    coef = [1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680,
            1.0 / 1188, -691.0 / 360360]
    z = complex(z)
    shift = 0j
    while not (abs(z) >= 25.0 and z.real >= 1.0):
        shift += cmath.log(z)
        z += 1.0
    s = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    zp = z
    for bk in coef:
        s += bk / zp
        zp *= z * z
    return s - shift


class TestLogGamma:
    def test_frozen_values(self):
        assert abs(log_gamma(1.0)) < 1e-14
        np.testing.assert_allclose(log_gamma(0.5).real, 0.5723649429247001,
                                   rtol=1e-14)
        np.testing.assert_allclose(log_gamma(5.0).real, math.log(24.0),
                                   rtol=1e-14)

    @pytest.mark.parametrize("z", [
        3 + 4j, 0.5 - 2j, -2.5 + 0.4j, -5.5 - 3j, 10 + 10j,
        0.1 + 0j, 1.5 + 30j, 47.0 + 0j, -17.3 + 8j,
    ])
    def test_against_mpmath(self, z):
        ref = complex(mpmath.loggamma(z))
        np.testing.assert_allclose(log_gamma(z), ref, rtol=1e-12, atol=1e-12)

    def test_against_stirling_recursion_oracle(self):
        rng = np.random.default_rng(1723)
        count = 0
        while count < 40:
            z = complex(rng.uniform(-49, 49), rng.uniform(-10, 10))
            if z.real < 0.5 and abs(z.imag) < 0.1:
                continue
            np.testing.assert_allclose(log_gamma(z), stirling_loggamma(z),
                                       rtol=1e-12, atol=1e-12)
            count += 1

    def test_recursion_invariant(self):
        rng = np.random.default_rng(88)
        zs = rng.uniform(0.05, 14, 100) + 1j * rng.uniform(-14, 14, 100)
        for z in zs:
            ratio = cmath.exp(log_gamma(z + 1) - log_gamma(z))
            assert abs(ratio - z) < 1e-10 * abs(z)

    @pytest.mark.parametrize("z", [
        1.0, 0.5, 3 + 4j, 0.6 - 2j, -2.5 + 0.4j, 1.5 + 30j, 47.0, 1e-3 + 0j,
    ])
    def test_digamma_against_mpmath(self, z):
        np.testing.assert_allclose(digamma(z), complex(mpmath.digamma(z)),
                                   rtol=1e-13)

    def test_digamma_pole(self):
        with pytest.raises(PoleError):
            digamma(-2.0)

    def test_conjugate_symmetry(self):
        for z in [2.3 + 1.1j, 0.4 + 5j, -3.2 + 2j]:
            np.testing.assert_allclose(log_gamma(z.conjugate()),
                                       log_gamma(z).conjugate(), rtol=1e-14)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            log_gamma(complex("nan"))


class TestGammaRatioCollapse:
    @pytest.mark.parametrize("q, expected", [
        (1.5, 1.0), (1.25, 1.0 / 3.0), (1.8, 4.0),
    ])
    def test_frozen_values(self, q, expected):
        np.testing.assert_allclose(gamma_ratio_collapse(q), expected,
                                   rtol=1e-12)

    def test_matches_rational_form_on_grid(self):
        for q in np.arange(1.1, 1.95, 0.1):
            np.testing.assert_allclose(gamma_ratio_collapse(q),
                                       (q - 1.0) / (2.0 - q), rtol=1e-12)

    def test_classical_q_rejected(self):
        with pytest.raises(ValueError):
            gamma_ratio_collapse(1.0)


def F(a, b, c, z, side=None):
    return hyp2f1(Hyp2F1Params(a, b, c, z), cut_side=side)


class TestHyp2F1:
    def test_empty_series(self):
        assert F(0.7, -1.3, 2.2, 0.0) == 1.0 + 0j

    @pytest.mark.parametrize("a, b, c, z, route", [
        (1e4, 1e4 + 3, 2e4, -5j, "1/(1-z) route"),
        (1e4, 1e4, 3e4 + 1, 1.0, "z=1 Gauss sum"),
    ])
    def test_overflow_names_its_route(self, a, b, c, z, route):
        # parameters in the ten thousands put a gamma ratio past float
        # range; that is a typed error, not a bare OverflowError
        with pytest.raises(BoundaryRegimeError) as info:
            F(a, b, c, z)
        assert f"overflows float on the {route} at" in str(info.value)

    def test_frozen_log_series_value(self):
        np.testing.assert_allclose(F(1, 1, 2, 0.5), 1.3862943611198906,
                                   rtol=1e-13)

    def test_binomial_collapse_frozen(self):
        np.testing.assert_allclose(F(-2, 1.7, 1.7, -0.5), 2.25, rtol=1e-14)

    @given(alpha=st.floats(0.05, 3.0), b=st.floats(0.5, 4.0),
           w=st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_binomial_collapse_identity(self, alpha, b, w):
        val = F(-alpha, b, b, -w)
        assert abs(val - (1.0 + w) ** alpha) < 1e-10

    def test_binomial_collapse_complex_argument(self):
        z = 3.0 + 2.0j
        val = F(-1.3, 0.9, 0.9, z)
        np.testing.assert_allclose(val, (1.0 - z) ** 1.3, rtol=1e-10)

    @pytest.mark.parametrize("z", [
        0.3 + 0.4j, -5.0 + 0j, 2.5j, -0.3 - 4j, 0.95 + 0j,
    ])
    def test_log_closed_form(self, z):
        # a=b=1, c=2 is degenerate on every connection formula (a-b and
        # c-a-b both integer), so outside the series disc this exercises
        # their logarithmic limit form
        np.testing.assert_allclose(F(1, 1, 2, z), -cmath.log(1 - z) / z,
                                   rtol=1e-12)

    # one case per continuation route: direct series, Pfaff, and the four
    # gamma-coefficient formulas
    @pytest.mark.parametrize("a, b, c, z", [
        (0.3, 0.7, 1.9, 0.5 + 0.2j),
        (0.3, 0.7, 1.9, -3.0 + 0.5j),
        (0.35, 1.75, 2.9, 0.95 + 0.05j),
        (0.35, 1.75, 2.9, -40.0 + 3.0j),
        (0.35, 1.75, 2.9, -40.0 + 2.0j),
        (0.35, 1.75, 2.9, 1.2 + 0.5j),
        (0.35, 1.75, 2.9, 1.2 - 0.5j),
        (1.4, 0.9, 3.3, 0.9 + 0j),
        # a - b within 0.1 of a negative integer: the 1/z route swaps a
        # and b to take its log-case limit
        (1, 3, 2.5, 5 + 0.1j),
        (1, 3.05, 2.5, 5 + 0.1j),
    ])
    def test_against_mpmath(self, a, b, c, z):
        ref = complex(mpmath.hyp2f1(a, b, c, z))
        np.testing.assert_allclose(F(a, b, c, z), ref, rtol=1e-9)

    @pytest.mark.parametrize("a, b, c, z", DEGENERATE)
    def test_degenerate_parameters(self, a, b, c, z):
        ref = complex(mpmath.hyp2f1(a, b, c, z))
        np.testing.assert_allclose(F(a, b, c, z), ref, rtol=1e-12)

    @pytest.mark.parametrize("delta", [
        -1e-4, -1e-6, -1e-8, -1e-10, -1e-12, -1e-15,
        1e-15, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4,
    ])
    @pytest.mark.parametrize("a, b, c, z", DEGENERATE)
    def test_near_degenerate_parameters(self, a, b, c, z, delta):
        # a gap within delta of an integer must not be rounded to it
        ref = complex(mpmath.hyp2f1(a, b + delta, c, z))
        np.testing.assert_allclose(F(a, b + delta, c, z), ref, rtol=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 1e-10, -1e-4])
    def test_large_integer_gap(self, delta):
        # a - b = -500 is the shape the power-law closed form takes at
        # beta = 2 just below q = 1.5; its gamma scales (log Gamma(503) is
        # about 2630) are summed as logarithms and carry ~1e-13 of rounding
        a, b, c, z = 2.0, 502.0 + delta, 503.0, -2j
        ref = complex(mpmath.hyp2f1(a, b, c, z))
        np.testing.assert_allclose(F(a, b, c, z), ref, rtol=5e-12)

    def test_cut_requires_side(self):
        with pytest.raises(CutAmbiguityError):
            F(0.3, 0.7, 1.9, 2.5)

    def test_cut_sides_match_offset_limits(self):
        a, b, c = 0.3, 0.7, 1.9
        above = F(a, b, c, 2.5, side=CutSide.ABOVE)
        below = F(a, b, c, 2.5, side=CutSide.BELOW)
        ref_up = complex(mpmath.hyp2f1(a, b, c, 2.5 + 1e-12j))
        ref_dn = complex(mpmath.hyp2f1(a, b, c, 2.5 - 1e-12j))
        np.testing.assert_allclose(above, ref_up, rtol=1e-9)
        np.testing.assert_allclose(below, ref_dn, rtol=1e-9)
        assert above.imag != 0
        assert below.imag != 0

    def test_cut_sides_conjugate_for_real_parameters(self):
        above = F(0.4, 1.1, 2.6, 3.0, side=CutSide.ABOVE)
        below = F(0.4, 1.1, 2.6, 3.0, side=CutSide.BELOW)
        np.testing.assert_allclose(above, below.conjugate(), rtol=1e-12)

    def test_terminating_series_needs_no_side(self):
        # a polynomial has no branch cut
        val = F(-3, 0.8, 1.4, 2.5)
        ref = complex(mpmath.hyp2f1(-3, 0.8, 1.4, 2.5))
        np.testing.assert_allclose(val, ref, rtol=1e-12)

    def test_gauss_point(self):
        val = F(0.3, 0.4, 2.0, 1.0)
        ref = complex(mpmath.hyp2f1(0.3, 0.4, 2.0, 1.0))
        np.testing.assert_allclose(val, ref, rtol=1e-12)

    def test_gauss_point_divergent(self):
        with pytest.raises(ValueError):
            F(1.1, 1.1, 2.0, 1.0)

    @pytest.mark.parametrize("c", [0.0, -3.0])
    def test_c_pole_rejected(self, c):
        with pytest.raises(PoleError):
            Hyp2F1Params(0.5, 0.7, c, 0.3)

    def test_unit_circle_hard_point_reports_nonconvergence(self):
        z = cmath.exp(1j * math.pi / 3.0)
        with pytest.raises(ConvergenceError) as info:
            F(0.3, 0.4, 1.9, z)
        assert info.value.value is not None

    @given(theta=st.floats(0.0, 2.0 * math.pi), a=st.floats(-2.5, 2.5),
           b=st.floats(-2.5, 2.5), c=st.floats(0.3, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_pfaff_consistency_on_radius(self, theta, a, b, c):
        z = 0.7 * cmath.exp(1j * theta)
        w = z / (z - 1.0)
        lhs = F(a, b, c, z)
        rhs = (1.0 - z) ** (-a) * F(a, c - b, c, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def reference_series(a, b, c, z):
    """The Gauss series as _series summed it before its factor chunks: each
    term's (a+n)(b+n) and (c+n)(n+1) computed afresh, the same stops."""
    s = 1.0 + 0j
    term = 1.0 + 0j
    below = 0
    for n in range(special._SERIES_CAP):
        denom = (c + n) * (n + 1.0)
        if denom == 0:
            raise PoleError(f"series denominator pole at term {n} (c={c})")
        term *= (a + n) * (b + n) * z / denom
        if term == 0:
            return s
        s += term
        if abs(term) < 1e-16 * abs(s):
            below += 1
            if below >= 3:
                return s
        else:
            below = 0
    raise ConvergenceError(
        f"2F1 series did not settle within {special._SERIES_CAP} terms at "
        f"|z|={abs(z):.4f}", value=s)


def bits(v):
    return None if v is None else (v.real.hex(), v.imag.hex())


def outcome(fn, *args):
    """A value's exact bits, or the error's type, text and value bits."""
    try:
        return bits(complex(fn(*args)))
    except (PoleError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc), bits(getattr(exc, "value", None))


class TestSeriesFactors:
    """_series reads its parameter factors from cached chunks and must give
    the bits, stops and errors of the term-by-term reference."""

    GRID = [
        # direct series
        ("z", (0.3, 0.7, 1.9, 0.5 + 0.2j)),
        ("z", (1.5 + 0.5j, 2.5 - 1j, 3.5, 0.3 - 0.6j)),
        # direct, about 500 terms: longer than three chunks
        ("z", (20.0, 20.0, 1.5, 0.79)),
        # Pfaff
        ("z/(z-1)", (0.3, 0.7, 1.9, -3.0 + 0.5j)),
        ("z/(z-1)", (2.0, 0.75, 3.1, -0.76)),
        # 1 - z, plain and in its log-case limit
        ("1-z", (0.35, 1.75, 2.9, 0.95 + 0.05j)),
        ("1-z", (0.5, 1.5, 3.0, 0.95)),
        # 1/z, plain and in its log-case limit, and 1/(1-z)
        ("1/z", (0.35, 1.75, 2.9, 5 + 0.1j)),
        ("1/z", (1.0, 3.0, 2.5, 5 + 0.1j)),
        ("1/(1-z)", (0.35, 1.75, 2.9, -40.0 + 3.0j)),
        # terminating, summed with no route: short, off the disc, and 251
        # terms over four chunks
        (None, (-3.0, 0.8, 1.4, 0.6)),
        (None, (-3.0, 0.8, 1.4, 2.5)),
        (None, (-250.0, 0.5, 1.5, 0.7)),
    ]

    @pytest.mark.parametrize("route, params", GRID)
    def test_hyp2f1_bits_match_the_reference(self, monkeypatch, route,
                                             params):
        routes = []
        inner = special._route

        def spy(name, *args):
            routes.append(name)
            return inner(name, *args)

        monkeypatch.setattr(special, "_route", spy)
        got = outcome(F, *params)
        assert routes[:1] == ([route] if route else [])
        monkeypatch.setattr(special, "_series", reference_series)
        assert got == outcome(F, *params)

    # one triple with every real and imaginary part of a, b and c signed
    # +0.0, the other -0.0; == and hash cannot tell them apart
    PLUS = (complex(0.0, 0.5), complex(1.25, 0.0), complex(2.5, 0.0))
    MINUS = (complex(-0.0, 0.5), complex(1.25, -0.0), complex(2.5, -0.0))

    @pytest.mark.parametrize("order", [(PLUS, MINUS), (MINUS, PLUS)],
                             ids=["plus-first", "minus-first"])
    def test_signed_zeros_in_both_orders(self, order):
        special._factors.cache_clear()
        for a, b, c in order:
            for z in (0.4 - 0.3j, complex(-0.5, 0.0), complex(-0.5, -0.0)):
                assert outcome(special._series, a, b, c, z) == \
                    outcome(reference_series, a, b, c, z)
        assert special._factors.cache_info().misses == 2

    def test_terminating_before_a_denominator_pole(self):
        # (a)_3 = 0 ends the series at term 3, before (c)_5 = 0
        z = 0.3 - 0.2j
        got = special._series(-2, 1, -5, z)
        assert bits(got) == outcome(reference_series, -2, 1, -5, z)
        assert got == pytest.approx(1.0 + 0.4 * z + 0.1 * z * z, rel=1e-15)

    def test_denominator_pole_is_reached(self):
        args = (0.5 + 0j, 0.5 + 0j, -3.0 + 0j, 0.5 + 0j)
        got = outcome(special._series, *args)
        assert got[:2] == ("PoleError",
                           "series denominator pole at term 3 (c=(-3+0j))")
        assert got == outcome(reference_series, *args)

    @pytest.mark.parametrize("cap", [3, 4, 10, 64, 100])
    def test_cap_stops_at_exactly_its_terms(self, monkeypatch, cap):
        # at cap 3 the pole at term 3 is never reached; at 4 it is
        monkeypatch.setattr(special, "_SERIES_CAP", cap)
        for args in ((1.0 + 0j, 1.0 + 0j, 1.5 + 0j, 0.999 + 0j),
                     (0.5 + 0j, 0.5 + 0j, -3.0 + 0j, 0.5 + 0j)):
            want = outcome(reference_series, *args)
            assert outcome(special._series, *args) == want
        assert want[0] == ("ConvergenceError" if cap == 3 else "PoleError")
