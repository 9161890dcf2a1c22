import math

import numpy as np
import pytest
from scipy import integrate, stats

import qfourier.ultra as ultra
from qfourier.errors import TruncationError
from qfourier.ultra import (AnalyticRep, ContourSpec, contour_apply,
                            contour_apply_detailed, dirac_rep,
                            pseudo_poly_invariance_check)


def gauss_phi(z):
    return np.exp(-z ** 2)


def cauchy_by_complex_division(f, grid, z):
    """The Cauchy sum as complex division, one row per point: the form the
    evaluator's real arithmetic rewrites."""
    h = np.diff(grid)
    w = np.zeros_like(grid)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    wf = w * f(grid)
    pref = 1.0 / (2j * math.pi)
    return pref * np.sum(wf / (grid - z[:, None]), axis=-1)


# sinh-spaced: the spacing grows twentyfold toward the ends
NONUNIFORM_GRID = np.sinh(np.linspace(-3.0, 3.0, 1201))


def random_points(n, seed, side=None):
    """n points off the axis; side +1 or -1 picks a half-plane, None mixes."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], n) if side is None else side
    return rng.uniform(-12.0, 12.0, n) + 1j * sign * rng.uniform(0.1, 3.0, n)


def pole_rep(q):
    return AnalyticRep(evaluator=lambda z: 1j / ((2.0 - q) * z),
                       growth_order=0)


class TestSpecs:
    def test_defaults(self):
        g = ContourSpec()
        assert g.zeta == 1.0
        assert g.truncation == 40.0
        assert g.points_per_line == 4096

    @pytest.mark.parametrize("kw", [
        {"zeta": 0.0}, {"zeta": -1.0}, {"truncation": 0.0},
        {"truncation": float("inf")}, {"points_per_line": 4},
        {"points_per_line": 100.0},
    ])
    def test_invalid_spec(self, kw):
        with pytest.raises(ValueError):
            ContourSpec(**kw)

    def test_invalid_rep(self):
        with pytest.raises(ValueError):
            AnalyticRep(evaluator=lambda z: z, growth_order=-1)
        with pytest.raises(ValueError):
            AnalyticRep(evaluator=None)


class TestContourApply:
    def test_pole_at_origin_q_three_halves(self):
        # clockwise circuit around the simple pole at 0 picks up
        # -2 pi i * residue, so the value is 2 pi phi(0) / (2-q) = 4 pi
        val = contour_apply(pole_rep(1.5), gauss_phi)
        np.testing.assert_allclose(val, 12.566370614359172, rtol=1e-8,
                                   atol=1e-10)

    def test_orientation_sign(self):
        rep = AnalyticRep(evaluator=lambda z: 1.0 / z, growth_order=0)
        val = contour_apply(rep, gauss_phi)
        np.testing.assert_allclose(val.imag, -2.0 * math.pi, rtol=1e-10)
        assert abs(val.real) < 1e-10

    def test_polynomial_pairs_to_zero(self):
        rep = AnalyticRep(evaluator=lambda z: 0.3 * z ** 3 - z + 2.0,
                          growth_order=3)
        val = contour_apply(rep, gauss_phi)
        assert abs(val) < 1e-8

    def test_dirac_formula_point_mass(self):
        t0 = 0.3
        rep = AnalyticRep(
            evaluator=lambda z: 1.0 / (2j * math.pi * (t0 - z)),
            growth_order=0)
        val = contour_apply(rep, gauss_phi)
        np.testing.assert_allclose(val, 0.9139311852712282, rtol=1e-8,
                                   atol=1e-12)

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_offset_independence(self, zeta):
        q = 1.3
        spec = ContourSpec(zeta=zeta)
        val = contour_apply(pole_rep(q), gauss_phi, spec)
        np.testing.assert_allclose(val, 2.0 * math.pi / (2.0 - q), rtol=1e-8)

    def test_detailed_error_estimate_is_small(self):
        res = contour_apply_detailed(pole_rep(1.5), gauss_phi)
        assert res.quadrature_err < 1e-9
        assert res.tail == 0.0
        assert abs(res.value - 4.0 * math.pi) <= 10 * max(res.quadrature_err,
                                                          1e-12)

    def test_slow_decay_raises_truncation(self):
        rep = AnalyticRep(
            evaluator=lambda z: 1.0 / (2j * math.pi * (0.3 - z)),
            growth_order=0)
        with pytest.raises(TruncationError) as info:
            contour_apply(rep, lambda z: np.exp(-z ** 2 / 1000.0))
        assert info.value.suggested_T > 40.0
        assert info.value.tail > 1e-10

    def test_growth_order_violation_warns(self):
        rep = AnalyticRep(evaluator=lambda z: z ** 2, growth_order=0)
        with pytest.warns(UserWarning, match="grows faster"):
            contour_apply(rep, gauss_phi)

    def test_deterministic_repeat(self):
        a = contour_apply(pole_rep(1.7), gauss_phi)
        b = contour_apply(pole_rep(1.7), gauss_phi)
        assert a == b


class TestDiracRep:
    def test_gaussian_density_against_quadpack(self):
        grid = np.linspace(-10.0, 10.0, 4001)
        rep = dirac_rep(stats.norm.pdf, grid)
        z = 2j
        re, _ = integrate.quad(
            lambda t: (stats.norm.pdf(t) / (t - z)).real, -10, 10,
            epsabs=1e-13, limit=200)
        im, _ = integrate.quad(
            lambda t: (stats.norm.pdf(t) / (t - z)).imag, -10, 10,
            epsabs=1e-13, limit=200)
        ref = (re + 1j * im) / (2j * math.pi)
        np.testing.assert_allclose(rep.evaluator(z), ref, rtol=1e-8)

    def test_zero_density(self):
        grid = np.linspace(-5.0, 5.0, 101)
        rep = dirac_rep(lambda t: 0.0 * t, grid)
        assert rep.evaluator(1j) == 0j

    def test_near_axis_warns(self):
        grid = np.linspace(-5.0, 5.0, 1001)
        rep = dirac_rep(stats.norm.pdf, grid)
        with pytest.warns(UserWarning, match="nearly singular"):
            rep.evaluator(0.001j)

    def test_roundtrip_pairing_recovers_integral(self):
        # pairing the representation of a density with phi is just
        # Int f(t) phi(t) dt; for the standard normal against exp(-t^2)
        # the closed form is 1/sqrt(3)
        grid = np.linspace(-10.0, 10.0, 4001)
        rep = dirac_rep(stats.norm.pdf, grid)
        val = contour_apply(rep, gauss_phi)
        np.testing.assert_allclose(val, 1.0 / math.sqrt(3.0), rtol=1e-6)

    def test_linearity(self):
        grid = np.linspace(-8.0, 8.0, 2001)
        f = stats.norm.pdf
        g = stats.norm(loc=1.5, scale=0.7).pdf
        combo = dirac_rep(lambda t: 2.0 * f(t) + 3.0 * g(t), grid)
        fa = dirac_rep(f, grid)
        ga = dirac_rep(g, grid)
        for z in (2j, -1.5j, 3.0 + 0.5j):
            np.testing.assert_allclose(
                combo.evaluator(z),
                2.0 * fa.evaluator(z) + 3.0 * ga.evaluator(z), rtol=1e-13)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("n", [1, 17, 300])
    def test_matches_complex_division(self, n, side):
        rep = dirac_rep(stats.norm.pdf, NONUNIFORM_GRID)
        z = random_points(n, seed=n, side=side)
        want = cauchy_by_complex_division(stats.norm.pdf, NONUNIFORM_GRID, z)
        np.testing.assert_allclose(rep.evaluator(z), want, rtol=1e-13,
                                   atol=0.0)

    def test_bits_do_not_depend_on_the_block(self, monkeypatch):
        rep = dirac_rep(stats.norm.pdf, NONUNIFORM_GRID)
        z = random_points(300, seed=3)
        vals = rep.evaluator(z)
        assert np.array_equal(rep.evaluator(z), vals)
        for i in range(0, 300, 11):
            alone = rep.evaluator(z[i])
            assert isinstance(alone, complex)
            assert (alone.real, alone.imag) == (vals[i].real, vals[i].imag)
        # a slice shifts every point's place in its block
        assert np.array_equal(rep.evaluator(z[5:40]), vals[5:40])
        assert np.array_equal(rep.evaluator(z.reshape(15, 20)),
                              vals.reshape(15, 20))
        for block in (1, 7, 1000):
            monkeypatch.setattr(ultra, "_CAUCHY_BLOCK", block)
            assert np.array_equal(rep.evaluator(z), vals)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            dirac_rep(stats.norm.pdf, np.array([0.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            dirac_rep(stats.norm.pdf, np.array([1.0]))


class TestPseudoPolyInvariance:
    @pytest.mark.parametrize("degree", [0, 3, 5])
    def test_polynomial_shift_invisible(self, degree):
        diff = pseudo_poly_invariance_check(pole_rep(1.5), degree, gauss_phi)
        assert diff < 1e-8

    def test_short_contour_reports_truncation(self):
        spec = ContourSpec(truncation=3.0, points_per_line=512)
        with pytest.raises(TruncationError):
            pseudo_poly_invariance_check(pole_rep(1.5), 8, gauss_phi, spec)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            pseudo_poly_invariance_check(pole_rep(1.5), -2, gauss_phi)
