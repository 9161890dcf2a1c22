import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

import qfourier.ultra as ultra
from qfourier.errors import TruncationError
from qfourier.quadrature import graded_line_nodes
from qfourier.verify import _pole_rep
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

    def test_scalar_only_callables_pair_like_vectorized_ones(self):
        # complex(z) rejects an array, so both callables are evaluated
        # point by point
        rep = AnalyticRep(evaluator=lambda z: 1j / (0.5 * complex(z)),
                          growth_order=0)
        val = contour_apply(rep, lambda z: cmath.exp(-complex(z) ** 2))
        np.testing.assert_allclose(val, contour_apply(pole_rep(1.5),
                                                      gauss_phi),
                                   rtol=1e-14, atol=0.0)

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

    def test_scalar_density_gives_the_vectorized_value(self):
        # float(t) rejects an array, so the density is sampled point by point
        grid = np.linspace(-8.0, 8.0, 801)
        scalar = dirac_rep(lambda t: math.exp(-0.5 * float(t) ** 2), grid)
        vector = dirac_rep(lambda t: np.exp(-0.5 * t ** 2), grid)
        z = np.array([2j, -1.5j, 3.0 + 0.5j])
        np.testing.assert_allclose(scalar.evaluator(z), vector.evaluator(z),
                                   rtol=1e-14, atol=0.0)

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


def skewed_density(t):
    """A real density with no symmetry about any point."""
    return (np.exp(-(t - 1.3) ** 2) * (1.0 + 0.4 * np.tanh(3.0 * t))
            + 0.1 * np.exp(-np.abs(t + 2.0)))


MIRROR_GRIDS = {
    "uniform": np.linspace(-9.0, 11.0, 1601),
    "random": np.sort(np.random.default_rng(5).uniform(-9.0, 11.0, 1201)),
}


def result_repr(res):
    return repr((res.value, res.quadrature_err, res.tail))


def counting(rep, calls):
    """rep with an evaluator that records the size of each call."""
    def spy(z):
        calls.append(np.size(z))
        return rep.evaluator(z)
    return dataclasses.replace(rep, evaluator=spy)


class TestConjugateMirror:
    """A conjugate-odd rep, F(conj z) = -conj F(z), is evaluated on the
    upper contour line alone, with the bits of evaluating both."""

    @pytest.mark.parametrize("zeta", [0.25, 1.0, 3.7])
    @pytest.mark.parametrize("grid", MIRROR_GRIDS.values(),
                             ids=MIRROR_GRIDS.keys())
    def test_dirac_lower_line_is_minus_conj_upper_bit_for_bit(self, grid,
                                                              zeta):
        rep = dirac_rep(skewed_density, grid)
        assert rep.conjugate_odd is True
        t, _ = graded_line_nodes(40.0, 4096)
        up = rep.evaluator(t + 1j * zeta)
        dn = rep.evaluator(t - 1j * zeta)
        assert np.all(up != 0)
        assert (-np.conj(up)).tobytes() == dn.tobytes()

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("grid", MIRROR_GRIDS.values(),
                             ids=MIRROR_GRIDS.keys())
    def test_dirac_pairing_is_the_same_with_the_flag_off(self, grid, zeta):
        rep = dirac_rep(skewed_density, grid)
        spec = ContourSpec(zeta=zeta)
        on = contour_apply_detailed(rep, gauss_phi, spec)
        off = contour_apply_detailed(
            dataclasses.replace(rep, conjugate_odd=False), gauss_phi, spec)
        assert result_repr(on) == result_repr(off)

    @pytest.mark.parametrize("zeta", [0.1, 0.5, 1.0, 2.0, 3.7])
    def test_pole_pairing_is_the_same_with_the_flag_off(self, zeta):
        spec = ContourSpec(zeta=zeta)
        for q in np.linspace(1.05, 1.95, 10):
            rep = _pole_rep(float(q))
            assert rep.conjugate_odd is True
            on = contour_apply_detailed(rep, gauss_phi, spec)
            off = contour_apply_detailed(
                dataclasses.replace(rep, conjugate_odd=False), gauss_phi,
                spec)
            assert result_repr(on) == result_repr(off)

    @pytest.mark.parametrize("declared, sizes", [(True, [4097]),
                                                 (False, [4097, 4097])])
    def test_a_declared_rep_is_evaluated_on_one_line(self, declared, sizes):
        calls = []
        rep = counting(dataclasses.replace(pole_rep(1.5),
                                           conjugate_odd=declared), calls)
        contour_apply(rep, gauss_phi)
        assert calls == sizes

    @pytest.mark.parametrize("degree", [0, 3, 5])
    def test_invariance_check_keeps_the_bits(self, degree):
        calls = []
        declared = counting(_pole_rep(1.5), calls)
        diff = pseudo_poly_invariance_check(declared, degree, gauss_phi,
                                            seed=degree)
        # F's own pairing takes one line; F + P, which is not
        # conjugate-odd, takes both
        assert calls == [4097] * 3
        plain = dataclasses.replace(declared, conjugate_odd=False)
        assert repr(diff) == repr(pseudo_poly_invariance_check(
            plain, degree, gauss_phi, seed=degree))

    def test_near_axis_warning_still_fires(self):
        # grid spacing 0.01 against a contour 0.005 off the axis
        rep = dirac_rep(stats.norm.pdf, np.linspace(-5.0, 5.0, 1001))
        with pytest.warns(UserWarning, match="nearly singular"):
            contour_apply(rep, gauss_phi, ContourSpec(zeta=0.005))

    @pytest.mark.parametrize("value", [np.float32(0.5), np.int64(2),
                                       np.float64(1.5), Fraction(3, 4), 2])
    def test_spec_takes_any_real_as_a_float(self, value):
        spec = ContourSpec(zeta=value, truncation=value * 20)
        assert type(spec.zeta) is float and type(spec.truncation) is float
        assert spec.zeta == float(value)
        assert spec.truncation == float(value * 20)

    @pytest.mark.parametrize("value", [True, False, np.True_, "1.0", None,
                                       1j, 10 ** 400, float("nan"),
                                       np.float32("inf")])
    @pytest.mark.parametrize("name", ["zeta", "truncation"])
    def test_spec_refuses_bools_and_non_reals(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ContourSpec(**{name: value})

    def test_rep_flag_must_be_a_bool(self):
        assert AnalyticRep(evaluator=abs).conjugate_odd is False
        assert AnalyticRep(evaluator=abs, conjugate_odd=True).conjugate_odd
        for flag in (1, 0, np.True_, "yes", None):
            with pytest.raises(ValueError, match="conjugate_odd"):
                AnalyticRep(evaluator=abs, conjugate_odd=flag)
