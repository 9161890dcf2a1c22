import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from qfourier.errors import ConvergenceError, MembershipError, NonFiniteError
from qfourier.transform import (
    Constant,
    Gaussian,
    HalfPlanePoint,
    Heaviside,
    PlaneTag,
    PowerLaw,
    QGaussian,
    QuadratureConfig,
    Sampled,
    membership_check,
    qft_complex,
    qft_real_line,
    qft_surface,
)
from qfourier import quadrature
from qfourier import transform as transform_module
from qfourier.transform import _osc_panels


def up(k):
    return HalfPlanePoint(complex(k), PlaneTag.REAL_LIMIT_UPPER)


def down(k):
    return HalfPlanePoint(complex(k), PlaneTag.REAL_LIMIT_LOWER)


def quad_oracle(f, q, k, lo, hi):
    """Independent one-sided reference via scipy on split real/imag parts."""
    def kernel(x):
        y = f.values(np.array([x]))[0]
        if y == 0:
            return 0j
        if q == 1.0:
            return y * np.exp(1j * k * x)
        base = 1.0 + 1j * (1.0 - q) * k * x * y ** (q - 1.0)
        return y * base ** (1.0 / (1.0 - q))

    re, _ = quad(lambda x: kernel(x).real, lo, hi, limit=500)
    im, _ = quad(lambda x: kernel(x).imag, lo, hi, limit=500)
    return complex(re, im)


class TestFunctionSpecs:
    def test_powerlaw_values_and_support(self):
        f = PowerLaw(lam=2.0, beta=1.5, a=1.0, b=4.0)
        x = np.array([0.5, 1.0, 2.0, 4.0, 5.0])
        expected = np.array([0.0, 2.0 ** 1.5, 1.0, 0.5 ** 1.5, 0.0])
        assert_allclose(f.values(x), expected, rtol=1e-14)
        assert f.support() == (1.0, 4.0)

    @pytest.mark.parametrize("kwargs", [
        dict(lam=-1.0, beta=1.0, a=1.0, b=2.0),
        dict(lam=1.0, beta=1.0, a=0.0, b=2.0),
        dict(lam=1.0, beta=1.0, a=2.0, b=2.0),
        dict(lam=1.0, beta=math.nan, a=1.0, b=2.0),
    ])
    def test_powerlaw_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PowerLaw(**kwargs)

    @pytest.mark.parametrize("lam, beta, a, b", [
        (1.0, 400.0, 0.1, 1.0),      # overflows at a
        (1e300, 2.0, 1.0, 2.0),      # at both ends
        (1.0, -400.0, 1.0, 1e3),     # at b
    ])
    def test_powerlaw_rejects_overflowing_profile(self, lam, beta, a, b):
        with pytest.raises(ValueError, match="overflows"):
            PowerLaw(lam, beta, a, b)

    def test_heaviside_sides(self):
        x = np.array([-1.0, 0.0, 1.0])
        assert_allclose(Heaviside(1).values(x), [0.0, 0.0, 1.0])
        assert_allclose(Heaviside(-1).values(x), [1.0, 0.0, 0.0])
        assert Heaviside(-1).support() == (-math.inf, 0.0)
        with pytest.raises(ValueError):
            Heaviside(0)

    def test_constant_and_zero(self):
        assert Constant(2.0).values(np.array([3.0]))[0] == 2.0
        assert Constant(0.0).support() == (0.0, 0.0)
        with pytest.raises(ValueError):
            Constant(-1.0)

    def test_gaussian_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            Gaussian(0.0)

    def test_qgaussian_limits(self):
        # q_g = 1 degenerates to a Gaussian with sigma = 1/sqrt(2 beta)
        x = np.linspace(-2, 2, 9)
        f1 = QGaussian(q_g=1.0, beta_g=2.0)
        f2 = Gaussian(sigma=1.0 / math.sqrt(4.0))
        assert_allclose(f1.values(x), f2.values(x), rtol=1e-14)
        # compact cutoff below q_g = 1
        fc = QGaussian(q_g=0.5, beta_g=1.0)
        xc = 1.0 / math.sqrt(0.5)
        assert fc.support() == (-xc, xc)
        assert fc.values(np.array([2.0]))[0] == 0.0

    def test_qgaussian_rejects(self):
        with pytest.raises(ValueError):
            QGaussian(q_g=3.0, beta_g=1.0)
        with pytest.raises(ValueError):
            QGaussian(q_g=1.5, beta_g=0.0)

    def test_sampled_interpolates(self):
        f = Sampled(x=[0.0, 1.0, 2.0], y=[0.0, 2.0, 0.0])
        assert f.values(np.array([0.5]))[0] == 1.0
        assert f.values(np.array([3.0]))[0] == 0.0
        assert f.peak_value() == 2.0

    @pytest.mark.parametrize("x,y", [
        ([0.0, 1.0], [1.0, -0.5]),
        ([1.0, 0.0], [1.0, 1.0]),
        ([0.0], [1.0]),
        ([0.0, 0.0], [1.0, 1.0]),
    ])
    def test_sampled_rejects(self, x, y):
        with pytest.raises(ValueError):
            Sampled(x=x, y=y)


class TestHalfPlanePoint:
    def test_tags_enforce_imag_sign(self):
        HalfPlanePoint(1j, PlaneTag.UPPER)
        HalfPlanePoint(-2j, PlaneTag.LOWER)
        HalfPlanePoint(3.0, PlaneTag.REAL_LIMIT_UPPER)
        with pytest.raises(ValueError):
            HalfPlanePoint(1.0, PlaneTag.UPPER)
        with pytest.raises(ValueError):
            HalfPlanePoint(1j, PlaneTag.LOWER)
        with pytest.raises(ValueError):
            HalfPlanePoint(1 + 1j, PlaneTag.REAL_LIMIT_LOWER)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=2)


class TestMembership:
    def test_heaviside_exponent(self):
        rep = membership_check(Heaviside(1), 1.5)
        assert rep.member
        assert rep.decay_exponent == -2.0

    def test_heaviside_classical_excluded(self):
        rep = membership_check(Heaviside(1), 1.0)
        assert not rep.member
        assert not rep.integrable_pos

    @pytest.mark.parametrize("f,q,expected", [
        (Constant(1.0), 1.5, True),
        (Constant(1.0), 1.0, False),
        (Gaussian(1.0), 1.0, True),
        (Gaussian(1.0), 1.7, True),
        (PowerLaw(1.0, 2.0, 1.0, 2.0), 1.9, True),
        (QGaussian(2.5, 1.0), 1.2, True),
        (QGaussian(0.5, 1.0), 1.5, True),
    ])
    def test_membership_table(self, f, q, expected):
        assert membership_check(f, q).member is expected

    def test_qgaussian_two_regimes(self):
        # slow density tail: kernel power dominates while s >= 0
        rep = membership_check(QGaussian(q_g=2.5, beta_g=1.0), 1.5)
        assert rep.decay_exponent == -2.0
        # density tail faster than the kernel power: it wins
        rep = membership_check(QGaussian(q_g=1.1, beta_g=1.0), 1.9)
        assert_allclose(rep.decay_exponent, -2.0 / 0.1, rtol=1e-12)

    def test_zero_density_is_member(self):
        assert membership_check(Constant(0.0), 1.5).member

    def test_transform_refuses_nonmember(self):
        with pytest.raises(MembershipError):
            qft_complex(Heaviside(1), 1.0, up(1.0))


class TestHeavisideTransform:
    # antiderivative of (1 + i(1-q)kx)^(1/(1-q)) gives i/((2-q)k)
    @pytest.mark.parametrize("q", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("k", [0.5, 2.0, -3.0])
    def test_real_limit_closed_form(self, q, k):
        v, err = qft_complex(Heaviside(1), q, up(k))
        assert_allclose(v, 1j / ((2.0 - q) * k), rtol=1e-6)
        assert err < 1e-6

    def test_frozen_anchor(self):
        v, _ = qft_complex(Heaviside(1), 1.5, up(2.0))
        assert_allclose(v, 1j, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("k", [1j, 2j, 1 + 1j, -2 + 0.5j])
    def test_upper_tag_complex_k(self, k):
        v, _ = qft_complex(Heaviside(1), 1.5, HalfPlanePoint(k, PlaneTag.UPPER))
        assert_allclose(v, 1j / (0.5 * k), rtol=1e-7)

    def test_lower_tag_vanishes_for_right_support(self):
        v, err = qft_complex(Heaviside(1), 1.5, down(2.0))
        assert v == 0j
        assert err == 0.0

    def test_mirrored_step(self):
        # H(-x) integrated over x < 0 picks up the mirrored closed form
        v, _ = qft_complex(Heaviside(-1), 1.5, down(2.0))
        assert_allclose(v, 1j, rtol=1e-6)

    def test_k_zero_diverges(self):
        with pytest.raises(ValueError, match="diverges"):
            qft_complex(Heaviside(1), 1.5, up(0.0))


class TestConstantTransform:
    def test_upper_piece_scales_with_c(self):
        q, c = 1.5, 3.0
        v, _ = qft_complex(Constant(c), q, up(2.0))
        assert_allclose(v, 1j * c ** (2.0 - q) / ((2.0 - q) * 2.0), rtol=1e-6)

    @pytest.mark.parametrize("q", [1.3, 1.6])
    @pytest.mark.parametrize("k", [0.7, 2.0])
    def test_real_line_jump_cancels(self, q, k):
        # off k = 0 the two boundary pieces cancel exactly: the constant's
        # transform is concentrated at the origin
        v, err = qft_real_line(Constant(1.0), q, k)
        assert abs(v) < 5e-7
        assert err < 1e-5


class TestPowerLawTransform:
    def test_moment_at_k_zero(self):
        v, err = qft_complex(PowerLaw(1.0, 3.0, 1.0, 2.0), 1.4, up(0.0))
        assert_allclose(v, 0.375, rtol=1e-10)

    def test_collision_anchor(self):
        # lam = sqrt(2) tuned so the value matches the one-parameter family
        f = PowerLaw(lam=math.sqrt(2.0), beta=2.0, a=1.0, b=2.0)
        v, _ = qft_complex(f, 1.5, up(1.0))
        assert_allclose(v, 0.2222222222222222 + 0.6285393610547089j, rtol=1e-9)

    @pytest.mark.parametrize("q,k", [(1.2, 0.8), (1.5, 2.5), (1.8, -1.3)])
    def test_against_scipy(self, q, k):
        f = PowerLaw(1.0, 2.0, 1.0, 2.0)
        v, _ = qft_complex(f, q, up(k))
        ref = quad_oracle(f, q, k, 1.0, 2.0)
        assert_allclose(v, ref, rtol=1e-8)

    def test_lower_piece_exactly_zero(self):
        v, err = qft_complex(PowerLaw(1.0, 2.0, 1.0, 2.0), 1.5, down(1.0))
        assert (v, err) == (0j, 0.0)

    def test_high_frequency_stays_accurate(self):
        f = PowerLaw(1.0, 2.0, 1.0, 2.0)
        k = 300.0
        v, err = qft_complex(f, 1.0 + 1e-6, up(k))
        ref = quad_oracle(f, 1.0 + 1e-6, k, 1.0, 2.0)
        assert_allclose(v, ref, rtol=1e-6, atol=1e-10)


class TestGaussianTransform:
    def test_classical_half_line_real_part(self):
        # cosine half equals half the full-line transform
        v, _ = qft_complex(Gaussian(1.0), 1.0, up(1.0))
        assert_allclose(v.real, 0.5 * math.sqrt(2 * math.pi) * math.exp(-0.5),
                        rtol=1e-9)

    def test_classical_full_line(self):
        v, err = qft_real_line(Gaussian(1.0), 1.0, 1.0)
        assert_allclose(v, 1.5203469010662808 + 0j, rtol=1e-9, atol=1e-12)
        assert err < 1e-7

    def test_k_zero_total_mass(self):
        v, _ = qft_real_line(Gaussian(2.0), 1.0, 0.0)
        assert_allclose(v, 2.0 * math.sqrt(2 * math.pi), rtol=1e-10)

    @pytest.mark.parametrize("q,k", [(1.3, 2.0), (1.6, 0.9)])
    def test_deformed_against_scipy(self, q, k):
        f = Gaussian(1.0)
        v, _ = qft_complex(f, q, up(k))
        ref = quad_oracle(f, q, k, 0.0, 12.0)
        assert_allclose(v, ref, rtol=1e-7)

    def test_q_to_one_consistency(self):
        f = Gaussian(1.0)
        for k in np.linspace(-5, 5, 11):
            v, _ = qft_real_line(f, 1.0 + 1e-4, k)
            classical = math.sqrt(2 * math.pi) * math.exp(-k * k / 2.0)
            assert abs(v - classical) <= 1e-3 * (1.0 + abs(classical))

    def test_conjugate_symmetry_full_line(self):
        vp, _ = qft_real_line(Gaussian(1.0), 1.4, 2.3)
        vm, _ = qft_real_line(Gaussian(1.0), 1.4, -2.3)
        assert_allclose(vp, np.conj(vm), rtol=1e-12)


class TestQGaussianTransform:
    def test_matches_gaussian_at_qg_one(self):
        v1, _ = qft_complex(QGaussian(1.0, 0.5), 1.4, up(1.2))
        v2, _ = qft_complex(Gaussian(1.0), 1.4, up(1.2))
        assert_allclose(v1, v2, rtol=1e-8)

    def test_heavy_tail_against_scipy(self):
        f = QGaussian(q_g=2.0, beta_g=1.0)
        v, _ = qft_complex(f, 1.3, up(0.7))
        ref = quad_oracle(f, 1.3, 0.7, 0.0, 4000.0)
        assert_allclose(v, ref, rtol=1e-6)

    def test_compact_support_direct(self):
        f = QGaussian(q_g=0.5, beta_g=1.0)
        v, _ = qft_complex(f, 1.5, up(1.0))
        xc = 1.0 / math.sqrt(0.5)
        ref = quad_oracle(f, 1.5, 1.0, 0.0, xc)
        assert_allclose(v, ref, rtol=1e-8)


class TestSampled:
    def test_matches_powerlaw_on_fine_grid(self):
        xs = np.linspace(1.0, 2.0, 4001)
        f_s = Sampled(xs, (1.0 / xs) ** 2)
        f_p = PowerLaw(1.0, 2.0, 1.0, 2.0)
        v1, _ = qft_complex(f_s, 1.5, up(1.0))
        v2, _ = qft_complex(f_p, 1.5, up(1.0))
        assert_allclose(v1, v2, rtol=1e-6)


@settings(max_examples=25, deadline=None)
@given(q=st.floats(1.05, 1.9), k=st.floats(0.1, 10.0))
def test_upper_piece_reflection_symmetry(q, k):
    """F_+(-k) = conj(F_+(k)) at real k for real nonnegative f."""
    f = Heaviside(1)
    vp, _ = qft_complex(f, q, up(k))
    vm, _ = qft_complex(f, q, up(-k))
    assert abs(vm - np.conj(vp)) <= 1e-8 * (1.0 + abs(vp))


class TestSurface:
    def test_shapes_and_values(self):
        pts = (up(0.5), up(1.0), HalfPlanePoint(2j, PlaneTag.UPPER))
        surf = qft_surface(Heaviside(1), [1.5, 1.8], pts)
        assert surf.values.shape == (2, 3)
        assert not surf.failed.any()
        assert_allclose(surf.values[0, 0], 1j / (0.5 * 0.5), rtol=1e-7)
        assert_allclose(surf.values[1, 2], 1j / (0.2 * 2j), rtol=1e-7)

    def test_membership_failures_flagged_not_fatal(self):
        pts = (up(0.5), up(1.0))
        surf = qft_surface(Heaviside(1), [1.0, 1.5], pts)
        assert surf.failed[0].all()
        assert not surf.failed[1].any()
        assert surf.failed.tolist() == [[w is not None for w in row]
                                        for row in surf.why]
        assert surf.why[0][0].startswith("heaviside is outside the "
                                         "admissible set at q=1")
        assert np.isnan(surf.values[0, 0].real)
        assert np.isfinite(surf.values[1]).all()

    def test_budget_failures_keep_estimate(self):
        cfg = QuadratureConfig(max_subdivisions=4)
        surf = qft_surface(Gaussian(1.0), [1.5], (up(1.0),), cfg)
        assert surf.failed[0, 0]
        assert np.isfinite(surf.values[0, 0])
        assert surf.err[0, 0] > 0
        # the cell holds the estimate a lone call's error carries
        with pytest.raises(ConvergenceError) as info:
            qft_complex(Gaussian(1.0), 1.5, up(1.0), cfg)
        assert (surf.values[0, 0], surf.err[0, 0]) == \
            (info.value.value, info.value.err)
        assert surf.why[0][0] == f"did not converge ({info.value})"

    def test_real_line_cells_are_qft_real_line(self):
        ks = (-1.5, 0.0, 2.0)
        surf = qft_surface(Gaussian(1.0), [1.2, 1.6], ks)
        assert surf.why == [[None] * 3] * 2
        for i, q in enumerate((1.2, 1.6)):
            for j, k in enumerate(ks):
                assert (surf.values[i, j], surf.err[i, j]) == \
                    qft_real_line(Gaussian(1.0), q, k)

    def test_budget_failed_real_line_cell(self):
        # the cell keeps the estimate its lone call's error carries, and
        # the half-plane cell beside it is qft_complex's
        cfg = QuadratureConfig(max_subdivisions=4)
        pt = HalfPlanePoint(2j, PlaneTag.UPPER)
        surf = qft_surface(Gaussian(1.0), [1.5], (1.0, pt), cfg)
        with pytest.raises(ConvergenceError) as info:
            qft_real_line(Gaussian(1.0), 1.5, 1.0, cfg)
        assert surf.why[0] == [f"did not converge ({info.value})", None]
        assert (surf.values[0, 0], surf.err[0, 0]) == \
            (info.value.value, info.value.err)
        assert (surf.values[0, 1], surf.err[0, 1]) == \
            qft_complex(Gaussian(1.0), 1.5, pt, cfg)

    def test_divergent_real_line_cell(self):
        # k = 0 reduces a step's transform to a divergent plain integral
        surf = qft_surface(Heaviside(1), [1.5], (0.0, 1.0))
        with pytest.raises(ValueError) as info:
            qft_real_line(Heaviside(1), 1.5, 0.0)
        assert surf.why[0] == [str(info.value), None]
        assert "diverges for heaviside" in surf.why[0][0]
        assert np.isnan(surf.values[0, 0]) and surf.err[0, 0] == np.inf
        assert surf.failed.tolist() == [[True, False]]

    def test_overflowing_cell_is_recorded(self):
        # a density that is infinite just left of 0 gives the real-line
        # cell a kernel value that is not finite; that cell has no value,
        # and the upper piece beside it, which stays on x > 0, keeps its own
        class LeftBlowup(Gaussian):
            def values(self, x):
                x = np.asarray(x, dtype=float)
                return np.where((x > -0.1) & (x < 0), np.inf,
                                super().values(x))

        f = LeftBlowup(1.0)
        surf = qft_surface(f, [1.5], (up(1.0), 1.0))
        with pytest.raises(NonFiniteError) as info:
            qft_real_line(f, 1.5, 1.0)
        assert surf.why[0] == [None, str(info.value)]
        assert surf.why[0][1].startswith("kernel value is not finite")
        # nan in both parts: no part of the value was computed
        assert np.isnan(surf.values[0, 1].real)
        assert np.isnan(surf.values[0, 1].imag) and surf.err[0, 1] == np.inf
        assert (surf.values[0, 0], surf.err[0, 0]) == \
            qft_complex(f, 1.5, up(1.0))

    def test_deterministic(self):
        pts = (up(0.5), up(2.0))
        s1 = qft_surface(Gaussian(1.0), [1.2, 1.6], pts)
        s2 = qft_surface(Gaussian(1.0), [1.2, 1.6], pts)
        assert np.array_equal(s1.values, s2.values)
        assert np.array_equal(s1.err, s2.err)

    def test_permutation_consistent(self):
        pts = (up(0.5), up(2.0))
        s1 = qft_surface(Gaussian(1.0), [1.2, 1.6], pts)
        s2 = qft_surface(Gaussian(1.0), [1.6, 1.2], pts)
        assert np.array_equal(s1.values[0], s2.values[1])
        assert np.array_equal(s1.values[1], s2.values[0])


class TestSeedRule:
    """One seed panel per 0.8 kernel periods, the phase capped at pi/(q-1),
    the same through the Python loop and through numpy."""

    period = 2.0 * math.pi * 0.8

    @staticmethod
    def counts(A, B, freq, qv, cap, below):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transform_module, "_LOOP_BELOW", below)
            return _osc_panels(A, B, freq, qv, cap).tolist()

    def panels(self, A, B, freq, qv, cap=256):
        """The count of the one row [A, B], the same on both paths."""
        loop, array = (self.counts(A, np.array([B]), np.array([freq]), qv,
                                   cap, below) for below in (10 ** 9, 0))
        assert loop == array
        return loop[0]

    def test_classical_kernel_is_uncapped(self):
        # 10.5 seed periods over [0, 1]; no cap at q = 1
        assert self.panels(0.0, 1.0, 10.5 * self.period, 1.0) == 10
        assert self.panels(0.0, 2.0, 1e4, 1.0) == 256
        # those 10 panels have np.linspace's edges
        n = self.panels(1.0, 2.0, 10.5 * self.period, 1.0)
        edges, _ = quadrature._seed_edges((0,), (1.0,), (2.0,), (n,))
        np.testing.assert_array_equal(edges, np.linspace(1.0, 2.0, 11))

    def test_near_one_the_cap_is_far(self):
        # pi/1e-4 is 31416 rad, far past a phase of 1000
        assert self.panels(1.0, 2.0, 1000.0, 1.0 + 1e-4) == \
            self.panels(1.0, 2.0, 1000.0, 1.0) == int(1000.0 / self.period)

    def test_cap_bounds_the_phase(self):
        # at q = 1.05 the phase is capped at pi/0.05, 12.5 seed periods
        assert self.panels(0.0, 1.0, 1000.0, 1.05) == 12
        # at q = 1.5 the kernel turns by at most 2 pi: one panel
        assert self.panels(0.0, 1.0, 1e6, 1.5) == 1

    def test_budget_and_degenerate_inputs(self):
        assert self.panels(0.0, 1.0, 1e4, 1.0, cap=20) == 20
        assert self.panels(0.0, 1.0, 1.5 * self.period, 1.0) == 1
        assert self.panels(0.0, math.inf, 50.0, 1.0) == 1
        assert self.panels(0.0, 1.0, 0.0, 1.0) == 1
        assert self.panels(0.0, 1.0, math.nan, 1.0) == 1
        # an infinite phase estimate takes the budget, not an overflow
        assert self.panels(0.0, 1.0, math.inf, 1.0) == 256
        # and on a zero-width row it is one panel, not inf * 0
        assert self.panels(1.0, 1.0, math.inf, 1.5) == 1

    def test_loop_and_array_agree_on_many_rows(self):
        B = np.array([1.0, 2.0, 1.0, math.inf, 3.0, 0.0, 1.0, 1.0, 1.0])
        freq = np.array([10.5 * self.period, 1e4, 0.0, 50.0, 1000.0,
                         math.inf, math.nan, math.inf, 2.0 * self.period])
        for qv in (1.0, 1.05, 1.5):
            assert self.counts(0.0, B, freq, qv, 200, 10 ** 9) == \
                self.counts(0.0, B, freq, qv, 200, 0)


class TestFailureModes:
    # one case per tail path, each failing at the smallest budget
    @pytest.mark.parametrize("f, q, k", [
        pytest.param(PowerLaw(1.0, 2.0, 1.0, 2.0), 1.01, 40.0, id="compact"),
        pytest.param(Gaussian(1.0), 1.5, 1.0, id="cut"),
        pytest.param(QGaussian(1.5, 1.0), 1.3, 3.0, id="map"),
    ])
    def test_convergence_error_carries_estimate(self, f, q, k):
        cfg = QuadratureConfig(max_subdivisions=4)
        with pytest.raises(ConvergenceError) as info:
            qft_complex(f, q, up(k), cfg)
        exc = info.value
        assert exc.err > 0 and np.isfinite(exc.value)
        assert exc.row == 0
        assert exc.values.shape == exc.errs.shape == exc.failed.shape == (1,)
        assert exc.failed.dtype == bool and exc.failed[0]
        assert (exc.values[0], exc.errs[0]) == (exc.value, exc.err)

    def test_pole_guard_survives_optimized_python(self):
        # python -O strips assert statements; the guard must still raise
        import os
        import subprocess
        import sys

        import qfourier
        src = os.path.dirname(os.path.dirname(qfourier.__file__))
        code = (
            "import numpy as np\n"
            "from qfourier.errors import PoleError\n"
            "from qfourier.transform import Gaussian, _kernel_integrand\n"
            # k = -2j on x > 0 at q = 1.5 puts the kernel's branch point
            # exactly on the node x = 1
            "g = _kernel_integrand(Gaussian(1.0), 1.5, np.array([-2j]), False)\n"
            "try:\n"
            "    g(np.array([[0.5, 1.0]]), np.array([0]))\n"
            "except PoleError as exc:\n"
            "    print('PoleError:', exc)\n")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("PoleError:")
        assert "q=1.5" in out.stdout and "x=0.5" in out.stdout

    def test_non_finite_kernel_value_raises(self):
        class Blowup(Gaussian):
            # infinite density near the origin: the kernel value is not
            # finite there, and it must not be cleared to 0
            def values(self, x):
                x = np.asarray(x, dtype=float)
                return np.where(np.abs(x) < 0.1, np.inf, super().values(x))

        with pytest.raises(NonFiniteError, match=r"q=1\.2, k=\(1\+0j\)"):
            qft_real_line(Blowup(1.0), 1.2, 1.0)


class TestBudgetFailureEstimate:
    """A budget failure's estimate sums every piece of the integral: the
    finite part and the mapped tail of a half-line, and both sides of the
    real line. Before, the finished pieces were dropped (0.559 and 0.405
    off, with err about 2.4e-10)."""

    f, q = QGaussian(1.5, 1.0), 1.3
    cfg = QuadratureConfig(max_subdivisions=4)

    def test_mapped_tail_failure_keeps_the_finite_part(self):
        pt = up(3.0)
        converged, _ = qft_complex(self.f, self.q, pt)
        with pytest.raises(ConvergenceError) as info:
            qft_complex(self.f, self.q, pt, self.cfg)
        exc = info.value
        assert abs(exc.value - converged) <= exc.err

    @pytest.mark.parametrize("ks", [3.0, np.array([3.0]),
                                    np.array([0.5, 3.0, 6.0])])
    def test_one_failing_side_keeps_the_other(self, ks):
        with pytest.raises(ConvergenceError) as info:
            qft_real_line(self.f, self.q, ks, self.cfg)
        exc = info.value
        kk = np.atleast_1d(ks)
        assert exc.row == 0
        assert exc.values.shape == exc.errs.shape == exc.failed.shape \
            == kk.shape
        assert (exc.value, exc.err) == (exc.values[0], exc.errs[0])
        for k, v, e in zip(kk, exc.values, exc.errs):
            converged, _ = qft_real_line(self.f, self.q, float(k))
            assert abs(v - converged) <= e

    @pytest.mark.parametrize("call", [
        lambda f, q, cfg: qft_complex(f, q, up(3.0), cfg),
        lambda f, q, cfg: qft_real_line(f, q, 3.0, cfg),
        lambda f, q, cfg: qft_real_line(f, q, np.array([0.5, 3.0]), cfg),
    ], ids=["map-pieces", "real-line", "real-line-array"])
    def test_message_carries_the_summed_err(self, call):
        # the note's err is the row's err, every piece and side summed,
        # not that of the first piece that failed
        with pytest.raises(ConvergenceError) as info:
            call(self.f, self.q, self.cfg)
        exc = info.value
        assert exc.reason.startswith("quadrature did not reach tolerance")
        assert "err~" not in exc.reason
        assert str(exc) == f"{exc.reason} (err~{exc.err:.3e})"


# one case per tail path; the lower (reflected) half-line runs in each
# real-line call, and alone for the left step
BATCH_CASES = [
    pytest.param(PowerLaw(1.0, 2.0, 1.0, 2.0), 1.3, QuadratureConfig(),
                 np.linspace(-80.0, 80.0, 41), id="powerlaw-compact"),
    pytest.param(Gaussian(1.0), 1.2, QuadratureConfig(),
                 np.linspace(-6.0, 6.0, 25), id="gaussian-cut"),
    pytest.param(QGaussian(1.5, 1.0), 1.3, QuadratureConfig(),
                 np.linspace(-6.0, 6.0, 25), id="qgaussian-map-k0"),
    pytest.param(Heaviside(-1), 1.4, QuadratureConfig(),
                 np.array([-7.5, -1.0, 0.25, 3.0]), id="left-step-reflected"),
]


class TestBatchedK:
    @pytest.mark.parametrize("f, q, cfg, ks", BATCH_CASES)
    def test_array_k_is_bitwise_the_scalar_loop(self, f, q, cfg, ks):
        values, errs = qft_real_line(f, q, ks, cfg)
        assert values.shape == errs.shape == ks.shape
        for k, v, e in zip(ks, values, errs):
            v1, e1 = qft_real_line(f, q, float(k), cfg)
            assert (v.real, v.imag, e) == (v1.real, v1.imag, e1)

    @pytest.mark.parametrize("f, q, ks, budget", [
        (QGaussian(1.5, 1.0), 1.3, [0.0, 0.5, 3.0, 12.0], 4),
        (Gaussian(1.0), 1.2, [0.0, 0.5, 3.0, 12.0], 4),
        (Heaviside(-1), 1.4, [0.5, 3.0, 12.0, 40.0], 4),
        # the lower half-line fails from the first k on, the upper one
        # only from k = 5: a loop over k meets the lower failure first
        (Sampled([-3.0, -1.0, 0.0, 0.5], [0.0, 2.0, 1.0, 0.0]), 1.2,
         [0.5, 2.0, 5.0, 8.0], 8),
    ])
    def test_budget_failure_is_the_first_failing_k(self, f, q, ks, budget):
        cfg = QuadratureConfig(max_subdivisions=budget)
        first = None
        for i, k in enumerate(ks):
            try:
                qft_real_line(f, q, k, cfg)
            except ConvergenceError as exc:
                first = (i, str(exc), exc.value, exc.err)
                break
        assert first is not None
        with pytest.raises(ConvergenceError) as info:
            qft_real_line(f, q, np.array(ks), cfg)
        exc = info.value
        assert (exc.row, str(exc), exc.value, exc.err) == first

    def test_k_array_must_be_one_dimensional_and_finite(self):
        with pytest.raises(ValueError):
            qft_real_line(Gaussian(1.0), 1.2, np.ones((2, 2)))
        with pytest.raises(ValueError):
            qft_real_line(Gaussian(1.0), 1.2, np.array([1.0, np.nan]))

    @pytest.mark.parametrize("k", [
        np.array([0.5 + 0.1j, 1.0]),
        np.array([0.5 + 0j, 1.0 + 0j]),
        0.5 + 0.1j,
        complex(0.5, 0.0),
    ], ids=["array", "array-zero-imag", "scalar", "scalar-zero-imag"])
    def test_complex_k_is_refused(self, k):
        # the real line has real k only; a complex k must not be cast
        with pytest.raises(ValueError, match="k must be real"):
            qft_real_line(Gaussian(1.0), 1.3, k)

    def test_huge_k_keeps_every_row(self):
        # the kernel underflows to its limit at k = 1e308 instead of
        # overflowing, so the batch returns both rows
        values, errs = qft_real_line(Heaviside(1), 1.5,
                                     np.array([1.0, 1e308]))
        v1, e1 = qft_real_line(Heaviside(1), 1.5, 1.0)
        assert (values[0].real, values[0].imag, errs[0]) == \
            (v1.real, v1.imag, e1)
        assert abs(values[1] - 2j / 1e308) <= QuadratureConfig().abs_tol


EPS = np.finfo(float).eps


def mp_kernel(q, k, x, y):
    """y [1 + i(1-q) k x y^(q-1)]^(1/(1-q)) at 40 digits, and its exponent
    w = log(base)/(1-q), on the principal branch."""
    with mpmath.workdps(40):
        q, x, y = mpmath.mpf(q), mpmath.mpf(x), mpmath.mpf(y)
        w = mpmath.log(1 + 1j * (1 - q) * mpmath.mpc(k) * x
                       * y ** (q - 1)) / (1 - q)
        return complex(y * mpmath.exp(w)), abs(complex(w))


class TestKernel:
    """The vectorized kernel integrand against mpmath, and its bounds."""

    f = Gaussian(2.0)

    # Im k's sign per plane, and the half-line the plane integrates
    @pytest.mark.parametrize("plane, sign, reflect", [
        ("real", 0, False), ("real", 0, True),
        ("upper", 1, False), ("lower", -1, True)])
    @pytest.mark.parametrize("q", [1 + 1e-4, 1.01, 1.2, 1.5, 1.9])
    def test_matches_mpmath(self, q, plane, sign, reflect):
        # exp turns an absolute error in its exponent w into a relative
        # one, and |w| grows like 1/(q-1): the bound is a few ulps of
        # 1 + |w|, with |w| >= the phase |Im w|
        rng = np.random.default_rng(int(q * 1e4) + 7 * sign + reflect)
        n = 60
        k = rng.uniform(-30.0, 30.0, n) + 1j * sign * rng.uniform(0, 5, n)
        k[:4] = k[:4].imag * 1j     # Re k = 0: no phase at all
        u = rng.uniform(0.0, 6.0, n)
        out = transform_module._kernel_integrand(self.f, q, k, reflect)(
            u[:, None], np.arange(n))[:, 0]
        x = -u if reflect else u
        for ki, xi, yi, oi in zip(k, x, self.f.values(x), out):
            want, w = mp_kernel(q, ki, xi, yi)
            assert abs(oi - want) <= 8 * (1 + w) * EPS * abs(want)

    @settings(max_examples=300, deadline=None)
    @given(q=st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True)),
           k_re=st.floats(-1e150, 1e150), k_im=st.floats(0, 1e150),
           u=st.floats(0, 1e150), c=st.floats(1e-100, 1e100),
           reflect=st.booleans())
    def test_modulus_is_at_most_the_density(self, q, k_re, k_im, u, c,
                                            reflect):
        # x Im k >= 0 puts the base's real part at >= 1, so the kernel's
        # modulus is at most 1; for q > 1 the base's parts can overflow,
        # and the modulus then goes to its limit 0 (k x stays finite, so
        # the plane wave at q = 1 has a phase)
        k = np.array([complex(k_re, -k_im if reflect else k_im)])
        g = transform_module._kernel_integrand(Constant(c), q, k, reflect)
        with np.errstate(over="ignore", invalid="ignore"):
            out = g(np.array([[u]]), np.array([0]))
        assert np.isfinite(out).all()
        assert abs(out[0, 0]) <= c * (1 + 4 * EPS)

    @pytest.mark.parametrize("q", [1 + 1e-4, 1.5])
    @pytest.mark.parametrize("reflect", [False, True])
    def test_real_k_form_is_bitwise_the_general_form(self, q, reflect):
        # a batch of real k skips the terms in Im k; the same k in a
        # batch with a complex k takes the general form, with equal bits
        u = np.linspace(0.0, 6.0, 31)
        k = np.array([-3.0, 0.5, 12.0], dtype=complex)
        rows = np.arange(3)
        real = transform_module._kernel_integrand(self.f, q, k, reflect)
        mixed = transform_module._kernel_integrand(
            self.f, q, np.append(k, 1.0 - 1.0j if reflect else 1.0 + 1.0j),
            reflect)
        a = real(np.tile(u, (3, 1)), rows)
        b = mixed(np.tile(u, (3, 1)), rows)
        assert np.array_equal(a.view(float), b.view(float))

    @pytest.mark.parametrize("q", [1.97, 1.99])
    @pytest.mark.parametrize("f", [Heaviside(1), Constant(1.0)])
    def test_map_clears_like_nan_to_num(self, monkeypatch, f, q):
        # at q near 2 the map's exponent is 60, so x overflows on the
        # panels next to v = 0; those entries clear to the bits that
        # np.nan_to_num(posinf=0, neginf=0) gives
        want = qft_real_line(f, q, 3.0)
        cleared = []

        def nan_to_num(out):
            cleared.append(int((~np.isfinite(out)).sum()))
            return np.nan_to_num(out, copy=False, posinf=0.0, neginf=0.0)

        monkeypatch.setattr(transform_module, "_zero_nonfinite", nan_to_num)
        got = qft_real_line(f, q, 3.0)
        assert sum(cleared) > 0
        assert (got[0].real, got[0].imag, got[1]) == \
            (want[0].real, want[0].imag, want[1])


def mp_half_line(density, q, k, pts):
    """Integral of density(x) times the deformed kernel over the pieces pts,
    in mpmath arithmetic."""
    q, k = mpmath.mpf(q), mpmath.mpc(k)

    def g(x):
        y = density(x)
        return y * (1 + 1j * (1 - q) * k * x * y ** (q - 1)) ** (1 / (1 - q))

    with mpmath.workdps(25):
        return complex(mpmath.quad(g, pts))


def _qgauss_mp(x):
    return (1 + x * x / 2) ** -2     # QGaussian(1.5, 1)


# one case per tail path, each with its density in mpmath and the pieces
# of its half-line; mpmath.quad runs out of memory taking exp(-x^2/2) to
# infinity, so the Gaussian stops at x = 40, where it is below 1e-347
HONEST_CASES = [
    pytest.param(PowerLaw(1.0, 2.0, 1.0, 2.0), lambda x: x ** -2, [1, 2],
                 id="compact"),
    pytest.param(Gaussian(1.0), lambda x: mpmath.exp(-x * x / 2), [0, 40],
                 id="cut"),
    pytest.param(QGaussian(1.5, 1.0), _qgauss_mp, [0, 1, mpmath.inf],
                 id="map-qgaussian"),
    pytest.param(Heaviside(1), lambda x: mpmath.mpf(1), [0, 1, mpmath.inf],
                 id="map-step"),
]


class TestErrBoundsTrueError:
    """At the default config the returned err covers the distance to an
    mpmath reference, on every tail path."""

    @pytest.mark.parametrize("f, density, pts", HONEST_CASES)
    @pytest.mark.parametrize("q", [1.2, 1.5])
    @pytest.mark.parametrize("point", [
        up(0.5), up(3.0), HalfPlanePoint(1 + 0.5j, PlaneTag.UPPER)],
        ids=["k0.5", "k3", "upper"])
    def test_err_covers_mpmath_distance(self, f, density, pts, q, point):
        v, err = qft_complex(f, q, point)
        assert abs(v - mp_half_line(density, q, point.k, pts)) <= err

    def test_reflected_side(self):
        v, err = qft_complex(QGaussian(1.5, 1.0), 1.3, down(2.0))
        want = -mp_half_line(_qgauss_mp, 1.3, 2.0, [-mpmath.inf, -1, 0])
        assert abs(v - want) <= err

    # dense seeds: a q -> 1 window many kernel periods long, and a Gaussian
    # whose phase the cap pi/(q-1) holds below its peak-frequency estimate;
    # mpmath gets one piece per kernel period or finer
    @pytest.mark.parametrize("f, density, q, k, pts", [
        pytest.param(PowerLaw(1.0, 2.0, 1.0, 2.0), lambda x: x ** -2,
                     1.0001, 100.0, np.linspace(1, 2, 33), id="window-k100"),
        pytest.param(PowerLaw(1.0, 2.0, 1.0, 2.0), lambda x: x ** -2,
                     1.0001, 300.0, np.linspace(1, 2, 97), id="window-k300"),
        pytest.param(Gaussian(1.0), lambda x: mpmath.exp(-x * x / 2), 1.2,
                     40.0, [*np.linspace(0, 10, 81), 40], id="gaussian-k40"),
    ])
    def test_dense_seeds(self, f, density, q, k, pts):
        v, err = qft_complex(f, q, up(k))
        assert abs(v - mp_half_line(density, q, k, pts)) <= err
