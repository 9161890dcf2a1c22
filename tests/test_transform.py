import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from qfourier.closedform import heaviside_qft
from qfourier.errors import (BoundaryRegimeError, ConvergenceError,
                             MembershipError, NonFiniteError, PoleError)
from qfourier.qcore import q_exp_complex
from qfourier.transform import (
    Constant,
    FunctionSpec,
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


# the smallest sigma whose sigma^2 is a normal float, about 1.49e-154
NARROWEST_SIGMA = math.sqrt(sys.float_info.min)


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

    @pytest.mark.parametrize("sigma", [9.5e153, 1.2e154, 1.34e154, 1e155])
    def test_gaussian_rejects_overflowing_width(self, sigma):
        # 2 sigma^2 is inf, so values() would give 1 everywhere (or sigma**2
        # would raise OverflowError)
        with pytest.raises(ValueError, match="overflows"):
            Gaussian(sigma)

    @pytest.mark.parametrize("sigma", [1.2e-162, 1.5e-162, 1e-170, 5e-324,
                                       1.6e-162, 1e-158,
                                       math.nextafter(NARROWEST_SIGMA, 0.0)])
    def test_gaussian_rejects_underflowing_width(self, sigma):
        # 2 sigma^2 is 0, so values() would divide 0 by 0 at x = 0 and the
        # transform would come back as 0 with err 0; or sigma^2 is
        # subnormal, and values() gave 1.0 and 0.368 at x = 0.7 sigma and
        # 2 sigma for sigma = 1.6e-162, where the Gaussian is 0.783 and 0.135
        with pytest.raises(ValueError, match="underflows"):
            Gaussian(sigma)

    def test_gaussian_at_the_narrowest_sigma(self):
        # sigma^2 is the smallest normal float here: values() keeps its
        # digits at x = sigma and 2 sigma
        f = Gaussian(NARROWEST_SIGMA)
        assert NARROWEST_SIGMA ** 2 >= sys.float_info.min
        np.testing.assert_allclose(
            f.values(NARROWEST_SIGMA * np.array([0.0, 1.0, 2.0])),
            [1.0, math.exp(-0.5), math.exp(-2.0)], rtol=4e-16, atol=0.0)

    def test_gaussian_at_the_widest_sigma(self):
        f = Gaussian(9.4e153)
        assert f.values(np.array([0.0, 9.4e153])).tolist() == \
            [1.0, math.exp(-0.5)]

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

    @pytest.mark.parametrize("q_g", [1.5, 2.0, 2.99])
    def test_qgaussian_heavy_tail_past_squared_overflow(self, q_g):
        # (1 - q_g) beta_g x^2 overflows past |x| ~ 1e154; the tail there
        # is (c x^2)^(1/(1-q_g)), c = (q_g - 1) beta_g, not 0
        f = QGaussian(q_g, 0.7)
        x = np.array([0.0, 3.0, -9e153, 1e154, -1e200, 1e300, 1.7e308])
        with np.errstate(over="ignore"):
            got = f.values(x)
        with mpmath.workdps(30):
            for xi, yi in zip(x, got):
                want = (1 + (q_g - 1) * mpmath.mpf(0.7) * mpmath.mpf(xi) ** 2
                        ) ** (1 / (1 - mpmath.mpf(q_g)))
                # a value below the least float is 0
                assert abs(yi - want) <= 1e-12 * want + math.ulp(0.0)
        # the nodes whose base stays finite keep their bits
        near = x[:3]
        base = 1.0 - (1.0 - q_g) * 0.7 * near * near
        assert np.array_equal(f.values(near), base ** (1.0 / (1.0 - q_g)))

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


class SlowTail(FunctionSpec):
    """(1 + x^2)^(-g/2): an algebraic tail |x|^-g that takes the map, with
    values finite and nonzero up to the largest float x. A QGaussian's
    values are 0 past |x| = 1.3e154, where its x * x overflows."""

    kind = "slowtail"

    def __init__(self, g):
        self.g = g

    def values(self, x):
        return np.hypot(1.0, np.asarray(x, dtype=float)) ** -self.g

    def support(self):
        return (-math.inf, math.inf)

    def peak_value(self):
        return 1.0

    def tail_exponent(self):
        return self.g


def steps_qft(f, q, point):
    """Exact piece of Heaviside(1), or of Constant(1) = H(x) + H(-x)."""
    v = heaviside_qft(1, q, point)
    return v + heaviside_qft(-1, q, point) if isinstance(f, Constant) else v


class TestHalfPlanePoint:
    def test_tags_enforce_imag_sign(self):
        HalfPlanePoint(1j, PlaneTag.UPPER)
        HalfPlanePoint(-2j, PlaneTag.LOWER)
        HalfPlanePoint(3.0, PlaneTag.REAL_LIMIT_UPPER)
        with pytest.raises(ValueError, match=r"upper tag needs Im k > 0, "
                           r"got \(1\+0j\)"):
            HalfPlanePoint(1.0, PlaneTag.UPPER)
        with pytest.raises(ValueError, match=r"lower tag needs Im k < 0, "
                           r"got 1j"):
            HalfPlanePoint(1j, PlaneTag.LOWER)
        with pytest.raises(ValueError, match=r"real_limit tags need Im k = 0, "
                           r"got \(1\+1j\)"):
            HalfPlanePoint(1 + 1j, PlaneTag.REAL_LIMIT_LOWER)
        with pytest.raises(ValueError, match=r"k must be finite, got "
                           r"\(nan\+1j\)"):
            HalfPlanePoint(complex(math.nan, 1.0), PlaneTag.UPPER)
        with pytest.raises(ValueError, match="unknown plane tag 'up'"):
            HalfPlanePoint(1j, "up")

    @pytest.mark.parametrize("k", [2 ** 1024, -10 ** 400],
                             ids=["2^1024", "-10^400"])
    def test_k_beyond_float_range_is_refused(self, k):
        # an int that float() cannot take is a k that is not finite, not a
        # bare OverflowError, and a surface records its cell
        msg = "k must be finite, got a number beyond float range"
        with pytest.raises(ValueError, match=msg):
            HalfPlanePoint(k, PlaneTag.REAL_LIMIT_UPPER)
        for ks in (k, [1.0, k], np.array([k])):
            with pytest.raises(ValueError, match=msg):
                qft_real_line(Gaussian(1.0), 1.5, ks)
        surf = qft_surface(Gaussian(1.0), [1.5], [1.0, k, -k])
        assert surf.why[0] == [None, msg, msg]
        assert surf.values[0, 0] == qft_real_line(Gaussian(1.0), 1.5, 1.0)[0]

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

    @pytest.mark.parametrize("f", [Heaviside(1), Constant(2.0)])
    def test_remainder_past_float_range_raises(self, f):
        # i/((2-q)k) is past the largest float at the least subnormal k;
        # the closed-form remainder is refused, not returned as inf or nan
        with pytest.raises(BoundaryRegimeError,
                           match=r"remainder leaves float range at q=1\.3, "
                                 r"k=\(5e-324\+0j\)"):
            qft_complex(f, 1.3, up(5e-324))
        surf = qft_surface(f, [1.3], [HalfPlanePoint(5e-324, PlaneTag.
                                                     REAL_LIMIT_UPPER)])
        assert "leaves float range" in surf.why[0][0]

    # the step's piece is in closed form from x = 0. On the
    # algebraic-tail map it lost up to 1.7e-5 of the value from q = 1.96,
    # and past q = 1.97 the mass beyond the largest float x (0.70 of the
    # value at q = 1.999), or raised BoundaryRegimeError. Every cell is
    # within its err of i/((2-q)k) on the step's own side and of 0 on the
    # other, up to q = 1.9999 and |k| = 1e8
    @pytest.mark.parametrize("q", [1.0001, 1.1, 1.3, 1.9, 1.955, 1.96,
                                   1.965, 1.97, 1.975, 1.98, 1.99, 1.999,
                                   1.9999])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_steep_tail_sweep_within_err(self, q, sign):
        off_axis = {PlaneTag.UPPER: 0.5j, PlaneTag.LOWER: -0.5j,
                    PlaneTag.REAL_LIMIT_UPPER: 0.0,
                    PlaneTag.REAL_LIMIT_LOWER: 0.0}
        for tag, im in off_axis.items():
            for k in [s * 10.0 ** n for s in (1, -1) for n in range(-2, 9)]:
                point = HalfPlanePoint(k + im, tag)
                v, err = qft_complex(Heaviside(sign), q, point)
                assert abs(v - heaviside_qft(sign, q, point)) <= err


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

    @pytest.mark.parametrize("q", [1.01, 1.5, 1.97, 1.99, 1.999])
    @pytest.mark.parametrize("c", [1.0, 3.7])
    def test_real_line_near_q_two(self, q, c):
        # each side is i c^(2-q)/((2-q)k) (the lower one as minus the
        # integral over x < 0), so the jump is 0 within err at every k;
        # on the algebraic-tail map q = 1.99 raised BoundaryRegimeError
        # and q = 1.97 was off by about 1.7e-5 of a side
        ks = np.array([-1e4, -3.0, -0.01, 0.01, 0.7, 2.0, 1e6])
        v, err = qft_real_line(Constant(c), q, ks)
        assert np.all(np.abs(v) <= err)
        for k in ks:
            side = 1j * c ** (2.0 - q) / ((2.0 - q) * k)
            for pt in (up(k), down(k)):
                v, err = qft_complex(Constant(c), q, pt)
                assert abs(v - side) <= err


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

    @staticmethod
    def lone(f, q, pt, cfg=None):
        """(value, err, why) of a cell as its own direct call gives it."""
        try:
            if isinstance(pt, HalfPlanePoint):
                return (*qft_complex(f, q, pt, cfg), None)
            return (*qft_real_line(f, q, pt, cfg), None)
        except ConvergenceError as exc:
            return exc.value, exc.err, f"did not converge ({exc})"
        except (ValueError, NonFiniteError) as exc:
            return complex(math.nan, math.nan), math.inf, str(exc)

    @staticmethod
    def spy(monkeypatch):
        """Record the k rows of every _qft_rows call, one list a call."""
        calls = []

        def record(f, qp, k, reflect, cfg, _call=transform_module._qft_rows):
            calls.append(k.tolist())
            return _call(f, qp, k, reflect, cfg)
        monkeypatch.setattr(transform_module, "_qft_rows", record)
        return calls

    # one q row of many half-plane cells: every tag, duplicates, mirror
    # pairs in either order and a k on the imaginary axis, its own mirror
    MIXED = (HalfPlanePoint(1 + 0.5j, PlaneTag.UPPER), up(2.0), down(2.0),
             HalfPlanePoint(-1 + 0.5j, PlaneTag.UPPER), up(-2.0),
             HalfPlanePoint(1 - 0.5j, PlaneTag.LOWER), up(2.0),
             HalfPlanePoint(0.5j, PlaneTag.UPPER), down(-2.0),
             HalfPlanePoint(-1 - 0.5j, PlaneTag.LOWER), down(0.5), up(0.5),
             down(2.0), HalfPlanePoint(-1 + 0.5j, PlaneTag.UPPER))
    # k = 0 diverges on a step's infinite side, and 5e-324 takes its
    # closed form past float range: a step's row raises beside good cells
    RAISING = MIXED + (up(0.0), down(0.0), up(5e-324), down(5e-324))

    # a symmetric grid with k = 0 on the real line and on every plane tag,
    # and the mixed rows above; the last density is 0 on x < 0, so its
    # negative side is a sum of zeros, negated to -0.0 in both parts
    @pytest.mark.parametrize("f", [
        Gaussian(1.0), QGaussian(1.5, 1.0), PowerLaw(1.0, 2.0, 1.0, 2.0),
        Heaviside(1), Heaviside(-1),
        Sampled([-1.0, -0.5, 0.5, 1.0], [0.2, 1.0, 0.5, 0.1]),
        Sampled([-1.0, 0.0, 0.5, 1.0], [0.0, 0.0, 0.5, 0.1])],
        ids=lambda f: f.kind)
    @pytest.mark.parametrize("plane, k_im", [
        (None, 0.0), (PlaneTag.UPPER, 0.7), (PlaneTag.LOWER, -0.7),
        (PlaneTag.REAL_LIMIT_UPPER, 0.0), (PlaneTag.REAL_LIMIT_LOWER, 0.0),
        (MIXED, None), (RAISING, None)],
        ids=["real-line", "upper", "lower", "real-upper", "real-lower",
             "mixed", "raising"])
    def test_mirror_cells_are_their_direct_calls(self, f, plane, k_im):
        qs = (1.0, 1.0001, 1.3, 1.9)
        ks = np.linspace(-2.5, 2.5, 5).tolist()
        if plane is None:
            grid = ks
        elif isinstance(plane, tuple):
            grid = plane
        else:
            grid = [HalfPlanePoint(complex(k, k_im), plane) for k in ks]
        surf = qft_surface(f, qs, grid)
        for i, q in enumerate(qs):
            for j, pt in enumerate(grid):
                v, e, why = self.lone(f, q, pt)
                # the bytes tell -0.0 from 0.0
                assert np.complex128(surf.values[i, j]).tobytes() == \
                    np.complex128(v).tobytes(), (q, pt)
                assert (surf.err[i, j], surf.why[i][j]) == (e, why)

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("plane", [None, PlaneTag.UPPER])
    def test_mirror_pair_is_computed_once(self, monkeypatch, n, plane):
        # built by hand: np.linspace(-3, 3, 6) is not exactly symmetric
        pos = [0.5 * (j + 1) for j in range(n // 2)]
        ks = [-k for k in reversed(pos)] + [0.0] * (n % 2) + pos
        grid = ks if plane is None else \
            [HalfPlanePoint(complex(k, 0.5), plane) for k in ks]
        calls = self.spy(monkeypatch)
        surf = qft_surface(Gaussian(1.0), [1.5], grid)
        # the half-plane cells are rows of one engine call; an even
        # density's real-line cell is one x > 0 row of its own call
        rows = [k for call in calls for k in call]
        assert rows == [pt.k if plane else pt
                        for pt in grid[:math.ceil(n / 2)]]
        assert len(calls) == (1 if plane else len(rows))
        assert not surf.failed.any()

    def test_complex_real_line_k_is_not_a_mirror(self):
        # complex(1, 0) equals 1.0 and hashes alike, the mirror of -1.0,
        # yet it is refused as its scalar call refuses it
        surf = qft_surface(Gaussian(1.0), [1.5], [-1.0, complex(1, 0)])
        with pytest.raises(ValueError) as info:
            qft_real_line(Gaussian(1.0), 1.5, complex(1, 0))
        assert surf.why[0] == [None, str(info.value)]
        assert "k must be real" in surf.why[0][1]
        assert np.isnan(surf.values[0, 1]) and surf.err[0, 1] == np.inf

    @pytest.mark.parametrize("grid", [(1.0, -1.0), (up(1.0), up(-1.0))],
                             ids=["real-line", "real-upper"])
    def test_failed_cell_is_not_mirrored(self, monkeypatch, grid):
        cfg = QuadratureConfig(max_subdivisions=4)
        expected = [self.lone(Gaussian(1.0), 1.5, pt, cfg) for pt in grid]
        calls = self.spy(monkeypatch)
        surf = qft_surface(Gaussian(1.0), [1.5], grid, cfg)
        # the failed k = 1 row, then its mirror's own row
        assert calls == [[1.0], [-1.0]]
        for j, (v, e, why) in enumerate(expected):
            assert why.startswith("did not converge (")
            assert (surf.values[0, j], surf.err[0, j], surf.why[0][j]) == \
                (v, e, why)


class TestSeedRule:
    """One seed panel per 0.8 kernel periods, the phase capped at pi/(q-1),
    never fewer than min(8, cap) on a row of finite positive width."""

    period = 2.0 * math.pi * 0.8

    @staticmethod
    def panels(A, B, freq, qv, cap=256):
        """The count of the one row [A, B]."""
        return _osc_panels(A, np.array([B]), np.array([freq]), qv,
                           cap).tolist()[0]

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
        # at q = 1.5 the kernel turns by at most 2 pi: the floor of 8
        assert self.panels(0.0, 1.0, 1e6, 1.5) == 8

    def test_floor_of_eight(self):
        # a low phase, a zero and a NaN frequency all take the floor
        assert self.panels(0.0, 1.0, 1.5 * self.period, 1.0) == 8
        assert self.panels(0.0, 1.0, 7.9 * self.period, 1.0) == 8
        assert self.panels(0.0, 1.0, 9.5 * self.period, 1.0) == 9
        assert self.panels(0.0, 1.0, 0.0, 1.0) == 8
        assert self.panels(0.0, 1.0, math.nan, 1.0) == 8
        # a zero-width row and an infinite end keep one panel
        assert self.panels(1.0, 1.0, 0.0, 1.0) == 1
        assert self.panels(0.0, math.inf, 50.0, 1.0) == 1
        assert self.panels(0.0, math.inf, 0.0, 1.5) == 1

    @pytest.mark.parametrize("cap", [1, 2, 5, 8])
    def test_cap_bounds_the_floor(self, cap):
        assert self.panels(0.0, 1.0, 0.0, 1.0, cap=cap) == cap
        assert self.panels(0.0, 1.0, math.nan, 1.5, cap=cap) == cap
        assert self.panels(0.0, 1.0, 1e4, 1.0, cap=cap) == cap
        assert self.panels(1.0, 1.0, 0.0, 1.0, cap=cap) == 1

    def test_budget_and_degenerate_inputs(self):
        assert self.panels(0.0, 1.0, 1e4, 1.0, cap=20) == 20
        # an infinite phase estimate takes the budget, not an overflow
        assert self.panels(0.0, 1.0, math.inf, 1.0) == 256
        # and on a zero-width row it is one panel, not inf * 0
        assert self.panels(1.0, 1.0, math.inf, 1.5) == 1

    # one low-frequency cell per tail path, one quadrature call each; the
    # map path's second row is the mapped tail on (0, 1], and a constant
    # tail, in closed form from x = 0, makes no call
    @pytest.mark.parametrize("f, point, pieces", [
        (PowerLaw(1.0, 2.0, 1.0, 2.0), up(0.5), 1),
        (Gaussian(1.0), up(0.5), 1),
        (Gaussian(1.0), down(0.5), 1),
        (QGaussian(1.5, 1.0), up(0.5), 2),
        (QGaussian(2.95, 1.0), HalfPlanePoint(2 + 1j, PlaneTag.UPPER), 2),
        (Heaviside(1), HalfPlanePoint(2 + 1j, PlaneTag.UPPER), 0),
    ], ids=["compact", "cut", "cut-reflected", "map-qgaussian", "map-heavy",
            "closed-step"])
    @pytest.mark.parametrize("budget, floor", [(2000, 8), (8, 2)])
    def test_every_tail_path_starts_from_the_floor(
            self, monkeypatch, f, point, pieces, budget, floor):
        seeds = []

        def recording(func, a, b, *, panels, **tol):
            seeds.append(panels.tolist())
            return quadrature.adaptive_quad(func, a, b, panels=panels, **tol)

        monkeypatch.setattr(transform_module, "adaptive_quad", recording)
        qft_complex(f, 1.5, point, QuadratureConfig(max_subdivisions=budget))
        assert seeds == ([[floor] * pieces] if pieces else [])


class TestFailureModes:
    # one case per tail path that integrates, each failing at the smallest
    # budget, and a cut piece with grading rows at its start (a constant
    # tail is closed and cannot fail)
    @pytest.mark.parametrize("f, q, k", [
        pytest.param(PowerLaw(1.0, 2.0, 1.0, 2.0), 1.01, 40.0, id="compact"),
        pytest.param(Gaussian(1.0), 1.5, 1.0, id="cut"),
        pytest.param(QGaussian(1.5, 1.0), 1.3, 3.0, id="map"),
        pytest.param(Gaussian(1.0), 1.1, 1e6, id="graded"),
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

    @pytest.mark.parametrize("f, q, ks, cfg", [
        (QGaussian(1.5, 1.0), 1.3, [0.0, 0.5, 3.0, 12.0],
         QuadratureConfig(max_subdivisions=4)),
        (Gaussian(1.0), 1.2, [0.0, 0.5, 3.0, 12.0],
         QuadratureConfig(max_subdivisions=4)),
        # only the last k fails: the slow tail's map meets the tolerance
        # within 4 subdivisions at the higher k
        (SlowTail(1.0), 1.4, [40.0, 12.0, 3.0, 0.5],
         QuadratureConfig(max_subdivisions=4)),
        # the lower half-line fails from the first k on, the upper one
        # only from k = 5: a loop over k meets the lower failure first
        (Sampled([-3.0, -1.0, 0.0, 0.5], [0.0, 2.0, 1.0, 0.0]), 1.2,
         [0.5, 2.0, 5.0, 8.0], QuadratureConfig(max_subdivisions=8)),
    ])
    def test_budget_failure_is_the_first_failing_k(self, f, q, ks, cfg):
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

    @pytest.mark.parametrize("k, first", [
        ("1", "'1'"), (True, "True"), (np.float64("nan"), "nan"),
        (np.array(["1"]), "'1'"), (np.array([True]), "True"),
        (np.array([1.0, np.inf]), "inf"), ([1.0, False], None),
        (np.array([1.0, "2"], dtype=object), "'2'"),
    ], ids=["str", "bool", "nan", "str-array", "bool-array", "inf-array",
            "mixed-list", "object-array"])
    def test_k_that_is_not_a_real_number_is_refused(self, k, first):
        # a bool or string k, alone or in an array, is refused in the
        # words of a scalar k, where numpy's float conversion would take
        # it as k = 1; a list that numpy makes a float array is floats
        f = Gaussian(1.0)
        if first is None:
            values, _ = qft_real_line(f, 1.5, k)
            assert values[1] == qft_real_line(f, 1.5, 0.0)[0]
            return
        with pytest.raises(ValueError) as info:
            qft_real_line(f, 1.5, k)
        assert str(info.value) == f"k must be finite, got {first}"
        if np.ndim(k) == 0:
            surf = qft_surface(f, [1.5], [1.0, k])
            assert surf.why[0] == [None, str(info.value)]
            assert np.isnan(surf.values[0, 1]) and surf.err[0, 1] == np.inf

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
        # the real line has real k only; a complex k must not be cast,
        # and the message names the first k, as a Python complex
        with pytest.raises(ValueError) as exc:
            qft_real_line(Gaussian(1.0), 1.3, k)
        assert str(exc.value) == ("k must be real for the real-line "
                                  f"transform, got {complex(np.ravel(k)[0])!r}")

    def test_huge_k_keeps_every_row(self):
        # the kernel underflows to its limit at k = 1e308 instead of
        # overflowing, so the batch returns both rows
        values, errs = qft_real_line(Heaviside(1), 1.5,
                                     np.array([1.0, 1e308]))
        v1, e1 = qft_real_line(Heaviside(1), 1.5, 1.0)
        assert (values[0].real, values[0].imag, errs[0]) == \
            (v1.real, v1.imag, e1)
        assert abs(values[1] - 2j / 1e308) <= QuadratureConfig().abs_tol


def lone_cell(f, q, pt, cfg):
    """A surface cell from its own scalar call: value bits, err and why."""
    try:
        if isinstance(pt, HalfPlanePoint):
            v, e = qft_complex(f, q, pt, cfg)
        else:
            v, e = qft_real_line(f, q, pt, cfg)
        why = None
    except ConvergenceError as exc:
        v, e, why = exc.value, exc.err, f"did not converge ({exc})"
    except (ValueError, NonFiniteError) as exc:
        v, e, why = complex(math.nan, math.nan), math.inf, str(exc)
    return np.complex128(v).tobytes(), np.float64(e).tobytes(), why


def blowup(side):
    class Blowup(Gaussian):
        # an infinite density just off 0 on one side of x
        def values(self, x):
            x = np.asarray(x, dtype=float)
            near = (side * x > 0) & (side * x < 0.1)
            return np.where(near, np.inf, super().values(x))
    return Blowup(1.0)


# one case per tail path and the empty half-line, on the real line and
# both half-planes, at a budget where some cells fail
TABLE_CASES = [
    pytest.param(PowerLaw(1.0, 2.0, 1.0, 2.0), 1.01, id="compact-and-empty"),
    pytest.param(Gaussian(1.0), 1.5, id="cut"),
    pytest.param(QGaussian(1.5, 1.0), 1.3, id="map"),
    pytest.param(Heaviside(-1), 1.4, id="closed-and-empty"),
]


class TestOneCallPerCell:
    """Both half-lines of a real-line cell, and the finite part and mapped
    tail of an algebraic tail, are rows of one quadrature call, and a
    constant tail's pieces take no row; every result keeps the bits of
    the one-side calls."""

    ks = np.array([-40.0, -3.0, 0.5, 2.0, 12.0, 40.0])

    @pytest.mark.parametrize("f, q", TABLE_CASES)
    @pytest.mark.parametrize("budget", [4, 2000])
    def test_array_k_fields_are_the_scalar_loop(self, f, q, budget):
        cfg = QuadratureConfig(max_subdivisions=budget)
        lone = [lone_cell(f, q, float(k), cfg) for k in self.ks]
        failed = [w is not None for _, _, w in lone]
        try:
            values, errs = qft_real_line(f, q, self.ks, cfg)
            exc = None
        except ConvergenceError as info:
            exc = info
            values, errs = exc.values, exc.errs
        assert [(np.complex128(v).tobytes(), np.float64(e).tobytes())
                for v, e in zip(values, errs)] == \
            [(v, e) for v, e, _ in lone]
        assert (exc is not None) == any(failed)
        if exc is not None:
            row = failed.index(True)
            assert exc.failed.tolist() == failed
            assert exc.row == row
            assert f"did not converge ({exc})" == lone[row][2]
            assert (np.complex128(exc.value).tobytes(),
                    np.float64(exc.err).tobytes()) == lone[row][:2]

    @pytest.mark.parametrize("f, q", [*TABLE_CASES, *(
        pytest.param(blowup(side), 1.5, id=f"blowup-{name}")
        for side, name in ((1, "upper"), (-1, "lower")))])
    @pytest.mark.parametrize("budget", [4, 2000])
    def test_surface_is_the_cell_loop(self, f, q, budget):
        # real k, both half-planes, k = 0, a non-finite and a complex k
        # and a q outside the admissible set for the step; the half-plane
        # cells of a row, duplicates and mirrors among them, share one
        # engine call, and a one-sided blowup raises in it beside good cells
        cfg = QuadratureConfig(max_subdivisions=budget)
        pts = (*self.ks.tolist(), 0.0, math.inf, 0.5 + 0.1j,
               HalfPlanePoint(2 + 1j, PlaneTag.UPPER),
               HalfPlanePoint(2 - 1j, PlaneTag.LOWER), up(3.0), down(3.0),
               *TestSurface.RAISING)
        q_list = (1.0, q)
        surf = qft_surface(f, q_list, pts, cfg)
        for i, qi in enumerate(q_list):
            for j, pt in enumerate(pts):
                v, e, why = lone_cell(f, qi, pt, cfg)
                assert (surf.values[i, j].tobytes(), surf.err[i, j].tobytes(),
                        surf.why[i][j]) == (v, e, why)
        assert not all(w is None for row in surf.why for w in row)

    @pytest.mark.parametrize("side", [1, -1], ids=["upper", "lower"])
    def test_one_sided_non_finite_value_raises_its_type(self, side):
        f = blowup(side)
        with pytest.raises(NonFiniteError, match="kernel value is not finite"):
            qft_real_line(f, 1.5, np.array([0.5, 2.0]))
        with pytest.raises(NonFiniteError):
            qft_real_line(f, 1.5, 2.0)

    @pytest.mark.parametrize("q", [1.0, 1.3])
    def test_nan_density_raises_not_finite(self, q):
        # nan > 0 is false, so the support mask took a nan of f for a node
        # off the support and cleared it: this cell read 2.0241 - 0.1320i
        # with err 9.6e-9 at q = 1 and 2.1188 - 0.1029i at q = 1.3
        class Holed(Gaussian):
            def values(self, x):
                x = np.asarray(x, dtype=float)
                return np.where((x > 1.0) & (x < 1.5), np.nan,
                                super().values(x))

        f = Holed(1.0)
        with pytest.raises(NonFiniteError, match="kernel value is not "
                           "finite") as info:
            qft_real_line(f, q, 0.5)
        x = float(str(info.value).rsplit("x=", 1)[1])
        assert 1.0 < x < 1.5
        surf = qft_surface(f, [q], [0.5, 2.0])
        assert all(w.startswith("kernel value is not finite")
                   for w in surf.why[0])
        assert np.isnan(surf.values).all() and np.isinf(surf.err).all()

    @pytest.mark.parametrize("q", [1.0, 1.3])
    def test_negative_density_raises_naming_x(self, q):
        # y <= 0 was taken for off the support, so this density counted as
        # 0 where it is negative: the real-line cell read 1.6744 - 0.2665i
        # at q = 1 and 1.7704 - 0.2239i (err 5.9e-9) at q = 1.3
        class Dented(Gaussian):
            def values(self, x):
                x = np.asarray(x, dtype=float)
                v = super().values(x)
                return np.where((x > 0.5) & (x < 1.5), -v, v)

        f = Dented(1.0)
        for call in (lambda: qft_real_line(f, q, 0.5),
                     lambda: qft_complex(f, q, HalfPlanePoint(
                         0.5 + 0.5j, PlaneTag.UPPER))):
            with pytest.raises(MembershipError,
                               match=f"density is negative at q={q!r}") \
                    as info:
                call()
            x = float(str(info.value).rsplit("x=", 1)[1])
            assert 0.5 < x < 1.5

    @pytest.mark.parametrize("q", [1.0, 1.3])
    def test_density_zero_off_its_support_is_integrated(self, q):
        # f = 0 stays off the support; only f < 0 is refused
        f = PowerLaw(1.0, 0.5, 1.0, 2.0)
        v, err = qft_real_line(f, q, 0.5)

        def kernel(x):
            y = float(f.values(x))
            if q == 1.0:
                return y * complex(math.cos(0.5 * x), math.sin(0.5 * x))
            return y * (1.0 + 0.5j * (1.0 - q) * x * y ** (q - 1.0)) \
                ** (1.0 / (1.0 - q))

        def part(fn):
            return quad(lambda x: fn(kernel(x)), 1.0, 2.0, epsabs=1e-13,
                        epsrel=1e-13)[0]

        want = complex(part(np.real), part(np.imag))
        assert abs(v - want) <= 1e-10 and err <= 1e-10

    @pytest.mark.parametrize("reflect", [[False, True], [True, False]])
    def test_one_sided_pole_raises_its_type(self, reflect):
        # Im k against its half-line's side puts the kernel's branch point
        # on the path of that row only
        k = np.array([2.0 + 2.0j if reflect[0] else 2.0 - 2.0j, 1.0])
        qp = transform_module.as_qparam(1.5)
        with pytest.raises(PoleError, match=r"k=\(2[-+]2j\)"):
            transform_module._qft_rows(Gaussian(1.0), qp, k,
                                       np.array(reflect), None)


def two_sided_real_line(f, q, ks, cfg=None):
    """qft_real_line's array branch with both half-lines as table rows:
    (values, errs), or the ConvergenceError of the lowest failing k."""
    n = ks.size
    val, err, why = transform_module._qft_rows(
        f, transform_module._admitted(f, q),
        np.concatenate((ks, ks), dtype=complex), np.arange(2 * n) >= n, cfg)
    values, errs = val[:n] - val[n:], err[:n] + err[n:]
    transform_module._raise_failed(
        values, errs, [w1 or w2 for w1, w2 in zip(why[:n], why[n:])])
    return values, errs


EVEN_DENSITIES = [Gaussian(0.3), Gaussian(1.0)] + [
    QGaussian(q_g, beta) for q_g in (0.5, 1.0, 1.5, 2.5) for beta in (0.5, 1.0)]


class TestEvenDensity:
    """An even f integrates x > 0 alone on the real line: x < 0 is its
    mirror, and every result keeps the bits of both half-lines as rows."""

    ks = np.array([0.0, -0.0, 1e-3, -1e-3, 0.7, -0.7, 3.0, -3.0, 25.0,
                   -25.0, 1e6, -1e6])

    def test_only_exact_gaussians_are_even(self):
        class Sub(Gaussian):
            pass

        assert Gaussian(1.0).even() and QGaussian(1.5, 1.0).even()
        assert QGaussian(0.5, 1.0).even()
        for f in (Sub(1.0), PowerLaw(1.0, 2.0, 1.0, 2.0), Heaviside(1),
                  Constant(1.0), Sampled([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
                  SlowTail(1.0)):
            assert not f.even()

    @pytest.mark.parametrize("q", [1.0, 1.1, 1.5, 1.9])
    @pytest.mark.parametrize("f", EVEN_DENSITIES, ids=repr)
    def test_values_are_the_two_sided_table(self, f, q):
        # at q = 1 the mapped algebraic tails, and the cut at k = 1e6,
        # miss tolerance: the estimates are compared then
        results = []
        for call in (qft_real_line, two_sided_real_line):
            try:
                values, errs = call(f, q, self.ks)
                failed = None
            except ConvergenceError as exc:
                values, errs, failed = exc.values, exc.errs, exc.failed
            # tobytes tells signed zeros apart
            results.append((values.tobytes(), errs.tobytes(),
                            failed if failed is None else failed.tolist()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("f, q, ks, cfg", [
        (QGaussian(2.5, 1.0), 1.9, [0.5, 3.0],
         QuadratureConfig(max_subdivisions=4)),
        (Gaussian(1.0), 1.3, [0.0, 3.0, 40.0],
         QuadratureConfig(max_subdivisions=4)),
        (QGaussian(1.0, 1.0), 1.0, [1.0, 1e200], None),
    ])
    def test_budget_failure_is_the_two_sided_one(self, f, q, ks, cfg):
        ks = np.array(ks)
        errors = []
        for call in (qft_real_line, two_sided_real_line):
            with pytest.raises(ConvergenceError) as info:
                call(f, q, ks, cfg)
            errors.append(info.value)
        got, want = errors
        assert (str(got), got.reason, got.row) == \
            (str(want), want.reason, want.row)
        assert np.complex128(got.value).tobytes() == \
            np.complex128(want.value).tobytes()
        assert np.float64(got.err).tobytes() == np.float64(want.err).tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        assert got.errs.tobytes() == want.errs.tobytes()
        assert got.failed.tolist() == want.failed.tolist()

    @pytest.mark.parametrize("f, q, ks, cfg, error", [
        # the kernel falls off below the panel width at x = 0
        (Gaussian(1.0), 1.5, [0.5, 1e305], None, BoundaryRegimeError),
        # the algebraic tail's mass past the largest float x is lost
        (QGaussian(2.99, 1.0), 1.99, [0.5, 3.0],
         QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14), BoundaryRegimeError),
        # the plane wave's phase overflows
        (Gaussian(1.0), 1.0, [0.5, 1e308], None, NonFiniteError),
    ], ids=["head-rows", "tail-bound", "phase"])
    def test_errors_are_the_two_sided_ones(self, f, q, ks, cfg, error):
        ks = np.array(ks)
        texts = []
        for call in (qft_real_line, two_sided_real_line):
            with pytest.raises(error) as info:
                call(f, q, ks, cfg)
            texts.append(str(info.value))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("f", [Gaussian(1.0), QGaussian(1.5, 1.0)],
                             ids=repr)
    def test_no_node_on_x_below_zero(self, f, monkeypatch):
        nodes = []
        values = type(f).values

        def spy(self, x):
            nodes.append(np.array(x, dtype=float))
            return values(self, x)

        monkeypatch.setattr(type(f), "values", spy)
        qft_real_line(f, 1.3, np.array([-2.0, 0.5, 3.0]))
        x = np.concatenate([v.ravel() for v in nodes])
        assert x.size and not np.count_nonzero(x < 0)


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
    """The vectorized kernel integrand and q_exp_complex against mpmath,
    and the integrand's bounds."""

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
            # q_exp_complex takes its power from the same evaluator (f = 1)
            want, w = mp_kernel(q, ki, xi, 1.0)
            got = q_exp_complex(ki, xi, q)
            assert abs(got - want) <= 8 * (1 + w) * EPS * abs(want)

    @pytest.mark.parametrize("q", [1 + 1e-4, 1.01, 1.5])
    def test_matches_mpmath_on_the_inversion_window(self, q):
        # roundtrip's power-law window: real k with |k| up to 4096, the cap
        # of inversion's default k_max, and x in [1, 2]. At q = 1 + 1e-4
        # the modulus, about exp(-(q-1) (k x)^2 / 2), underflows to 0 past
        # |k x| ~ 3.9e3, where the phase is 3.7e3 rad
        f = PowerLaw(1.3, 2.0, 1.0, 2.0)
        rng = np.random.default_rng(4096)
        n = 60
        k = rng.uniform(-4096.0, 4096.0, n).astype(complex)
        k[:2] = 4096.0, -4096.0
        u = rng.uniform(1.0, 2.0, n)
        u[:2] = 2.0
        out = transform_module._kernel_integrand(f, q, k, False)(
            u[:, None], np.arange(n))[:, 0]
        assert np.count_nonzero(out) >= n // 2
        for ki, xi, yi, oi in zip(k, u, f.values(u), out):
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

    @staticmethod
    def integrand_calls(monkeypatch, name):
        """Record (u, value) of every call of the integrands that the
        factory transform.<name> builds, in order."""
        calls = []
        factory = getattr(transform_module, name)

        def traced(*args):
            g = factory(*args)

            def integrand(u, rows):
                out = g(u, rows)
                calls.append((np.array(u), out.copy()))
                return out
            return integrand

        monkeypatch.setattr(transform_module, name, traced)
        return calls

    @staticmethod
    def all_finite(calls):
        return all(np.isfinite(u).all() and np.isfinite(out).all()
                   for u, out in calls)

    # each cell's value and err when the map ran on to v = 0 and cleared
    # the nodes where x or its Jacobian overflowed
    @pytest.mark.parametrize("f, q, cfg, was, was_err", [
        (QGaussian(2.95, 1.0), 1.97, None, 7.686603721936392, 1.40e-7),
        (QGaussian(2.95, 1.0), 1.99, QuadratureConfig(rel_tol=1e-6),
         23.64739765569541, 1.93e-5),
        (SlowTail(1e-3), 1.97, None, 2.5697018366e-4, 1.67e-7),
        (SlowTail(1e-3), 1.99, QuadratureConfig(rel_tol=1e-2),
         1.8779250952e-3, 0.592)],
        ids=["qgaussian-1.97", "qgaussian-1.99", "slow-tail-1.97",
             "slow-tail-1.99"])
    def test_map_stays_in_float_range(self, monkeypatch, f, q, cfg, was,
                                      was_err):
        # at q near 2 the map's exponent is 60; its rows start at the v0
        # where the Jacobian reaches a quarter of the largest float, so
        # every x the kernel sees and every mapped value is finite. At
        # q = 1.99 the bound on the mass past x_end is 5.3e-7 for the
        # q-Gaussian (its tolerance is 1.7e-7) and 3e-2 for the slow tail,
        # so those cells run at a tolerance loose enough for the bound not
        # to raise
        calls = self.integrand_calls(monkeypatch, "_kernel_integrand")
        mapped = self.integrand_calls(monkeypatch, "_tail_map")
        v, err = qft_real_line(f, q, 3.0, cfg)
        assert mapped and self.all_finite(calls) and self.all_finite(mapped)
        assert abs(v - was) <= min(err, was_err)

    @pytest.mark.parametrize("q", [1.97, 1.99])
    @pytest.mark.parametrize("f", [Heaviside(1), Constant(1.0)])
    def test_constant_tail_clears_nothing(self, monkeypatch, f, q):
        # the same cells of a constant tail take no map, and each side is
        # within its err of i/((2-q)k)
        def never(*args):
            raise AssertionError("a constant tail took the map")

        monkeypatch.setattr(transform_module, "_tail_map", never)
        for pt in (up(3.0), down(3.0)):
            v, err = qft_complex(f, q, pt)
            assert abs(v - steps_qft(f, q, pt)) <= err

    def test_map_lost_mass_raises_past_the_tolerance(self):
        # at the default tolerance the slow tail's bound on the mass past
        # x_end alone exceeds the tolerance, and the error names q, k and
        # the bound
        with pytest.raises(BoundaryRegimeError) as info:
            qft_real_line(SlowTail(1e-3), 1.99, 3.0)
        assert str(info.value).startswith(
            "the algebraic tail's mass past the largest float x is lost at "
            "q=1.99, k=(3+0j): its bound 3.013e-02 exceeds the tolerance ")

    def test_heavy_qgaussian_tail_is_not_dropped(self):
        # its values were 0 past |x| ~ 1e154, so the map dropped a tail of
        # about 0.91 (3% of |F|) with no bound and returned 9.24 + 29.24i
        # under an err of 2.2e-7; the bound past x_end now sees that tail
        with pytest.raises(BoundaryRegimeError, match=(
                r"lost at q=1\.99, k=\(3\+0j\): its bound 3\.013e-02 "
                r"exceeds the tolerance")):
            qft_complex(QGaussian(2.99, 1.0), 1.99,
                        HalfPlanePoint(3, PlaneTag.REAL_LIMIT_UPPER))

    @pytest.mark.parametrize("f, density, true_mass", [
        (SlowTail(1e-3), lambda x: (1 + x * x) ** (-mpmath.mpf("1e-3") / 2),
         3.01309e-2),
        (QGaussian(2.99, 1.0),
         lambda x: (1 + (mpmath.mpf(2.99) - 1) * x * x)
         ** (1 / (1 - mpmath.mpf(2.99))), 3.01291e-2)],
        ids=["slow-tail", "qgaussian-2.99"])
    def test_bound_past_x_end_matches_mpmath(self, monkeypatch, f, density,
                                             true_mass):
        """The bound |g(x_end)| x_end/(d - 1) against the modulus of the
        integral of g over [x_end, inf) at 30 digits, at q = 1.99, k = 3 on
        the upper side (d = 1/(q - 1)). The bound is an asymptotic
        estimate, exact only as the phase of g settles and f follows its
        power law, not a proven bound: here it reads 3.01309e-2 for the
        slow tail and 3.01277e-2 for the q-Gaussian, whose true masses are
        3.01309e-2 and 3.01291e-2."""
        calls = self.integrand_calls(monkeypatch, "_kernel_integrand")
        q, k = 1.99, 3.0
        with pytest.raises(BoundaryRegimeError):
            qft_complex(f, q, up(k))
        # the last kernel call is the one at x_end
        x, g = calls[-1]
        assert x.shape == (1, 1)
        x_end, d = float(x[0, 0]), 1.0 / (q - 1.0)
        bound = abs(complex(g[0, 0])) * x_end / (d - 1.0)
        with mpmath.workdps(30):
            qm, xm = mpmath.mpf(q), mpmath.mpf(x_end)
            p = 1 / (mpmath.mpf(d) - 1)

            def mapped(s):
                # x = x_end s^-p, under which the integrand is nearly flat
                x = xm * s ** -p
                y = density(x)
                return y * (1 + 1j * (1 - qm) * k * x * y ** (qm - 1)) ** (
                    1 / (1 - qm)) * xm * p * s ** (-p - 1)

            mass = abs(mpmath.quad(mapped, [0, 1]))
        assert float(mass) == pytest.approx(true_mass, rel=1e-5)
        assert bound == pytest.approx(float(mass), rel=1e-3)

    def test_tail_map_contract(self):
        # rows 0-1 are finite rows, rows 2-3 mapped tails with p = 1 and 60
        f = SlowTail(1e-3)
        k = np.array([3.0, -1.0, 3.0, -1.0], dtype=complex)
        gfun = transform_module._kernel_integrand(f, 1.99, k, False)
        X1, p = np.array([4.0, 12.0]), np.array([1.0, 60.0])
        mapped = transform_module._tail_map(gfun, 2, X1, p)
        v = np.linspace(0.05, 1.0, 15)
        u = np.array([v + 1.0, v + 2.0, v, v])
        rows = np.arange(4)
        u0, rows0 = u.copy(), rows.copy()
        out = mapped(u, rows)
        assert np.array_equal(u, u0) and np.array_equal(rows, rows0)
        assert not np.shares_memory(out, u)
        head = gfun(u[:2], rows[:2])
        assert np.array_equal(out[:2].view(float), head.view(float))
        for j in range(2):
            # x = X1 v^-p and the Jacobian X1 p v^-(p+1) = p x/v, each
            # with a scalar exponent, as the map takes them
            x = X1[j] * v ** -p[j]
            jac = X1[j] * p[j] * v ** (-p[j] - 1.0)
            want = gfun(x[None, :], rows[2 + j:3 + j])[0] * jac
            assert np.array_equal(out[2 + j].view(float), want.view(float))
            assert_allclose(out[2 + j], want / jac * (p[j] * x / v),
                            rtol=8 * EPS)

    @pytest.mark.parametrize("f, q, k", [
        (SlowTail(1e-3), 1.99, 1.2e4), (SlowTail(1e-3), 1.99, 1.2e-8),
        (QGaussian(2.99, 1.0), 1.0, 30.0),
        (QGaussian(2.99, 1.0), 1.99, 1e3 + 1j)],
        ids=["x1-1e-3", "x1-1e9", "q-1", "upper"])
    def test_map_is_finite_past_v0(self, monkeypatch, f, q, k):
        # p = 60 on [v0, 1], with X1 = 12/|k| from 1e-3 to 1e9: v0 is where
        # p x/v, or v^-(p+1) where X1 p < 1 as in the first case, reaches
        # a quarter of the largest float. The q = 1 cell raised
        # NonFiniteError at x = 2.1e307 when the map ran on to v = 0
        calls = self.integrand_calls(monkeypatch, "_kernel_integrand")
        mapped = self.integrand_calls(monkeypatch, "_tail_map")
        plane = PlaneTag.UPPER if k.imag else PlaneTag.REAL_LIMIT_UPPER
        try:
            qft_complex(f, q, HalfPlanePoint(k, plane))
        except (BoundaryRegimeError, ConvergenceError):
            pass
        assert mapped and self.all_finite(calls) and self.all_finite(mapped)

    @pytest.mark.parametrize("f", [Heaviside(1), Constant(1.0)])
    def test_constant_tail_loses_no_mass(self, f):
        # on the map this cell raised with a lost-mass bound of 2.972e-02;
        # the closed form has no mass to lose
        v, err = qft_real_line(f, 1.99, 3.0)
        want = steps_qft(f, 1.99, up(3.0)) - steps_qft(f, 1.99, down(3.0))
        assert abs(v - want) <= err <= 1e-10


class TestInputsLeftAlone:
    """The densities and the kernel integrand build their results in
    arrays of their own: the caller's nodes keep their bits, and nothing
    returned is a view of them."""

    X = np.linspace(-3.0, 3.0, 61).reshape(-1, 1) * np.ones(15)

    @pytest.mark.parametrize("f", [
        PowerLaw(1.0, 2.0, 0.5, 2.0), Gaussian(1.3), Constant(2.0),
        QGaussian(0.5, 1.0), QGaussian(1.0, 1.0), QGaussian(1.5, 1.0),
        Heaviside(1), Heaviside(-1),
        Sampled([-1.0, 0.0, 2.0], [0.5, 1.0, 0.25])],
        ids=["powerlaw", "gaussian", "constant", "qgaussian-0.5",
             "qgaussian-1", "qgaussian-1.5", "heaviside+1", "heaviside-1",
             "sampled"])
    def test_values(self, f):
        x = self.X.copy()
        out = f.values(x)
        assert x.tobytes() == self.X.tobytes()
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("q", [1.0, 1.3])
    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("im", [0.0, 0.5], ids=["real-k", "complex-k"])
    @pytest.mark.parametrize("f", [PowerLaw(1.0, 2.0, 0.5, 2.0),
                                   Gaussian(1.3)], ids=lambda f: f.kind)
    def test_kernel_integrand(self, f, im, reflect, q):
        # Im k takes the sign of the half-line's x, off the pole
        k = np.array([0.5, -2.0, 7.0]) + (-im if reflect else im) * 1j
        u0 = np.abs(self.X[:3])
        rows = np.array([2, 0, 1])
        u, r = u0.copy(), rows.copy()
        out = transform_module._kernel_integrand(f, q, k, reflect)(u, r)
        assert u.tobytes() == u0.tobytes()
        assert r.tobytes() == rows.tobytes()
        assert not np.shares_memory(out, u)


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
                 id="closed-step"),
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

    # cells whose rows converge on their seed panels in one integrand call:
    # a Gaussian cut in the upper plane, and a q-Gaussian with an
    # |x|^(-4/3) tail on the algebraic map; a step, closed from x = 0,
    # makes none
    @pytest.mark.parametrize("f, density, q, k, pts, n_calls", [
        pytest.param(Heaviside(1), lambda x: mpmath.mpf(1), 1.5, 3 + 2j,
                     [0, 1, mpmath.inf], 0, id="step-upper"),
        pytest.param(Gaussian(1.0), lambda x: mpmath.exp(-x * x / 2), 1.2,
                     2 + 1j, [0, 40], 1, id="gaussian-upper"),
        pytest.param(QGaussian(2.5, 1.0),
                     lambda x: (1 + 1.5 * x * x) ** (-mpmath.mpf(2) / 3),
                     1.2, 2 + 1j, [0, 1, mpmath.inf], 1, id="qgaussian-heavy"),
    ])
    def test_seed_converged_cells(self, monkeypatch, f, density, q, k, pts,
                                  n_calls):
        calls = []
        panel = quadrature.gk15_panel

        def counting(*args):
            calls.append(1)
            return panel(*args)

        monkeypatch.setattr(quadrature, "gk15_panel", counting)
        v, err = qft_complex(f, q, HalfPlanePoint(k, PlaneTag.UPPER))
        assert len(calls) == n_calls
        assert abs(v - mp_half_line(density, q, k, pts)) <= err

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


class TestNearZeroBlindSpot:
    """For q > 1 the kernel falls off within l = 1/((q-1) freq) of x = 0.
    When l lies below the first seed panel's first node, no node saw the
    piece: at q = 1.1 and k = 1e6 a Gaussian's piece (about 1.1e-6 i)
    came back as -2.1e-29 with err 4.1e-29, and the step's near 1e-20.
    Grading rows from l on now cover that start."""

    @pytest.mark.parametrize("q, k", [(1.1, 1e6), (1.1, -1e6),
                                      (1.0001, 1e8), (1.3, 1e7)])
    @pytest.mark.parametrize("plane", [PlaneTag.REAL_LIMIT_UPPER,
                                       PlaneTag.UPPER])
    def test_step_is_exact(self, q, k, plane):
        point = HalfPlanePoint(k + (0.5j if plane is PlaneTag.UPPER else 0),
                               plane)
        v, err = qft_complex(Heaviside(1), q, point)
        assert abs(v - heaviside_qft(1, q, point)) <= err
        assert err <= 1e-8 * abs(v)

    # mpmath gets a breakpoint at l and at each decade past it
    @pytest.mark.parametrize("f, density, top", [
        pytest.param(Gaussian(1.0), lambda x: mpmath.exp(-x * x / 2), 40,
                     id="gaussian-cut"),
        pytest.param(QGaussian(1.5, 1.0), _qgauss_mp, mpmath.inf,
                     id="qgaussian-map"),
    ])
    @pytest.mark.parametrize("reflect", [False, True], ids=["up", "down"])
    def test_against_mpmath(self, f, density, top, reflect):
        q, k = 1.1, 1e6
        ell = 1.0 / ((q - 1.0) * k)
        pts = [0] + [ell * 10.0 ** j for j in range(8)] + [top]
        if reflect:
            pts = [-p for p in pts[::-1]]
        want = mp_half_line(density, q, k, pts)
        v, err = qft_complex(f, q, down(k) if reflect else up(k))
        assert abs(v - (-want if reflect else want)) <= err
        assert err <= max(QuadratureConfig().abs_tol, 1e-8 * abs(v))

    def test_l_below_the_panel_range_raises(self):
        # at k = 2^1023 l is 2.2e-308; panels that narrow break the panel
        # rule, so the cell is refused instead of graded. At k = 1e300 the
        # piece is still the step's i/((2-q)k) within err
        with pytest.raises(BoundaryRegimeError,
                           match=r"q=1\.5, k=\(8\.98846567431158e\+307\+0j\)"
                                 r" falls off within 2\.225e-308 of x = 0\.0"):
            qft_complex(Gaussian(1.0), 1.5, up(2.0 ** 1023))
        v, err = qft_complex(Gaussian(1.0), 1.5, up(1e300))
        assert abs(v - 2j / 1e300) <= err


class TestHeadRows:
    """_head_rows's finite row table (piece, lo, hi, panels): each piece's
    own row first, in order, then each moved piece's grading rows, in x
    order and edge to edge from A to its own row's start; panels is
    _osc_panels of each row. At q = 1 nothing moves."""

    @staticmethod
    def recorded(monkeypatch, f, q, ks):
        """The arguments and table of the one _head_rows call that
        qft_real_line(f, q, ks) makes."""
        calls = []
        head_rows = transform_module._head_rows

        def record(*args):
            calls.append((args, head_rows(*args)))
            return calls[-1][1]

        monkeypatch.setattr(transform_module, "_head_rows", record)
        qft_real_line(f, q, np.array(ks))
        (args, table), = calls
        return args, table

    # k = +-1e6 moves every piece but the mapped tails' at q > 1, and
    # k = 0.5 none; the q = 1 kernel does not converge at k = 1e6 and
    # moves nothing at any k
    @pytest.mark.parametrize("f, q, top, moves", [
        (Gaussian(1.0), 1.1, 1e6, True),
        (Gaussian(1.0), 1.3, 1e6, True),
        (PowerLaw(1.0, 2.0, 1.0, 2.0), 1.1, 1e6, True),
        # the finite part ends at A + 12/freq, where the first seed node
        # is already past l
        (QGaussian(1.5, 1.0), 1.1, 1e6, False),
        (Gaussian(1.0), 1.0, 30.0, False),
    ], ids=["gaussian-1.1", "gaussian-1.3", "powerlaw-1.1", "qgaussian-1.1",
            "gaussian-1.0"])
    def test_table_contract(self, monkeypatch, f, q, top, moves):
        (A, ends, freq, qv, k, cap), (piece, lo, hi, panels) = \
            self.recorded(monkeypatch, f, q, [top, -top, 0.5])
        m = A.size
        assert piece[:m].tolist() == list(range(m))
        assert np.array_equal(hi[:m], ends)
        assert (piece.size > m) == moves
        # grading rows are grouped by piece, in piece order
        assert np.all(np.diff(piece[m:]) >= 0)
        for i in range(m):
            rows = m + np.flatnonzero(piece[m:] == i)
            edges = [A[i], *hi[rows].tolist()]
            assert lo[rows].tolist() == edges[:-1]
            assert lo[i] == edges[-1] < ends[i]
            assert all(a < b for a, b in zip(edges, edges[1:]))
            assert rows.size == 0 or abs(k[i]) == top
        np.testing.assert_array_equal(
            panels, _osc_panels(lo, hi, freq[piece], qv, cap))

    def test_inputs_come_back_at_q_one(self):
        # a row that grades at q = 1.1 (l = 1e-5 below its first node) is
        # left whole at q = 1
        A, ends = np.array([0.0, -0.0, 0.5]), np.array([9.0, 9.0, 3.0])
        freq, k = np.full(3, 1e6), np.full(3, 1e6 + 0j)
        moved = transform_module._head_rows(A, ends, freq, 1.1, k, 256)
        assert moved[0].size > 3
        piece, lo, hi, panels = transform_module._head_rows(
            A, ends, freq, 1.0, k, 256)
        assert piece.tolist() == [0, 1, 2]
        assert lo.tobytes() == A.tobytes() and hi.tobytes() == ends.tobytes()
        np.testing.assert_array_equal(
            panels, _osc_panels(A, ends, freq, 1.0, 256))


class TestClosedTail:
    """A constant density's half-line piece, i c^(2-q)/((2-q) k), the
    lower one as minus the integral over x < 0: its formula and rounding
    bound against mpmath, and the absence of any quadrature. A constant
    tail's model has no correction, so the point X1 past which the tail
    is closed is the piece's start A = 0."""

    @pytest.mark.parametrize("q", [1 + 1e-4, 1.01, 1.3, 1.6, 1.9, 1.99,
                                   1.9999])
    @pytest.mark.parametrize("c", [1.0, 3.7, 1e-3])
    def test_rounding_bound_covers_mpmath(self, q, c):
        rng = np.random.default_rng(int(q * 1e4) + int(c * 10))
        n = 40
        k = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n) + \
            1j * rng.uniform(-2.0, 2.0, n) * (rng.random(n) < 0.5)
        v, bound = transform_module._closed_tail(q, k, c)
        with mpmath.workdps(40):
            qm, cm = mpmath.mpf(q), mpmath.mpf(c)
            for ki, vi, b in zip(k, v, bound):
                want = 1j * cm ** (2 - qm) / ((2 - qm) * mpmath.mpc(ki))
                assert abs(vi - complex(want)) <= b <= 16 * EPS * abs(vi)

    @pytest.mark.parametrize("q", [1.3, 1.6])
    @pytest.mark.parametrize("k, reflect", [(2.0, False), (-0.7, False),
                                            (1.5 + 0.5j, False),
                                            (2.0, True), (1.5 - 0.5j, True)])
    def test_is_the_integral_past_x1(self, q, k, reflect):
        # the integral over x > 0, or minus that over x < 0, of c times
        # the kernel, by mpmath.quad at 30 digits
        f = Constant(3.7)
        tag = {(False, True): PlaneTag.REAL_LIMIT_UPPER,
               (True, True): PlaneTag.REAL_LIMIT_LOWER,
               (False, False): PlaneTag.UPPER,
               (True, False): PlaneTag.LOWER}[reflect, k.imag == 0]
        v, err = qft_complex(f, q, HalfPlanePoint(k, tag))
        qm, km = mpmath.mpf(q), mpmath.mpc(k)
        with mpmath.workdps(30):
            cm = mpmath.mpf(3.7)
            side = mpmath.quad(lambda x: cm * (1 + 1j * (1 - qm) * km * x
                                               * cm ** (qm - 1))
                               ** (1 / (1 - qm)),
                               [-mpmath.inf, 0] if reflect else
                               [0, mpmath.inf])
            want = complex(-side if reflect else side)
        assert abs(v - want) <= err <= 16 * EPS * abs(v)

    # every plane tag, q from 1 + 1e-4 to 1.9999 and |k| from 1e-8 to 1e8
    # and 1e300: each cell is the formula within its err, and none makes
    # a Gauss-Kronrod panel call
    @pytest.mark.parametrize("f", [Heaviside(1), Heaviside(-1), Constant(0.5),
                                   Constant(1.0), Constant(3.0)],
                             ids=["step+", "step-", "c0.5", "c1", "c3"])
    @pytest.mark.parametrize("q", [1 + 1e-4, 1.1, 1.5, 1.9, 1.9999])
    def test_sweep_runs_no_quadrature(self, monkeypatch, f, q):
        def never(*args):
            raise AssertionError("a constant tail called gk15_panel")

        monkeypatch.setattr(quadrature, "gk15_panel", never)
        ks = [s * 10.0 ** n for s in (1, -1) for n in (*range(-8, 9), 300)]
        off_axis = {PlaneTag.UPPER: 0.5j, PlaneTag.LOWER: -0.5j,
                    PlaneTag.REAL_LIMIT_UPPER: 0.0,
                    PlaneTag.REAL_LIMIT_LOWER: 0.0}
        c, sides = f.peak_value(), f.support()
        with mpmath.workdps(30):
            for tag, im in off_axis.items():
                lower = tag in (PlaneTag.LOWER, PlaneTag.REAL_LIMIT_LOWER)
                on = sides[0] < 0 if lower else sides[1] > 0
                for k in ks:
                    point = HalfPlanePoint(k + im, tag)
                    v, err = qft_complex(f, q, point)
                    want = 1j * mpmath.mpf(c) ** (2 - mpmath.mpf(q)) / (
                        (2 - mpmath.mpf(q)) * mpmath.mpc(point.k)) if on else 0
                    assert abs(v - complex(want)) <= err
        if isinstance(f, Constant):
            # the two sides cancel: a constant's transform sits at k = 0
            v, err = qft_real_line(f, q, np.array(ks))
            assert not np.any(v) and np.all(err > 0)

    @pytest.mark.parametrize("k", [1.5, -1.5, 1.5 + 0.5j])
    def test_meets_any_tolerance_without_quadrature(self, monkeypatch, k):
        # no quadrature call at all, even at a tolerance no rounding meets
        def never(*args, **kwargs):
            raise AssertionError("a constant tail ran adaptive_quad")

        monkeypatch.setattr(transform_module, "adaptive_quad", never)
        cfg = QuadratureConfig(rel_tol=1e-300, abs_tol=1e-300,
                               max_subdivisions=4)
        tag = PlaneTag.UPPER if k.imag else PlaneTag.REAL_LIMIT_UPPER
        v, err = qft_complex(Heaviside(1), 1.5, HalfPlanePoint(k, tag), cfg)
        assert abs(v - 2j / k) <= err <= 8 * EPS * abs(v)


def uts_qgaussian(q, beta, k):
    """The real transform of e_q(-beta x^2) by the q-Gaussian theorem of
    Umarov, Tsallis & Steinberg (Milan J. Math. 76, 2008, 307): (1/a)
    e_q1(-beta* (k/a^(q-1))^2) with q1 = (1+q)/(3-q), a = sqrt(beta)/C_q
    and beta* = (3-q)/(8 beta^(2-q) C_q^(2(q-1))), in mpmath arithmetic at
    the caller's precision."""
    q, beta, k = mpmath.mpf(q), mpmath.mpf(beta), mpmath.mpf(k)
    q1 = (1 + q) / (3 - q)
    c_q = mpmath.sqrt(mpmath.pi) * mpmath.gamma((3 - q) / (2 * (q - 1))) / (
        mpmath.sqrt(q - 1) * mpmath.gamma(1 / (q - 1)))
    a = mpmath.sqrt(beta) / c_q
    beta_star = (3 - q) / (8 * beta ** (2 - q) * c_q ** (2 * (q - 1)))
    kappa = k / a ** (q - 1)
    # e_q1(-y) = [1 + (q1 - 1) y]^(1/(1-q1)) for q1 > 1
    return (1 + (q1 - 1) * beta_star * kappa ** 2) ** (1 / (1 - q1)) / a


class TestUTSOracle:
    """The real q-transform maps the q-Gaussian QGaussian(q, beta) to a
    q1-Gaussian at q = q_g. These cells take the algebraic-tail map."""

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("q", [1.1, 1.3, 1.5, 1.7, 1.9, 1.99])
    def test_qft_real_line_within_err(self, q, beta):
        ks = np.array([0.1, 0.7, 1.0, 3.0, 10.0, 100.0])
        v, err = qft_real_line(QGaussian(q, beta), q, ks)
        with mpmath.workdps(30):
            want = np.array([complex(uts_qgaussian(q, beta, k)) for k in ks])
        assert np.all(np.abs(v - want) <= err)

    @pytest.mark.parametrize("q, beta, k", [(1.5, 1.0, 1.0), (1.3, 0.5, 3.0),
                                            (1.9, 3.0, 0.7)])
    def test_formula_against_mpmath(self, q, beta, k):
        # the real line is twice the real part of the x > 0 piece, as the
        # kernel at -x is the conjugate of the kernel at x
        with mpmath.workdps(30):
            qm, bm, km = mpmath.mpf(q), mpmath.mpf(beta), mpmath.mpf(k)

            def g(x):
                y = (1 + (qm - 1) * bm * x * x) ** (1 / (1 - qm))
                return y * (1 + 1j * (1 - qm) * km * x * y ** (qm - 1)) \
                    ** (1 / (1 - qm))

            side = mpmath.quad(g, [0, 1, 10, 100, 1e3, 1e4, mpmath.inf])
            want = uts_qgaussian(q, beta, k)
            assert abs(2 * mpmath.re(side) - want) <= 1e-28 * abs(want)
