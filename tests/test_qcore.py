import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfourier.errors import NonFiniteError, PoleError
from qfourier.qcore import (CutoffReal, QParam, _deformed_power, as_qparam,
                            q_exp, q_exp_complex, ultra_kernel)

finite_small = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
q_values = st.sampled_from([1.1, 1.25, 1.5, 1.75, 1.9])


class TestQParam:
    @pytest.mark.parametrize("q", [1.0, 1.5, 1.999])
    def test_accepts_band(self, q):
        assert QParam(q).q == q

    @pytest.mark.parametrize("q", [0.5, 2.0, 2.5, -1.0, float("nan"), float("inf")])
    def test_rejects_outside_band(self, q):
        with pytest.raises(ValueError):
            QParam(q)

    def test_classical_flag_iff_exactly_one(self):
        assert QParam(1.0).classical
        assert not QParam(1.0 + 1e-12).classical

    def test_as_qparam_passthrough(self):
        qp = QParam(1.5)
        assert as_qparam(qp) is qp
        assert as_qparam(1.5) == qp


class TestQExp:
    def test_identity_at_zero(self):
        assert q_exp(0.0, 1.5) == CutoffReal(1.0, False)

    def test_cutoff_fires(self):
        # 1 + (1-1.5)*3 = -0.5 < 0
        r = q_exp(3.0, 1.5)
        assert r.value == 0.0 and r.cut

    def test_classical_branch(self):
        r = q_exp(1.0, 1.0)
        assert not r.cut
        np.testing.assert_allclose(r.value, math.e, rtol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            q_exp(float("inf"), 1.5)

    @given(x=finite_small, q=q_values)
    def test_cut_implies_zero_and_nonnegative(self, x, q):
        r = q_exp(x, q)
        assert r.value >= 0.0
        if r.cut:
            assert r.value == 0.0


class TestQExpComplex:
    def test_frozen_example(self):
        # (1 - 0.5i)^{-2}: (1-0.5i)^2 = 0.75 - i, reciprocal = 0.48 + 0.64i
        v = q_exp_complex(1.0, 1.0, 1.5)
        np.testing.assert_allclose([v.real, v.imag], [0.48, 0.64], rtol=1e-14)

    def test_zero_argument(self):
        assert q_exp_complex(0.0, 5.0, 1.7) == 1.0 + 0j

    def test_classical_branch(self):
        v = q_exp_complex(2.0, 1.0, 1.0)
        np.testing.assert_allclose([v.real, v.imag], [math.cos(2.0), math.sin(2.0)], rtol=1e-15)

    def test_pole_raises(self):
        # k = -2i, x = 1, q = 1.5: base = 1 + i(-0.5)(-2i) = 1 - 1 = 0
        with pytest.raises(PoleError):
            q_exp_complex(-2j, 1.0, 1.5)

    @pytest.mark.parametrize("k", [1e200, -1e170, 1e200j, 3.0 + 1e170j])
    def test_huge_base_has_limit_zero(self, k):
        # |base|^-2 is below the least subnormal; the base's parts
        # overflow float on the way, with no warning (warnings are errors)
        assert q_exp_complex(k, 1.0, 1.5) == 0

    @pytest.mark.parametrize("k", [3e-5 - 1.9999j, 3e-7 - 1.999999j])
    def test_far_side_of_the_pole_matches_mpmath(self, k):
        # x Im k < 0 with |base| about 5e-5 and 5e-7, the side the
        # transform never integrates; the log1p modulus was 1.9e8 and
        # 8.6e11 ulps off here. The bound is the kernel's, 8 (1 + |w|) ulps
        # with w = log(base)/(1-q), as in test_transform's TestKernel
        q, x = 1.5, 1.0
        with mpmath.workdps(40):
            w = mpmath.log(1 + 1j * (1 - mpmath.mpf(q)) * mpmath.mpc(k) * x) \
                / (1 - mpmath.mpf(q))
            want, w = complex(mpmath.exp(w)), abs(complex(w))
        got = q_exp_complex(k, x, q)
        assert abs(got - want) <= 8 * (1 + w) * np.finfo(float).eps * abs(want)

    @pytest.mark.parametrize("d", [None, 0.5])
    def test_nan_node_keeps_an_overflowed_modulus(self, d):
        # where |base|^2 overflows the modulus comes from hypot: tiny, not
        # 0, and within the kernel's 8 (1 + |w|) ulps of mpmath
        q, b = 1.99, 1e200
        dd = None if d is None else np.array([[d]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = complex(_deformed_power(q, np.array([[b]]), dd)[0, 0])
        with mpmath.workdps(40):
            w = mpmath.log(1 + (d or 0) + 1j * mpmath.mpf(b)) \
                / (1 - mpmath.mpf(q))
            want, w = complex(mpmath.exp(w)), abs(complex(w))
        assert got != 0
        assert abs(got - want) <= 8 * (1 + w) * np.finfo(float).eps * abs(want)

    def test_overflow_raises(self):
        # base 1 - 0.9999 = 1e-4 to the power 1/(1-q) = -100
        with pytest.raises(NonFiniteError):
            q_exp_complex(-99.99j, 1.0, 1.01)

    @given(k=finite_small, x=finite_small, q=q_values)
    @settings(max_examples=200)
    def test_modulus_on_real_axis(self, k, x, q):
        v = q_exp_complex(k, x, q)
        expected = (1.0 + (1.0 - q) ** 2 * k * k * x * x) ** (1.0 / (2.0 * (1.0 - q)))
        np.testing.assert_allclose(abs(v), expected, rtol=1e-12)
        assert abs(v) <= 1.0 + 1e-12

    @given(k=finite_small, x=finite_small, q=q_values)
    @settings(max_examples=200)
    def test_conjugation_symmetry_real_k(self, k, x, q):
        a = q_exp_complex(-k, x, q)
        b = q_exp_complex(k, x, q).conjugate()
        np.testing.assert_allclose([a.real, a.imag], [b.real, b.imag], atol=1e-15)

    # first-order deviation is eps*(kx)^2/2, so keep |kx| <= 3 for the 1e-3 bound
    @pytest.mark.parametrize("k", [-3.0, -1.0, 0.5, 2.0])
    @pytest.mark.parametrize("x", [-1.0, 0.3, 1.0])
    def test_q_to_1_continuity(self, k, x):
        eps = 1e-4
        v = q_exp_complex(k, x, 1.0 + eps)
        assert abs(v - cmath.exp(1j * k * x)) < 1e-3


class TestUltraKernel:
    def test_upper_plane_positive_x(self):
        # base = 1 + i(-0.5)(i)(1) = 1.5, power -2 -> 4/9
        v = ultra_kernel(1j, 1.0, 1.5)
        np.testing.assert_allclose(v, 4.0 / 9.0, rtol=1e-14)

    def test_vanishing_quadrant(self):
        assert ultra_kernel(1j, -1.0, 1.5) == 0

    def test_lower_plane_negative_x_sign(self):
        v = ultra_kernel(-1j, -1.0, 1.5)
        np.testing.assert_allclose(v, -4.0 / 9.0, rtol=1e-14)

    def test_real_axis_rejected(self):
        with pytest.raises(ValueError):
            ultra_kernel(2.0, 1.0, 1.5)

    @pytest.mark.parametrize("x", [0.5, 3.0])
    @pytest.mark.parametrize("kim", [0.5, 2.0])
    def test_quadrant_vanishing_grid(self, x, kim):
        assert ultra_kernel(1.0 - 1j * kim, x, 1.3) == 0
        assert ultra_kernel(1.0 + 1j * kim, -x, 1.3) == 0
