import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P
from scipy import integrate

from qfourier.errors import ConvergenceError
from qfourier.quadrature import adaptive_quad, gk15_panel, graded_line_nodes


class TestPanelRule:
    def test_degree_20_monomial_is_near_exact(self):
        # the 15-point rule integrates x^20 on [-1,1] far better than
        # a composite scheme would; this pins the node/weight table
        v, _ = gk15_panel(lambda x: x ** 20, -1.0, 1.0)
        np.testing.assert_allclose(v, 2.0 / 21.0, rtol=1e-14)

    def test_weights_sum_to_interval_length(self):
        v, e = gk15_panel(lambda x: np.ones_like(x), 2.0, 5.0)
        np.testing.assert_allclose(v, 3.0, rtol=1e-15)
        assert e < 1e-12

    def test_error_estimate_bounds_true_error(self):
        v, e = gk15_panel(lambda x: np.cos(x ** 2), 0.0, 3.0)
        exact, _ = integrate.quad(lambda x: np.cos(x ** 2), 0.0, 3.0,
                                  epsabs=1e-13, epsrel=1e-13)
        assert abs(v - exact) <= 10 * max(e, 1e-15)

    @given(coeffs=st.lists(st.floats(-4, 4), min_size=1, max_size=11))
    @settings(max_examples=150, deadline=None)
    def test_polynomials_integrate_exactly(self, coeffs):
        c = np.array(coeffs)
        v, _ = gk15_panel(lambda x: P.polyval(x, c), -1.0, 1.0)
        ci = P.polyint(c)
        exact = P.polyval(1.0, ci) - P.polyval(-1.0, ci)
        np.testing.assert_allclose(v, exact, rtol=1e-12,
                                   atol=1e-12 * (1 + np.abs(c).sum()))


class TestAdaptiveQuad:
    def test_exponential(self):
        v, e = adaptive_quad(np.exp, 0.0, 2.0)
        np.testing.assert_allclose(v, np.e ** 2 - 1, rtol=1e-12)
        assert e < 1e-8

    def test_complex_oscillatory(self):
        v, _ = adaptive_quad(lambda x: np.exp(40j * x), 0.0, 1.0,
                             rel_tol=1e-10)
        exact = (np.exp(40j) - 1.0) / 40j
        np.testing.assert_allclose(v, exact, rtol=1e-9)

    def test_endpoint_inverse_sqrt(self):
        v, _ = adaptive_quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                             rel_tol=1e-8)
        np.testing.assert_allclose(v, 2.0, rtol=1e-7)

    def test_log_singularity_matches_quadpack(self):
        v, _ = adaptive_quad(np.log, 0.0, 1.0, rel_tol=1e-9)
        exact, _ = integrate.quad(np.log, 0.0, 1.0)
        np.testing.assert_allclose(v.real, exact, rtol=1e-8)
        assert abs(v.imag) < 1e-12

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: np.cos(x ** 2), 0.0, 3.0),
        (lambda x: np.exp(-x) * np.sin(5 * x), 0.0, 6.0),
        (lambda x: 1.0 / (1.0 + x ** 2), -4.0, 4.0),
    ])
    def test_against_quadpack(self, f, lo, hi):
        v, _ = adaptive_quad(f, lo, hi, rel_tol=1e-10)
        exact, _ = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13)
        np.testing.assert_allclose(v.real, exact, rtol=1e-9, atol=1e-12)

    def test_kink_with_breakpoint(self):
        v, e = adaptive_quad(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                             breakpoints=[1.0 / 3.0])
        np.testing.assert_allclose(v, 5.0 / 18.0, rtol=1e-13)
        assert e < 1e-10

    def test_budget_exhaustion_carries_best_estimate(self):
        with pytest.raises(ConvergenceError) as info:
            adaptive_quad(lambda x: x ** -0.99, 0.0, 1.0,
                          rel_tol=1e-12, max_subdivisions=12)
        err = info.value
        assert err.value is not None
        # partial sum of a positive integrand, with a large honest error bar
        assert 0.0 < err.value.real < 100.0
        assert err.value.imag == 0.0
        assert err.err > 1.0

    def test_zero_width_interval(self):
        v, e = adaptive_quad(np.exp, 1.5, 1.5)
        assert v == 0j
        assert e == 0.0

    def test_reversed_interval_raises(self):
        with pytest.raises(ValueError):
            adaptive_quad(np.exp, 1.0, 0.0)

    def test_deterministic_repeat(self):
        f = lambda x: np.cos(x ** 2) + 1j * np.sin(3 * x)
        v1, e1 = adaptive_quad(f, 0.0, 5.0, rel_tol=1e-10)
        v2, e2 = adaptive_quad(f, 0.0, 5.0, rel_tol=1e-10)
        assert v1 == v2
        assert e1 == e2


class TestRows:
    """Many integrals in lockstep: each row as it would run alone."""

    @staticmethod
    def row_integrand(w):
        def func(x, rows):
            return np.cos(w[rows][:, None] * x) + 1j * np.sin(x * x)
        return func

    def test_rows_are_bitwise_the_single_integrals(self):
        # 300 rows span three blocks; the breakpoints differ per row
        w = np.linspace(0.5, 40.0, 300)
        bps = [np.linspace(0.0, 3.0, 2 + int(wi) // 8)[1:-1] for wi in w]
        values, errs = adaptive_quad(self.row_integrand(w), np.zeros(300),
                                     np.full(300, 3.0), rel_tol=1e-10,
                                     breakpoints=bps)
        for i in range(0, 300, 7):
            one = self.row_integrand(w[i:i + 1])
            v, e = adaptive_quad(lambda x: one(x[None, :], np.array([0]))[0],
                                 0.0, 3.0, rel_tol=1e-10, breakpoints=bps[i])
            assert (values[i], errs[i]) == (v, e)

    def test_zero_width_rows(self):
        values, errs = adaptive_quad(self.row_integrand(np.ones(2)),
                                     np.array([1.0, 0.0]),
                                     np.array([1.0, 2.0]))
        assert values[0] == 0j and errs[0] == 0.0
        assert errs[1] > 0.0

    def test_lowest_failing_row_raises(self):
        # rows 3 and up oscillate too fast for the budget
        w = np.array([1.0, 2.0, 4.0, 60.0, 80.0])
        func = self.row_integrand(w)
        with pytest.raises(ConvergenceError) as info:
            adaptive_quad(func, np.zeros(5), np.full(5, 3.0),
                          rel_tol=1e-12, max_subdivisions=6)
        exc = info.value
        assert exc.row == 3
        with pytest.raises(ConvergenceError) as alone:
            adaptive_quad(self.row_integrand(w[3:]), np.zeros(2),
                          np.full(2, 3.0), rel_tol=1e-12, max_subdivisions=6)
        assert alone.value.row == 0
        assert (str(exc), exc.value, exc.err) == \
            (str(alone.value), alone.value.value, alone.value.err)

    def test_failure_carries_every_row(self):
        # row 3 fails in the first block; the later blocks still run, and
        # every row's result or best estimate comes with the error
        w = np.linspace(1.0, 10.0, 300)
        w[3] = 80.0
        func = self.row_integrand(w)
        with pytest.raises(ConvergenceError) as info:
            adaptive_quad(func, np.zeros(300), np.full(300, 3.0),
                          rel_tol=1e-12, max_subdivisions=6)
        exc = info.value
        assert exc.row == 3
        assert exc.failed[3] and exc.failed.dtype == bool
        assert (exc.values[3], exc.errs[3]) == (exc.value, exc.err)
        for i in np.flatnonzero(~exc.failed)[::9]:
            one = self.row_integrand(w[i:i + 1])
            v, e = adaptive_quad(lambda x: one(x[None, :], np.array([0]))[0],
                                 0.0, 3.0, rel_tol=1e-12, max_subdivisions=6)
            assert (exc.values[i], exc.errs[i]) == (v, e)

    def test_mismatched_limits_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(self.row_integrand(np.ones(2)), np.zeros(2),
                          np.ones(3))


class TestGradedLine:
    def test_total_weight_is_line_length(self):
        t, w = graded_line_nodes(40.0, 4096)
        np.testing.assert_allclose(w.sum(), 80.0, rtol=1e-5)

    def test_gaussian_on_line(self):
        t, w = graded_line_nodes(30.0, 2001)
        np.testing.assert_allclose(np.sum(w * np.exp(-t ** 2)),
                                   np.sqrt(np.pi), rtol=1e-12)

    def test_even_count_rounds_up_to_odd(self):
        t, w = graded_line_nodes(10.0, 64)
        assert len(t) == 65
        assert len(w) == 65

    def test_grid_is_symmetric(self):
        t, w = graded_line_nodes(25.0, 401)
        np.testing.assert_allclose(t, -t[::-1], atol=1e-15)
        np.testing.assert_allclose(w, w[::-1], rtol=1e-14)

    @pytest.mark.parametrize("T, n", [(0.0, 100), (-3.0, 100), (5.0, 4)])
    def test_bad_arguments_raise(self, T, n):
        with pytest.raises(ValueError):
            graded_line_nodes(T, n)
