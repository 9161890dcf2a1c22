import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qfourier.closedform import (
    RegimeTag,
    constant_qft_delta_weight,
    heaviside_qft,
    hilhorst_lambda,
    hilhorst_qft,
    powerlaw_qft_boundary,
    powerlaw_qft_closed,
    regime_of,
)
from qfourier.errors import BoundaryRegimeError, ConvergenceError, PoleError
from qfourier.qcore import q_exp_complex
from qfourier.transform import (
    HalfPlanePoint,
    Heaviside,
    PlaneTag,
    PowerLaw,
    QuadratureConfig,
    qft_complex,
)

CFG = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)
EPS = np.finfo(float).eps


def up(k):
    k = complex(k)
    tag = PlaneTag.REAL_LIMIT_UPPER if k.imag == 0 else PlaneTag.UPPER
    return HalfPlanePoint(k, tag)


def down(k):
    k = complex(k)
    tag = PlaneTag.REAL_LIMIT_LOWER if k.imag == 0 else PlaneTag.LOWER
    return HalfPlanePoint(k, tag)


class TestRegimeOf:
    @pytest.mark.parametrize("q, beta, tag", [
        (1.2, 3.0, RegimeTag.LOW_Q),
        (1.5, 3.0, RegimeTag.HIGH_Q),
        (1.5, 2.0, RegimeTag.BOUNDARY),
        (1.25, 4.0, RegimeTag.BOUNDARY),
        (1.9, 1.2, RegimeTag.HIGH_Q),
        (1.3, 0.5, RegimeTag.LOW_Q),
        (1.5, -2.0, RegimeTag.LOW_Q),
    ])
    def test_table(self, q, beta, tag):
        assert regime_of(q, beta) is tag

    def test_classical_rejected(self):
        with pytest.raises(ValueError):
            regime_of(1.0, 2.0)

    def test_nonfinite_beta(self):
        with pytest.raises(ValueError):
            regime_of(1.5, math.inf)


class TestHilhorstLambda:
    def test_reference_value(self):
        np.testing.assert_allclose(hilhorst_lambda(1.0, 2.0, 1.5), math.sqrt(2.0),
                                   rtol=1e-14)

    def test_wide_interval_limit(self):
        lam = hilhorst_lambda(1.0, 1e6, 1.5)
        assert 1.0 < lam < 1.0 + 1e-5

    def test_monotone_in_b(self):
        lams = [hilhorst_lambda(1.0, b, 1.5) for b in (2.0, 5.0, 10.0, 1e3, 1e6)]
        assert all(x > y for x, y in zip(lams, lams[1:]))
        assert lams[-1] > 1.0

    def test_narrow_interval_stays_finite(self):
        lam = hilhorst_lambda(1.0, 1.0001, 1.5)
        assert math.isfinite(lam)
        assert lam > 50.0

    @pytest.mark.parametrize("a, b", [(0.5, 2.0), (2.0, 3.0)])
    def test_q_near_one_is_a_boundary_error(self, a, b):
        # a^((q-2)/(q-1)) overflows at a = 0.5; at (2, 3) both powers
        # underflow to 0
        with pytest.raises(BoundaryRegimeError, match=r"q - 1 = 0\.0001 "):
            hilhorst_lambda(a, b, 1.0001)

    def test_q_near_one_at_unit_a(self):
        # 1^e is 1 and 2^e underflows to 0, so lam is ((q-1)/(2-q))^(1-q)
        q = 1.0001
        lam = hilhorst_lambda(1.0, 2.0, q)
        np.testing.assert_allclose(lam, ((q - 1.0) / (2.0 - q)) ** (1.0 - q),
                                   rtol=1e-14)
        assert abs(lam - 1.00092) < 1e-5

    @pytest.mark.parametrize("a, b, q", [
        (2.0, 1.0, 1.5), (1.0, 1.0, 1.5), (-1.0, 2.0, 1.5), (0.0, 2.0, 1.5),
        (1.0, 2.0, 1.0),
    ])
    def test_rejects(self, a, b, q):
        with pytest.raises(ValueError):
            hilhorst_lambda(a, b, q)

    @given(a=st.floats(0.05, 5.0), width=st.floats(0.05, 10.0),
           q=st.floats(1.1, 1.9))
    @settings(max_examples=60, deadline=None)
    def test_normalizes_the_boundary_member(self, a, width, q):
        b = a + width
        lam = hilhorst_lambda(a, b, q)
        beta = 1.0 / (q - 1.0)
        mass = lam ** beta * (b ** (1.0 - beta) - a ** (1.0 - beta)) / (1.0 - beta)
        np.testing.assert_allclose(mass, 1.0, rtol=1e-9)


class TestHilhorstQft:
    def test_k_zero_is_one(self):
        assert hilhorst_qft(math.sqrt(2.0), 1.5, up(0.0)) == 1.0 + 0j

    def test_reference_value(self):
        v = hilhorst_qft(math.sqrt(2.0), 1.5, up(1.0))
        np.testing.assert_allclose(v, (1.0 - 1j * math.sqrt(2.0) / 2.0) ** -2,
                                   rtol=1e-14)

    def test_matches_deformed_exponential(self):
        assert hilhorst_qft(1.3, 1.4, up(2.0)) == q_exp_complex(2.0, 1.3, 1.4)

    def test_lower_tag_rejected(self):
        with pytest.raises(ValueError):
            hilhorst_qft(1.0, 1.5, down(-1.0))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf])
    def test_bad_scale(self, lam):
        with pytest.raises(ValueError):
            hilhorst_qft(lam, 1.5, up(1.0))

    def test_family_members_reach_the_same_value(self):
        # two normalized members with equal scale; their quadrature
        # transforms and the shared closed form coincide
        lam = hilhorst_lambda(1.0, 2.0, 1.5)
        assert abs(lam - hilhorst_lambda(4.0 / 3.0, 4.0, 1.5)) < 1e-14
        for k in (0.5, 1.0, 2.0):
            ref = hilhorst_qft(lam, 1.5, up(k))
            v1, _ = qft_complex(PowerLaw(lam, 2.0, 1.0, 2.0), 1.5, up(k), CFG)
            v2, _ = qft_complex(PowerLaw(lam, 2.0, 4.0 / 3.0, 4.0), 1.5, up(k), CFG)
            np.testing.assert_allclose(v1, ref, rtol=1e-9)
            np.testing.assert_allclose(v2, ref, rtol=1e-9)


class TestPowerLawClosed:
    def test_boundary_reference_point(self):
        v = powerlaw_qft_closed(PowerLaw(math.sqrt(2.0), 2.0, 1.0, 2.0), 1.5, up(1.0))
        np.testing.assert_allclose(v, (1.0 - 1j * math.sqrt(2.0) / 2.0) ** -2,
                                   rtol=1e-12)

    def test_zero_k_moment(self):
        v = powerlaw_qft_closed(PowerLaw(1.0, 3.0, 1.0, 2.0), 1.2, up(0.0))
        np.testing.assert_allclose(v, 0.375, rtol=1e-14)

    def test_zero_k_log_branch(self):
        v = powerlaw_qft_closed(PowerLaw(2.0, 1.0, 1.0, 3.0), 1.4, up(0.0))
        np.testing.assert_allclose(v, 2.0 * math.log(3.0), rtol=1e-14)

    def test_low_regime_quadrature_lock(self):
        p = PowerLaw(1.0, 3.0, 1.0, 2.0)
        vq, err = qft_complex(p, 1.2, up(1.0), CFG)
        vc = powerlaw_qft_closed(p, 1.2, up(1.0))
        assert abs(vc - vq) < 1e-9

    def test_high_regime_quadrature_lock(self):
        p = PowerLaw(1.3, 3.0, 0.7, 2.5)
        vq, err = qft_complex(p, 1.5, up(2.0), CFG)
        vc = powerlaw_qft_closed(p, 1.5, up(2.0))
        assert abs(vc - vq) <= 10.0 * (err + 1e-12 * (1.0 + abs(vc)))

    @pytest.mark.parametrize("lam, beta, a, b, q, k", [
        (1.0, 3.0, 1.0, 2.0, 1.2, 0.5 + 1.5j),
        (1.3, 3.0, 0.7, 2.5, 1.5, -0.4 + 0.8j),
    ])
    def test_complex_k_agreement(self, lam, beta, a, b, q, k):
        p = PowerLaw(lam, beta, a, b)
        vq, err = qft_complex(p, q, up(k), CFG)
        vc = powerlaw_qft_closed(p, q, up(k))
        assert abs(vc - vq) <= 10.0 * (err + 5e-9 * (1.0 + abs(vc)))

    def test_oracle_agreement_low_regime(self):
        rng = np.random.default_rng(20260816)
        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)
        for _ in range(50):
            beta = rng.uniform(-1.0, 2.5)
            qmax = min(1.85, 1.0 + 0.7 / beta) if beta > 0 else 1.85
            q = rng.uniform(1.15, qmax)
            a = rng.uniform(0.2, 2.0)
            b = a + rng.uniform(0.3, 3.0)
            lam = rng.uniform(0.4, 2.5)
            k = rng.uniform(0.3, 4.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
            assert regime_of(q, beta) is RegimeTag.LOW_Q
            p = PowerLaw(lam, beta, a, b)
            vq, err = qft_complex(p, q, up(k), cfg)
            vc = powerlaw_qft_closed(p, q, up(k))
            assert abs(vc - vq) <= 10.0 * (err + 5e-9 * (1.0 + abs(vc)))

    def test_oracle_agreement_high_regime(self):
        rng = np.random.default_rng(816)
        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)
        for _ in range(50):
            beta = rng.uniform(1.6, 4.0)
            q = rng.uniform(1.0 + 1.3 / beta, 1.9)
            a = rng.uniform(0.2, 2.0)
            b = a + rng.uniform(0.3, 3.0)
            lam = rng.uniform(0.4, 2.5)
            k = rng.uniform(0.3, 4.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
            assert regime_of(q, beta) is RegimeTag.HIGH_Q
            p = PowerLaw(lam, beta, a, b)
            vq, err = qft_complex(p, q, up(k), cfg)
            vc = powerlaw_qft_closed(p, q, up(k))
            assert abs(vc - vq) <= 10.0 * (err + 5e-9 * (1.0 + abs(vc)))

    @given(beta=st.floats(-1.0, 2.0), qoff=st.floats(0.0, 1.0),
           k=st.floats(0.2, 5.0))
    # beta = 1 makes a - b = 0 in every 2F1 call (q = 1.7 here); beta = 2
    # at q = 1.25 makes both a - b and c - a - b integers
    @example(beta=1.0, qoff=1.0, k=0.5625)
    @example(beta=2.0, qoff=0.5, k=2.0)
    @settings(max_examples=40, deadline=None)
    def test_real_axis_conjugate_symmetry(self, beta, qoff, k):
        qmax = min(1.8, 1.0 + 0.7 / beta) if beta > 0 else 1.8
        q = 1.15 + qoff * (qmax - 1.15)
        p = PowerLaw(1.0, beta, 0.5, 2.0)
        v_pos = powerlaw_qft_closed(p, q, up(k))
        v_neg = powerlaw_qft_closed(p, q, up(-k))
        assert abs(v_neg - v_pos.conjugate()) <= 1e-10 * (1.0 + abs(v_pos))

    def test_near_boundary_band_raises(self):
        p = PowerLaw(1.0, 2.0, 1.0, 2.0)
        with pytest.raises(BoundaryRegimeError):
            powerlaw_qft_closed(p, 1.5 + 3e-7, up(1.0))

    def test_just_outside_the_band_the_log_case_hits_its_term_cap(self):
        # s = 1 - beta(q-1) = 2e-4: the 2F1 parameters are about 5,000 and
        # the log-case series runs its whole term cap at |v| ~ 0.447, so
        # the call raises with its partial sum (a benchmark input)
        p = PowerLaw(1.0, 2.0, 1.0, 2.0)
        with pytest.raises(ConvergenceError, match=r"2F1 log-case series "
                           r"did not settle within 100000 terms at "
                           r"\|v\|=0\.44") as info:
            powerlaw_qft_closed(p, 1.4999, up(1.0))
        assert isinstance(info.value.value, complex)

    # near q = 1 the low-regime prefactor (i(1-q)k)^(-1/(q-1)) overflows,
    # and with a < 1 so does a^((q-2)/(q-1))
    @pytest.mark.parametrize("p, q, k", [
        (PowerLaw(1.0, 2.0, 1.0, 2.0), 1.0001, 1.0),
        (PowerLaw(1.0, 2.0, 1.0, 2.0), 1.001, 1.0),
        (PowerLaw(1.0, 2.0, 1.0, 2.0), 1.001, 50.0),
        (PowerLaw(1.0, 2.0, 1.0, 2.0), 1.0 + 1e-6, 1e-6),
        (PowerLaw(1.0, 2.0, 1.0, 2.0), 1.01, 1e-6),
        (PowerLaw(1.0, 2.0, 1.0, 2.0), 1.0001, 1.0 + 1e-12j),
        (PowerLaw(2.0, 3.0, 0.5, 1.5), 1.0001, 1.0),
    ])
    def test_overflowing_powers_near_q_one_raise(self, p, q, k):
        with pytest.raises(BoundaryRegimeError, match="q - 1 .*quadrature"):
            powerlaw_qft_closed(p, q, up(k))

    @pytest.mark.parametrize("k", [1e-320, 1e-320j])
    def test_tiny_k_overflowing_the_prefactor_names_k(self, k):
        # at q = 1.5 the prefactor is (i(1-q)k)^-2, which a tiny |k|
        # lifts past float range; q - 1 = 0.5 is not what is too small
        with pytest.raises(BoundaryRegimeError) as info:
            powerlaw_qft_closed(PowerLaw(1.0, 0.5, 1.0, 2.0), 1.5, up(k))
        assert str(info.value).startswith(
            "q - 1 = 0.5, |k| = 1e-320: the low-regime prefactor "
            "(i(1-q)k)^(-1/(q-1)) overflows float")
        assert "too small" not in str(info.value)

    # beta = 1024 puts 0.4^-1023 in the boundary prefactor (q = 1 + 2^-10,
    # on the boundary) and in the k = 0 moment (q = 1.5)
    @pytest.mark.parametrize("evaluate, q, k, match", [
        (powerlaw_qft_boundary, 1.0 + 2.0 ** -10, 1.0,
         r"q - 1 = 0\.000976562 .*a\^\(\(q-2\)/\(q-1\)\).*quadrature"),
        (powerlaw_qft_closed, 1.0 + 2.0 ** -10, 1.0,
         r"q - 1 = 0\.000976562 .*a\^\(\(q-2\)/\(q-1\)\).*quadrature"),
        (powerlaw_qft_closed, 1.5, 0.0,
         r"beta = 1024 .*a\^\(1-beta\).*quadrature"),
    ], ids=["boundary", "closed-on-boundary", "closed-moment"])
    def test_overflowing_powers_at_large_beta_raise(self, evaluate, q, k,
                                                    match):
        p = PowerLaw(0.7, 1024.0, 0.4, 2.0)
        with pytest.raises(BoundaryRegimeError, match=match):
            evaluate(p, q, up(k))

    # windows near float's floor: both 2F1 terms underflow to 0 (this
    # returned -0), or cancel to 6.1e-14 of their size (this returned
    # 1.58e-13 + 2.72e-13i); the quadrature route gives their values
    @pytest.mark.parametrize("p, want", [
        (PowerLaw(1e-200, 1.5, 1e-200, 2e-200), 2e-200 * (1.0 - 0.5 ** 0.5)),
        (PowerLaw(1.0, 0.5, 1e-300, 1e-299),
         2.0 * (math.sqrt(1e-299) - math.sqrt(1e-300))),
    ], ids=["underflow", "cancel"])
    def test_cancelling_terms_raise(self, p, want):
        with pytest.raises(BoundaryRegimeError, match=r"terms cancel below "
                           r"1e-06 .*quadrature route \(qft_complex\)"):
            powerlaw_qft_closed(p, 1.5, up(1.0))
        v, err = qft_complex(p, 1.5, up(1.0))
        assert abs(v - want) <= 1e-9 * want and err <= 1e-9 * want

    def test_exact_boundary_collapses(self):
        p = PowerLaw(1.3, 2.0, 1.0, 2.0)
        assert powerlaw_qft_closed(p, 1.5, up(2.0)) \
            == powerlaw_qft_boundary(p, 1.5, up(2.0))

    def test_beta_zero_slab(self):
        p = PowerLaw(1.0, 0.0, 1.0, 2.0)
        vq, _ = qft_complex(p, 1.5, up(1.3), CFG)
        vc = powerlaw_qft_closed(p, 1.5, up(1.3))
        assert abs(vc - vq) < 1e-10

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.2, 3.0)])
    @pytest.mark.parametrize("q", [1.1, 1.3, 1.5, 1.8])
    def test_beta_zero_primitive_matches_mpmath(self, q, a, b):
        # the primitive's difference of two powers against the kernel's
        # integral at 40 digits, to a few ulps
        for k in (0.3, 1.0, 4.0, 2.0 + 1.0j, -3.0 + 0.5j):
            got = powerlaw_qft_closed(PowerLaw(1.0, 0.0, a, b), q, up(k))
            with mpmath.workdps(40):
                mq, mk = mpmath.mpf(q), mpmath.mpc(k)
                want = complex(mpmath.quad(
                    lambda x: (1 + 1j * (1 - mq) * mk * x) ** (1 / (1 - mq)),
                    [a, b]))
            assert abs(got - want) <= 16 * EPS * abs(want)

    def test_lower_tag_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_qft_closed(PowerLaw(1.0, 3.0, 1.0, 2.0), 1.2, down(-1.0))

    def test_classical_q_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_qft_closed(PowerLaw(1.0, 3.0, 1.0, 2.0), 1.0, up(1.0))


class TestBoundaryCollapse:
    def test_generic_scale_matches_quadrature(self):
        p = PowerLaw(1.3, 2.0, 1.0, 2.0)
        vq, _ = qft_complex(p, 1.5, up(1.0), CFG)
        np.testing.assert_allclose(powerlaw_qft_boundary(p, 1.5, up(1.0)), vq,
                                   rtol=1e-10)

    @pytest.mark.parametrize("q, beta", [(1.25, 4.0), (1.5, 2.0)])
    def test_prefactor_times_shared_form(self, q, beta):
        lam, a, b = 0.9, 0.8, 2.2
        e = (q - 2.0) / (q - 1.0)
        pref = lam ** (1.0 / (q - 1.0)) * ((q - 1.0) / (2.0 - q)) * (a ** e - b ** e)
        v = powerlaw_qft_boundary(PowerLaw(lam, beta, a, b), q, up(1.5))
        np.testing.assert_allclose(v, pref * hilhorst_qft(lam, q, up(1.5)),
                                   rtol=1e-13)

    @pytest.mark.parametrize("a, b, q, beta", [
        (1.0, 2.0, 1.5, 2.0),
        (0.5, 4.0, 1.5, 2.0),
        (0.8, 2.2, 1.25, 4.0),
    ])
    def test_normalized_prefactor_is_one(self, a, b, q, beta):
        lam = hilhorst_lambda(a, b, q)
        for k in (0.5, 2.0):
            v = powerlaw_qft_boundary(PowerLaw(lam, beta, a, b), q, up(k))
            np.testing.assert_allclose(v, hilhorst_qft(lam, q, up(k)), rtol=1e-13)

    def test_off_boundary_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_qft_boundary(PowerLaw(1.0, 3.0, 1.0, 2.0), 1.5, up(1.0))


class TestCollisionFamily:
    # normalized members on one scale level set at q0 = 1.5:
    # 1/a - 1/b = 1/2 for each, so hilhorst_lambda gives sqrt(2) for all
    MEMBERS = [(1.0, 2.0), (4.0 / 3.0, 4.0), (1.2, 3.0)]
    Q0 = 1.5

    def test_members_share_the_scale(self):
        lams = [hilhorst_lambda(a, b, self.Q0) for a, b in self.MEMBERS]
        np.testing.assert_allclose(lams, math.sqrt(2.0), rtol=1e-14)

    def test_members_are_distinct_densities(self):
        # members share one profile and differ through their support windows
        fs = [PowerLaw(hilhorst_lambda(a, b, self.Q0), 2.0, a, b)
              for a, b in self.MEMBERS]
        x = np.array([1.1, 1.25, 2.5, 3.5])
        assert np.max(np.abs(fs[0].values(x) - fs[1].values(x))) > 0.1
        assert np.max(np.abs(fs[0].values(x) - fs[2].values(x))) > 0.1
        assert np.max(np.abs(fs[1].values(x) - fs[2].values(x))) > 0.1

    def test_collision_at_the_tuned_q(self):
        vals = []
        for a, b in self.MEMBERS:
            lam = hilhorst_lambda(a, b, self.Q0)
            vals.append([qft_complex(PowerLaw(lam, 2.0, a, b), self.Q0,
                                     up(k), CFG)[0] for k in (0.5, 1.0, 2.0)])
        shared = [hilhorst_qft(math.sqrt(2.0), self.Q0, up(k))
                  for k in (0.5, 1.0, 2.0)]
        for row in vals:
            np.testing.assert_allclose(row, shared, atol=1e-8)
        for i in range(3):
            for j in range(i + 1, 3):
                diffs = [abs(x - y) for x, y in zip(vals[i], vals[j])]
                assert max(diffs) < 1e-8

    @pytest.mark.parametrize("q_prime", [1.3, 1.7])
    def test_separation_off_the_tuned_q(self, q_prime):
        vals = []
        for a, b in self.MEMBERS:
            lam = hilhorst_lambda(a, b, self.Q0)
            vals.append([qft_complex(PowerLaw(lam, 2.0, a, b), q_prime,
                                     up(k), CFG)[0] for k in (0.5, 1.0, 2.0)])
        for i in range(3):
            for j in range(i + 1, 3):
                diffs = [abs(x - y) for x, y in zip(vals[i], vals[j])]
                assert max(diffs) > 1e-3


class TestHeavisideQft:
    def test_upper_step_on_its_half_plane(self):
        np.testing.assert_allclose(heaviside_qft(1, 1.5, up(2j)), 1.0, rtol=1e-14)

    def test_upper_step_opposite_half_plane(self):
        assert heaviside_qft(1, 1.5, down(-2j)) == 0j

    def test_lower_step_on_its_half_plane(self):
        np.testing.assert_allclose(heaviside_qft(-1, 1.5, down(-2j)), -1.0,
                                   rtol=1e-14)

    def test_real_limit_value(self):
        np.testing.assert_allclose(heaviside_qft(1, 1.5, up(2.0)), 1j, rtol=1e-14)

    @pytest.mark.parametrize("point", [up(2j), down(-2j), up(3.0), down(-1.0)])
    def test_additivity_gives_constant_representation(self, point):
        q = 1.4
        total = heaviside_qft(1, q, point) + heaviside_qft(-1, q, point)
        np.testing.assert_allclose(total, 1j / ((2.0 - q) * point.k), rtol=1e-14)

    @pytest.mark.parametrize("point", [up(0.0), down(0.0)])
    def test_pole_at_zero(self, point):
        with pytest.raises(PoleError):
            heaviside_qft(1, 1.5, point)

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_bad_sign(self, sign):
        with pytest.raises(ValueError):
            heaviside_qft(sign, 1.5, up(1.0))

    @pytest.mark.parametrize("q", [1.2, 1.8])
    def test_quadrature_cross_check(self, q):
        vq, _ = qft_complex(Heaviside(), q, up(1.0), CFG)
        np.testing.assert_allclose(heaviside_qft(1, q, up(1.0)), vq, rtol=1e-8)


class TestDeltaWeight:
    @pytest.mark.parametrize("q, expected", [
        (1.5, 4.0 * math.pi),
        (1.0, 2.0 * math.pi),
        (1.9, 20.0 * math.pi),
    ])
    def test_values(self, q, expected):
        np.testing.assert_allclose(constant_qft_delta_weight(q), expected,
                                   rtol=1e-12)

    @pytest.mark.parametrize("q", [0.9, 2.0, 2.5])
    def test_domain(self, q):
        with pytest.raises(ValueError):
            constant_qft_delta_weight(q)
