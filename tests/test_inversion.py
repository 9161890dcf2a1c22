import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import qfourier.inversion as inversion
from qfourier.errors import AliasingError, InversionDomainError, LimitFailureError
from qfourier.inversion import EpsilonSchedule, InversionResult, inverse_ft, q1_slice, roundtrip
from qfourier.closedform import hilhorst_lambda
from qfourier.transform import (
    Constant,
    FunctionSpec,
    Gaussian,
    Heaviside,
    PowerLaw,
    QGaussian,
    QuadratureConfig,
    Sampled,
    qft_real_line,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def classical_gaussian(k):
    return SQRT_2PI * np.exp(-np.asarray(k, dtype=float) ** 2 / 2.0)


class Bell(FunctionSpec):
    """A user's own Gaussian-shaped density, declared from FunctionSpec."""

    kind = "bell"

    def __init__(self, width):
        self.width = width

    def values(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x / (2.0 * self.width ** 2))

    def support(self):
        return (-math.inf, math.inf)

    def peak_value(self):
        return 1.0

    def tail_exponent(self):
        return math.inf

    def length_scale(self):
        return self.width


class Box(FunctionSpec):
    """README's example density: f = 1 on [-c, c]."""

    kind = "box"

    def __init__(self, c):
        self.c = c

    def values(self, x):
        return (np.abs(np.asarray(x, dtype=float)) <= self.c).astype(float)

    def support(self):
        return (-self.c, self.c)

    def peak_value(self):
        return 1.0

    def tail_exponent(self):
        return None

    def jump_points(self):
        return (-self.c, self.c)


def assert_same_roundtrip(r1, r2):
    assert r1.x_grid.tobytes() == r2.x_grid.tobytes()
    assert r1.f_rec.tobytes() == r2.f_rec.tobytes()
    assert r1.residual == r2.residual


class TestEpsilonSchedule:
    def test_defaults(self):
        s = EpsilonSchedule()
        assert s.eps_list == (1e-2, 1e-3, 1e-4)
        assert s.extrapolation == "richardson"

    @pytest.mark.parametrize("eps, extr", [
        ((1e-3, 1e-2), "richardson"),
        ((1e-2, 1e-2), "richardson"),
        ((0.6, 1e-3), "none"),
        ((1e-2, -1e-3), "none"),
        ((), "none"),
        ((1e-2, 1e-3), "quadratic"),
        ((1e-3,), "richardson"),
    ])
    def test_rejects(self, eps, extr):
        with pytest.raises(ValueError):
            EpsilonSchedule(eps, extr)

    def test_single_eps_without_extrapolation(self):
        s = EpsilonSchedule((1e-3,), "none")
        assert s.eps_list == (1e-3,)


class TestInversionResult:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            InversionResult(np.zeros(3), np.zeros(4), 0.0)

    def test_negative_residual(self):
        with pytest.raises(ValueError):
            InversionResult(np.zeros(3), np.zeros(3), -1.0)

    def test_diagnostics_length_mismatch(self):
        with pytest.raises(ValueError):
            InversionResult(np.zeros(3), np.zeros(3), 0.0,
                            slice_diagnostics={1e-3: np.zeros(2)},
                            probe_k=np.zeros(3))


class TestQ1Slice:
    def test_zero_k_gives_total_mass(self):
        v = q1_slice(Gaussian(1.0), [0.0])
        np.testing.assert_allclose(v, [SQRT_2PI], rtol=1e-9)

    def test_gaussian_classical_value(self):
        v = q1_slice(Gaussian(1.0), [1.0])
        np.testing.assert_allclose(v, [SQRT_2PI * math.exp(-0.5)], atol=1e-5)

    def test_extrapolation_beats_last_slice(self):
        target = SQRT_2PI * math.exp(-0.5)
        rich = q1_slice(Gaussian(1.0), [1.0])[0]
        last = q1_slice(Gaussian(1.0), [1.0],
                        EpsilonSchedule((1e-2, 1e-3, 1e-4), "none"))[0]
        assert abs(rich - target) < abs(last - target)
        assert abs(last - target) < 2e-4

    def test_powerlaw_against_direct_quadrature(self):
        re = quad(lambda x: math.cos(x) / x ** 2, 1.0, 2.0)[0]
        im = quad(lambda x: math.sin(x) / x ** 2, 1.0, 2.0)[0]
        v = q1_slice(PowerLaw(1.0, 2.0, 1.0, 2.0), [1.0])[0]
        np.testing.assert_allclose(v, re + 1j * im, atol=1e-6)

    @pytest.mark.parametrize("f", [Heaviside(), Heaviside(-1), Constant(1.0)])
    def test_non_integrable_rejected(self, f):
        with pytest.raises(InversionDomainError):
            q1_slice(f, [1.0])

    def test_divergent_trend_detected(self, monkeypatch):
        def fake(f, q, k, cfg=None):
            k = np.asarray(k)
            return np.full(k.shape, 1.0 / (q - 1.0) + 0j), np.zeros(k.shape)

        monkeypatch.setattr(inversion, "qft_real_line", fake)
        with pytest.raises(LimitFailureError):
            q1_slice(Gaussian(1.0), [1.0])

    def test_bad_k_grid(self):
        with pytest.raises(ValueError):
            q1_slice(Gaussian(1.0), [])
        with pytest.raises(ValueError):
            q1_slice(Gaussian(1.0), [math.nan])

    @pytest.mark.parametrize("k_grid, first", [
        (["1", "2"], "'1'"), (np.array([True, False]), "True"),
        (np.array([0.5, "2"], dtype=object), "'2'"), ([0.5, math.inf], "inf"),
    ], ids=["str", "bool", "object", "inf"])
    def test_k_grid_is_refused_in_the_scalar_words(self, k_grid, first):
        # numpy's float conversion would take "1" and True as k = 1
        with pytest.raises(ValueError) as info:
            q1_slice(Gaussian(1.0), k_grid)
        assert str(info.value) == f"k must be finite, got {first}"

    @pytest.mark.parametrize("k_grid", [[0.5 + 0.1j, 1.0],
                                        np.array([1.0 + 0j])])
    def test_complex_k_grid_is_refused(self, k_grid):
        with pytest.raises(ValueError, match="k must be real"):
            q1_slice(Gaussian(1.0), k_grid)

    def test_sifting_matches_narrow_mollifier(self):
        # point evaluation at q = 1 + eps vs a width-1e-4 average around it
        f, k, eps, width = Gaussian(1.0), 1.0, 1e-3, 1e-4
        point = qft_real_line(f, 1.0 + eps, k)[0]
        nodes, wts = np.polynomial.legendre.leggauss(5)
        qs = 1.0 + eps + 0.5 * width * nodes
        avg = sum(w * qft_real_line(f, qv, k)[0] for qv, w in zip(qs, wts)) / 2.0
        assert abs(avg - point) < 1e-6

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_error_decreases_along_schedule(self, k):
        target = classical_gaussian(k)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            sched = EpsilonSchedule((eps,), "none")
            errs.append(abs(q1_slice(Gaussian(1.0), [k], sched)[0] - target))
        assert errs[0] > errs[1] > errs[2]


def trapezoid_reference(G, k, x):
    """inverse_ft's integral by np.trapezoid over the complex exponential."""
    return np.trapezoid(G[None, :] * np.exp(-1j * np.outer(x, k)), k,
                        axis=1).real / (2.0 * math.pi)


def nonuniform_spectrum():
    """A Hermitian spectrum on a symmetric k grid of uneven steps."""
    rng = np.random.default_rng(11)
    half = np.cumsum(rng.uniform(0.02, 0.06, 400))
    k = np.concatenate([-half[::-1], [0.0], half])
    G = np.exp(-k * k / 8.0 + 0.7j * k) + 0.3 * np.sinc(k)
    return G, k


def full_trig(G, k, x):
    """inverse_ft with its half-angle trig taken over the whole of k in one
    block: the reference for its bits."""
    t = np.tan(0.5 * np.outer(x, k))
    u = 2.0 / (1.0 + t * t)
    c, s = u - 1.0, t * u
    g = G * inversion.trapezoid_weights(np.diff(k))
    vals = np.empty(x.size, dtype=complex)
    vals.real = np.add.reduce(c * g.real + s * g.imag, axis=-1)
    vals.imag = np.add.reduce(c * g.imag - s * g.real, axis=-1)
    vals /= 2.0 * math.pi
    return vals.real


def cos_sin_sum(G, k, x):
    """inverse_ft's sum with np.cos and np.sin, its arithmetic before the
    half-angle trig, and the sum of |G| times the trapezoid weights."""
    ph = np.outer(x, k)
    g = G * inversion.trapezoid_weights(np.diff(k))
    c, s = np.cos(ph), np.sin(ph)
    vals = np.add.reduce(c * g.real + s * g.imag, axis=-1) / (2.0 * math.pi)
    return vals, float(np.sum(np.abs(g)))


def hermitian(k, rng):
    G = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
    return 0.5 * (G + np.conj(G[::-1]))


class TestInverseFT:
    @pytest.mark.parametrize("n", [2, 3, 40, 41, 801])
    def test_mirrored_trig_is_the_full_grid_bitwise(self, n):
        # an exactly symmetric grid, odd or even, of uneven steps
        rng = np.random.default_rng(n)
        half = np.cumsum(rng.uniform(0.02, 0.06, n // 2))
        k = np.concatenate([-half[::-1], [0.0] * (n % 2), half])
        G = hermitian(k, rng)
        x = np.linspace(-25.0, 20.0, 57)
        assert inverse_ft(G, k, x).tobytes() == full_trig(G, k, x).tobytes()

    @pytest.mark.parametrize("shift", [0.0, 1e-6])
    # the shifted grid's trapezoid weights are no longer symmetric, so the
    # result carries an imaginary residue above the warning's threshold
    @pytest.mark.filterwarnings("ignore:imaginary residue")
    def test_nearly_symmetric_grid_takes_its_own_trig(self, shift):
        # np.linspace's two halves differ in the last bits; a shift of the
        # negative half by 1e-6 relative still passes the symmetry check
        k = np.linspace(-7.3, 7.3, 2452)
        k[:1226] *= 1.0 + shift
        assert not np.array_equal(k, -k[::-1])
        G = hermitian(k, np.random.default_rng(3))
        x = np.linspace(-400.0, 300.0, 41)
        got = inverse_ft(G, k, x)
        # not the mirrored half, whose phases would be off by up to
        # x * shift * k, about 3e-3 rad here
        assert got.tobytes() == full_trig(G, k, x).tobytes()

    def test_matches_the_cos_sin_sum(self):
        # the power-law window's grid: |k| up to 4096 at roundtrip's step
        # for a reach of 3.5, so the phases kx reach 1.4e4; G is the
        # spectrum of the indicator of [1, 2]
        dk = 0.75 * math.pi / 3.5
        half = dk * np.arange(int(math.ceil(4096.0 / dk)) + 1)
        k = np.concatenate([-half[:0:-1], half])
        kk = np.where(k == 0.0, 1.0, k)
        G = np.where(k == 0.0, 1.0,
                     (np.exp(2j * kk) - np.exp(1j * kk)) / (1j * kk))
        x = np.linspace(-0.5, 3.5, 97)
        want, total = cos_sin_sum(G, k, x)
        got = inverse_ft(G, k, x)
        assert np.max(np.abs(got - want)) <= 1e-14 * total

    def test_matches_trapezoid_reference(self):
        G, k = nonuniform_spectrum()
        x = np.linspace(-10.0, 10.0, 333)
        want = trapezoid_reference(G, k, x)
        got = inverse_ft(G, k, x)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(want)))

    def test_bits_do_not_depend_on_the_block(self, monkeypatch):
        G, k = nonuniform_spectrum()
        x = np.linspace(-10.0, 10.0, 333)
        vals = inverse_ft(G, k, x)
        assert np.array_equal(inverse_ft(G, k, x), vals)
        for i in range(0, 333, 17):
            assert inverse_ft(G, k, [x[i]])[0] == vals[i]
        assert np.array_equal(inverse_ft(G, k, x[3:50]), vals[3:50])
        for block in (1, 5, 1000):
            monkeypatch.setattr(inversion, "_X_BLOCK", block)
            assert np.array_equal(inverse_ft(G, k, x), vals)

    def test_gaussian_pair(self):
        k = np.linspace(-40.0, 40.0, 1601)
        x = np.linspace(-5.0, 5.0, 201)
        f = inverse_ft(classical_gaussian(k).astype(complex), k, x)
        assert np.max(np.abs(f - np.exp(-x ** 2 / 2.0))) < 1e-6

    def test_zero_spectrum(self):
        k = np.linspace(-10.0, 10.0, 81)
        f = inverse_ft(np.zeros(81, dtype=complex), k, np.linspace(-2, 2, 11))
        assert np.all(f == 0.0)

    def test_single_point(self):
        k = np.linspace(-40.0, 40.0, 1601)
        f = inverse_ft(classical_gaussian(k).astype(complex), k, [0.0])
        np.testing.assert_allclose(f, [1.0], atol=1e-9)

    @given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, alpha, beta):
        rng = np.random.default_rng(7)
        k = np.linspace(-5.0, 5.0, 41)
        half = rng.normal(size=20) + 1j * rng.normal(size=20)
        mid = rng.normal()
        g1 = np.concatenate([np.conj(half[::-1]), [mid], half])
        half2 = rng.normal(size=20) + 1j * rng.normal(size=20)
        g2 = np.concatenate([np.conj(half2[::-1]), [rng.normal()], half2])
        x = np.linspace(-0.5, 0.5, 9)
        lhs = inverse_ft(alpha * g1 + beta * g2, k, x)
        rhs = alpha * inverse_ft(g1, k, x) + beta * inverse_ft(g2, k, x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_asymmetric_grid_rejected(self):
        k = np.linspace(-4.0, 5.0, 10)
        with pytest.raises(ValueError):
            inverse_ft(np.ones(10, dtype=complex), k, [0.0])

    def test_unsorted_grid_rejected(self):
        k = np.array([-1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            inverse_ft(np.ones(3, dtype=complex), k, [0.0])

    def test_nyquist_violation(self):
        k = np.linspace(-10.0, 10.0, 41)  # dk = 0.5, bound pi/dk ~ 6.28
        with pytest.raises(AliasingError):
            inverse_ft(np.ones(41, dtype=complex), k, [10.0])

    def test_imaginary_residue_warns(self):
        k = np.linspace(-10.0, 10.0, 401)
        g = np.exp(-(k - 1.0) ** 2 / 2.0).astype(complex)  # not Hermitian
        with pytest.warns(UserWarning, match="imaginary residue"):
            inverse_ft(g, k, np.linspace(-1, 1, 5))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inverse_ft(np.ones(5, dtype=complex), np.linspace(-1, 1, 7), [0.0])

    def test_empty_x_grid(self):
        with pytest.raises(ValueError, match="x_grid must not be empty"):
            inverse_ft(np.ones(5, dtype=complex), np.linspace(-1, 1, 5), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_spectrum(self, bad):
        g = np.ones(5, dtype=complex)
        g[3] = bad
        with pytest.raises(ValueError, match="inputs must be finite"):
            inverse_ft(g, np.linspace(-1, 1, 5), [0.0])


@pytest.fixture()
def slice_sizes(monkeypatch):
    """The k grid size of every slice roundtrip takes, in call order."""
    sizes = []

    def spy(f, q, k, cfg=None):
        sizes.append(np.size(k))
        return qft_real_line(f, q, k, cfg)

    monkeypatch.setattr(inversion, "qft_real_line", spy)
    return sizes


class TestRoundtrip:
    def test_gaussian_default_grids(self):
        r = roundtrip(Gaussian(1.0))
        assert r.residual < 1e-3
        assert r.x_grid.shape == r.f_rec.shape
        assert sorted(r.slice_diagnostics) == [1e-4, 1e-3, 1e-2]
        assert r.probe_k.size == 3
        for vals in r.slice_diagnostics.values():
            assert len(vals) == r.probe_k.size

    def test_gaussian_probe_slices_approach_classical(self):
        r = roundtrip(Gaussian(1.0))
        target = classical_gaussian(r.probe_k)
        errs = [np.max(np.abs(r.slice_diagnostics[eps] - target))
                for eps in (1e-2, 1e-3, 1e-4)]
        assert errs[0] > errs[1] > errs[2]

    def test_powerlaw_outside_jump_windows(self):
        r = roundtrip(PowerLaw(1.0, 2.0, 1.0, 2.0),
                      sched=EpsilonSchedule((1e-4,), "none"))
        assert r.residual < 1e-2

    def test_powerlaw_richardson_path_stays_in_budget(self):
        # extrapolation mixes in the eps = 1e-3 slice, whose mollification
        # width is comparable to the jump window; still inside the budget
        # for a unit jump
        r = roundtrip(PowerLaw(1.0, 2.0, 1.0, 2.0),
                      sched=EpsilonSchedule((1e-3, 1e-4)))
        assert r.residual < 1e-2

    def test_collision_members_recover_distinct_functions(self):
        # both members share one transform at q0 = 1.5; near q = 1 they
        # separate and the round trip returns each one's own profile
        lam = hilhorst_lambda(1.0, 2.0, 1.5)
        x = np.linspace(-0.5, 5.5, 601)
        sched = EpsilonSchedule((1e-4,), "none")
        r1 = roundtrip(PowerLaw(lam, 2.0, 1.0, 2.0), sched=sched, x_grid=x)
        r2 = roundtrip(PowerLaw(lam, 2.0, 4.0 / 3.0, 4.0), sched=sched,
                       x_grid=x)
        assert r1.residual < 1e-2
        assert r2.residual < 1e-2
        assert np.max(np.abs(r1.f_rec - r2.f_rec)) > 1.0

    @pytest.mark.parametrize("f", [Heaviside(), Constant(2.0)])
    def test_rejects_non_integrable(self, f):
        with pytest.raises(InversionDomainError):
            roundtrip(f)

    @pytest.mark.parametrize("x_grid", [[0.0, np.nan], [-np.inf, 1.0]])
    def test_non_finite_x_grid(self, x_grid):
        with pytest.raises(ValueError, match="x_grid must be nonempty and finite"):
            roundtrip(Gaussian(1.0), x_grid=x_grid)

    @pytest.mark.parametrize("k_max", [math.inf, math.nan, 0.1])
    def test_k_max_must_be_finite_and_reach_dk(self, k_max):
        # an infinite k_max would ask for an infinite k grid; a k_max
        # that is not finite is refused as every scalar input is
        msg = ("need 0 < dk <= k_max < inf" if math.isfinite(k_max)
               else f"k_max must be finite, got {k_max!r}")
        with pytest.raises(ValueError, match=msg):
            roundtrip(Gaussian(1.0), k_max=k_max, dk=0.25)
        if k_max == math.inf:
            with pytest.raises(ValueError, match=msg):
                roundtrip(Gaussian(1.0), k_max=k_max)

    def test_explicit_grid_controls(self):
        r = roundtrip(Gaussian(1.0), x_grid=np.linspace(-3, 3, 61),
                      k_max=10.0, dk=0.25)
        assert r.residual < 1e-3
        assert r.x_grid.size == 61

    def test_narrow_grid_keeps_the_images_off_a_wide_f(self):
        # at the old step of 0.4 the images of f sat 2 pi / 0.4 = 15.7 apart,
        # on f's own mass, and the residual was 1.7e-2
        r = roundtrip(Gaussian(5.0), x_grid=np.linspace(-1.0, 1.0, 41))
        assert r.residual <= 1e-6

    def test_step_follows_the_reach_of_f(self, slice_sizes):
        # the window's default grid [-0.5, 3.5] has half-span 2 about
        # x0 = 1.5, so dk = 0.75 pi / 2 up to k_max = 490: 417 k values
        # where its reach of 3.5 from 0 gave 729 and the 0.4 cap 1226
        roundtrip(PowerLaw(1.0, 2.0, 1.0, 2.0),
                  EpsilonSchedule((1e-4,), "none"))
        assert slice_sizes == [417]

    @pytest.mark.parametrize("f, sched", [
        (Gaussian(0.2), None),
        (Box(1.0), EpsilonSchedule((1e-4,), "none")),
        (QGaussian(0.5, 1.0), None),
        (PowerLaw(1.0, 2.0, 1.0, 2.0), EpsilonSchedule((1e-4,), "none")),
    ], ids=["gaussian", "box", "qgaussian", "powerlaw"])
    def test_default_step_is_as_accurate_as_the_capped_one(self, f, sched):
        x = inversion._default_x_grid(f)
        capped = min(0.4, 0.75 * math.pi / float(np.max(np.abs(x))))
        r = roundtrip(f, sched)
        assert r.residual <= 1.001 * roundtrip(f, sched, dk=capped).residual

    @pytest.mark.parametrize("f, sched", [
        (Gaussian(1.0), None),
        (QGaussian(1.5, 1.0), None),
        (Box(1.0), EpsilonSchedule((1e-4,), "none")),
    ], ids=["gaussian", "qgaussian", "box"])
    def test_centred_f_is_not_shifted(self, f, sched):
        # symmetric grids put x0 at 0: the plain mirrored inverse at the
        # step 0.75 pi / max|x|, bit for bit
        r = roundtrip(f, sched)
        sched = sched if sched is not None else EpsilonSchedule()
        x = inversion._default_x_grid(f)
        step = 0.75 * math.pi / float(np.max(np.abs(x)))
        km = inversion._default_k_max(f, sched.eps_list[-1])
        kn = step * np.arange(int(math.ceil(km / step)) + 1)
        g = q1_slice(f, kn, sched)
        f_rec = inverse_ft(np.concatenate([np.conj(g[:0:-1]), g]),
                           np.concatenate([-kn[:0:-1], kn]), x)
        assert r.x_grid.tobytes() == x.tobytes()
        assert r.f_rec.tobytes() == f_rec.tobytes()

    @pytest.mark.parametrize("sched", [
        None, EpsilonSchedule((1e-4,), "none")], ids=["default", "fine"])
    @pytest.mark.parametrize("window", [
        (1.0, 2.0, 1.0, 2.0), (1.0, 1.0, 0.5, 3.0), (2.0, 3.0, 2.0, 5.0),
        (1.0, 0.5, 4.0, 4.5), (1.0, 2.0, 0.2, 0.5), (1.0, 2.0, 3.0, 3.5),
    ], ids=str)
    def test_off_centre_window_is_as_accurate_as_the_reach_step(self, window,
                                                                sched):
        # about x0 the step follows the half-span of the grid; the reach
        # from 0 gave the finer step 0.75 pi / max|x|
        f = PowerLaw(*window)
        x = inversion._default_x_grid(f)
        assert x[0] + x[-1] != 0.0
        reach_step = 0.75 * math.pi / float(np.max(np.abs(x)))
        r = roundtrip(f, sched)
        assert r.residual <= 1.001 * roundtrip(f, sched,
                                               dk=reach_step).residual

    @pytest.mark.parametrize("sched, bound", [
        (None, 1.50e-4), (EpsilonSchedule((1e-4,), "none"), 2.50e-2),
    ], ids=["default", "fine"])
    def test_window_jumping_below_the_k_max_floor(self, sched, bound):
        # _default_k_max sizes k_max by the jump at x = 0.1 itself, so the
        # slice is damped at k_max (1.492e-4 and 2.495e-2); a k_max sized
        # for a jump at 0.25 leaves truncation ripple near x = 0.15, where
        # f is about 44 (1.322e-2 and 3.317e-2)
        f = PowerLaw(1.0, 2.0, 0.1, 0.3)
        assert roundtrip(f, sched).residual <= bound

    @pytest.mark.parametrize("x_grid", [
        np.linspace(-4.0, 0.0, 81), np.linspace(2.0, 9.0, 141),
    ], ids=["left", "right"])
    def test_no_input_takes_more_k_points(self, slice_sizes, x_grid):
        # an x grid beside f's own grid takes fewer k points: half the
        # joint span about its midpoint is below the reach from 0
        f = PowerLaw(1.0, 2.0, 3.0, 3.5)
        roundtrip(f, EpsilonSchedule((1e-4,), "none"), x_grid=x_grid)
        reach = max(float(np.max(np.abs(x_grid))),
                    float(np.max(np.abs(inversion._default_x_grid(f)))))
        step = 0.75 * math.pi / reach
        km = inversion._default_k_max(f, 1e-4)
        assert slice_sizes[0] < int(math.ceil(km / step)) + 1

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            roundtrip(Gaussian(1.0), k_max=1.0, dk=2.0)

    def test_custom_density_gets_default_grids(self):
        # the default grids come from the FunctionSpec methods, so a
        # density the library does not know inverts like its twin
        assert_same_roundtrip(roundtrip(Bell(0.7)), roundtrip(Gaussian(0.7)))

    def test_qgaussian_at_q1_is_the_gaussian(self):
        # beta_g = 1/2 is sigma = 1: same values, length scale and grids
        assert_same_roundtrip(roundtrip(QGaussian(1.0, 0.5)),
                              roundtrip(Gaussian(1.0)))

    def test_sampled_end_jumps_size_the_k_range(self):
        # a nonzero end sample is a jump: k_max follows it, and the residual
        # leaves its window out (0.497 at x = 1.5 with the k_max = 40 default)
        f = Sampled([0.5, 1.5], [1.0, 1.0])
        assert f.jump_points() == (0.5, 1.5)
        r = roundtrip(f, EpsilonSchedule((1e-4,), "none"))
        assert r.residual < 1e-3

    @pytest.mark.parametrize("x_jump, k_max", [
        (0.0, math.sqrt(24e4) / 0.25), (1e-300, 4096.0), (0.1, 4096.0),
        (0.25, math.sqrt(24e4) / 0.25), (2.0, math.sqrt(24e4) / 2.0)])
    def test_k_max_follows_the_nearest_jump(self, x_jump, k_max):
        # sqrt(24/eps)/|x_j| at eps = 1e-4, capped at 4096; a jump at
        # x = 0 (never damped) is sized as one at 0.25
        f = Sampled([x_jump, 3.0], [1.0, 1.0])
        assert f.jump_points()[0] == x_jump
        assert inversion._default_k_max(f, 1e-4) == pytest.approx(
            k_max, rel=1e-15)

    @pytest.mark.parametrize("f, k_max, n_k, bound", [
        (Sampled([0.0, 1.0], [1.0, 1.0]), math.sqrt(24e4) / 0.25, 1665,
         2.75e-3),
        (PowerLaw(1.0, 2.0, 0.1, 0.3), 4096.0, 2783, 2.50e-2)],
        ids=["at-0", "near-0"])
    def test_k_range_of_a_jump_near_zero(self, slice_sizes, f, k_max, n_k,
                                         bound):
        # a jump at x = 0 takes k_max = sqrt(24/eps)/0.25: the 4096 cap
        # took 3478 k values for residual 1.379e-3 (2.746e-3 here), and on
        # the default schedule 6.064e-3 against 6.018e-3 here. A jump at
        # 0 < |x| < 0.25 keeps its own |x|, here past the cap
        sched = EpsilonSchedule((1e-4,), "none")
        assert inversion._default_k_max(f, 1e-4) == pytest.approx(
            k_max, rel=1e-15)
        assert roundtrip(f, sched).residual <= bound
        assert slice_sizes == [n_k]

    def test_sampled_jump_points_are_the_nonzero_ends(self):
        assert Sampled([-1.0, 0.0, 2.0], [0.0, 1.0, 0.5]).jump_points() \
            == (2.0,)
        assert Sampled([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]).jump_points() == ()

    def test_qgaussian_algebraic_tail_grid(self):
        # f(edge) = 1e-5: edge^2 = (1e-5^(1-q_g) - 1) / ((q_g - 1) beta_g)
        r = roundtrip(QGaussian(1.5, 1.0))
        edge = math.sqrt((1e-5 ** -0.5 - 1.0) / 0.5)
        assert r.x_grid.size == 801
        np.testing.assert_allclose([r.x_grid[0], r.x_grid[-1]],
                                   [-edge, edge], rtol=1e-14)
        np.testing.assert_allclose(edge, 25.108873571581736, rtol=1e-14)
        assert r.residual < 1e-5
