import heapq
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P
from scipy import integrate

from qfourier import quadrature, transform
from qfourier.quadrature import adaptive_quad, gk15_panel, graded_line_nodes
from qfourier.transform import Gaussian, PowerLaw


def one_panel(func, a, b):
    """gk15_panel on the single panel [a, b] of row 0."""
    v, e = gk15_panel(lambda x, rows: func(x), [a], [b], np.array([0]))
    return v[0], e[0]


class TestPanelRule:
    def test_degree_20_monomial_is_near_exact(self):
        # the 15-point rule integrates x^20 on [-1,1] far better than
        # a composite scheme would; this pins the node/weight table
        v, _ = one_panel(lambda x: x ** 20, -1.0, 1.0)
        np.testing.assert_allclose(v, 2.0 / 21.0, rtol=1e-14)

    def test_weights_sum_to_interval_length(self):
        v, e = one_panel(lambda x: np.ones_like(x), 2.0, 5.0)
        np.testing.assert_allclose(v, 3.0, rtol=1e-15)
        assert e < 1e-12

    def test_error_estimate_bounds_true_error(self):
        v, e = one_panel(lambda x: np.cos(x ** 2), 0.0, 3.0)
        exact, _ = integrate.quad(lambda x: np.cos(x ** 2), 0.0, 3.0,
                                  epsabs=1e-13, epsrel=1e-13)
        assert abs(v - exact) <= 10 * max(e, 1e-15)

    @given(coeffs=st.lists(st.floats(-4, 4), min_size=1, max_size=11))
    @settings(max_examples=150, deadline=None)
    def test_polynomials_integrate_exactly(self, coeffs):
        c = np.array(coeffs)
        v, _ = one_panel(lambda x: P.polyval(x, c), -1.0, 1.0)
        ci = P.polyint(c)
        exact = P.polyval(1.0, ci) - P.polyval(-1.0, ci)
        np.testing.assert_allclose(v, exact, rtol=1e-12,
                                   atol=1e-12 * (1 + np.abs(c).sum()))


def scalar_sharpen(diff, resasc, resabs):
    """QUADPACK's error sharpening of one panel, in scalar float arithmetic,
    with the 1.5 power taken as r * sqrt(r)."""
    err = diff
    if resasc != 0.0 and diff != 0.0:
        r = 200.0 * diff / resasc
        err = resasc * min(1.0, r * math.sqrt(r))
    if resabs > 0.0:
        err = max(err, 50.0 * np.finfo(float).eps * resabs)
    return err


# (diff, resasc, resabs) at the edges of the sharpening
SHARPEN_EDGES = [
    (0.0, 1.0, 1.0),                        # diff = 0
    (0.0, 0.0, 0.0),
    (1e-3, 0.0, 1.0),                       # resasc = 0
    (1e-3, 0.0, 0.0),
    (1.0, 1.0, 1.0),                        # ratio >= 1
    (0.005, 1.0, 2.0),                      # ratio exactly 1
    (1e300, 1e-300, 1.0),                   # ratio overflows to inf
    (math.nextafter(0.005, 0.0), 1.0, 1.0), # ratio just below 1
    (0.004999, 1.0, 1.0),
    (1e-9, 0.3, 0.0),                       # resabs = 0: no floor
    (1e-20, 0.3, 0.7),                      # the floor wins
    (1e-20, math.inf, 1.0),                 # resasc inf: inf * 0
    (1e-9, 0.3, math.inf),                  # the floor is inf
    (math.nan, 0.3, 0.7),                   # NaN in each place
    (1e-9, math.nan, 0.7),
    (1e-9, 0.3, math.nan),
    (math.nan, math.nan, math.nan),
]


def one_row(func, a, b, panels=None, **kw):
    """adaptive_quad on the single row [a, b] of func(x), seeded with panels
    equal panels: (value, err, why)."""
    seeds = {} if panels is None else {"panels": np.array([panels])}
    values, errs, why = adaptive_quad(lambda x, rows: func(x), np.array([a]),
                                      np.array([b]), **seeds, **kw)
    return values[0], errs[0], why[0]


def converged(func, a, b, **kw):
    """one_row's (value, err), requiring the row to reach tolerance."""
    v, e, why = one_row(func, a, b, **kw)
    assert why is None, why
    return v, e


class TestPanelErrors:
    """gk15_panel's err is the scalar QUADPACK sharpening, bit for bit, for
    calls short enough to loop and long enough to go through numpy."""

    @staticmethod
    def same_bits(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("copies", [1, quadrature._LOOP_BELOW],
                             ids=["loop", "array"])
    def test_edges_match_scalar_sharpening(self, copies):
        assert len(SHARPEN_EDGES) < quadrature._LOOP_BELOW
        diff, resasc, resabs = (np.array(col * copies) for col in
                                zip(*SHARPEN_EDGES))
        want = [scalar_sharpen(*t) for t in
                zip(diff.tolist(), resasc.tolist(), resabs.tolist())]
        self.same_bits(quadrature._panel_errs(diff, resasc, resabs), want)

    @given(st.lists(st.tuples(*[st.just(0.0) | st.floats(1e-100, 1e3)] * 3),
                    min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_random_triples_match_scalar_sharpening(self, triples):
        diff, resasc, resabs = (np.array(col) for col in zip(*triples))
        self.same_bits(quadrature._panel_errs(diff, resasc, resabs),
                       [scalar_sharpen(*t) for t in triples])

    def test_sqrt_power_is_within_an_ulp_of_pow(self):
        # sqrt is correctly rounded everywhere, so r * sqrt(r) has the same
        # bits in the loop and in numpy, where numpy's vector pow may not
        r = 10.0 ** np.random.default_rng(9).uniform(-200.0, 0.0, 100_000)
        want = np.array([t ** 1.5 for t in r.tolist()])
        got = r * np.sqrt(r)
        assert got.tolist() == [t * math.sqrt(t) for t in r.tolist()]
        assert np.all(np.abs(got - want) <= np.spacing(want))

    def test_many_panels_are_the_lone_panels(self):
        # a call of _SEED_CHUNK panels, the largest one the quadrature
        # makes, goes through the array sharpening; one panel through the
        # loop; both take their sums from the same reduction
        n = quadrature._SEED_CHUNK
        edges = np.linspace(0.0, 20.0, n + 1)
        for f in (lambda x: np.exp(1j * x * x) / (1.0 + x),
                  lambda x: np.cos(x * x) / (1.0 + x)):
            v, e = gk15_panel(lambda x, rows: f(x), edges[:-1], edges[1:],
                              np.zeros(n, dtype=int))
            lone = [one_panel(f, lo, hi)
                    for lo, hi in zip(edges[:-1], edges[1:])]
            assert v.tolist() == [t[0] for t in lone]
            assert e.tolist() == [t[1] for t in lone]


class TestPanelMemory:
    """gk15_panel leaves its inputs alone, and a seed chunk of the kernel
    integrand holds no more full-size arrays at once than it did when
    pinned."""

    def test_limits_and_rows_left_alone(self):
        a0 = np.linspace(0.0, 2.0, 41)[:-1]
        b0 = a0 + 0.05
        rows0 = np.arange(40) % 3
        a, b, rows = a0.copy(), b0.copy(), rows0.copy()
        seen = []

        def func(x, r):
            y = np.exp(1j * x) + r[:, None]
            seen.append((x, y, y.copy()))
            return y

        gk15_panel(func, a, b, rows)
        assert (a.tobytes(), b.tobytes(), rows.tobytes()) == \
            (a0.tobytes(), b0.tobytes(), rows0.tobytes())
        (x, y, y0), = seen
        assert y.tobytes() == y0.tobytes()
        assert not (np.shares_memory(x, a) or np.shares_memory(x, b))

    # tracemalloc peak of one _SEED_CHUNK-panel call, in bytes per node,
    # on numpy 2.4: one full-size float array is 8 bytes per node, a
    # complex one 16. Before the in-place panel sums, integrand and
    # densities these read 74.1 and 98.1
    @pytest.mark.skipif(not np.__version__.startswith("2.4."),
                        reason="pinned on numpy 2.4's allocations")
    @pytest.mark.parametrize("f, im, reflect, pinned", [
        (PowerLaw(1.0, 2.0, 1.0, 2.0), 0.0, False, 50.1),
        (Gaussian(1.0), -0.5, True, 75.1)], ids=["powerlaw", "gaussian"])
    def test_seed_chunk_peak(self, f, im, reflect, pinned):
        n = quadrature._SEED_CHUNK
        k = np.linspace(0.5, 40.0, 16) + 1j * im
        g = transform._kernel_integrand(f, 1.0001, k, reflect)
        j = np.arange(n)
        lo, hi, rows = j * (2.0 / n), (j + 1) * (2.0 / n), j % k.size
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            gk15_panel(g, lo, hi, rows)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                gk15_panel(g, lo, hi, rows)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak / (15 * n) <= pinned + 0.5


def signed_zeros(rng, shape):
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


class TestColumnSums:
    """gk15_panel has the same bits with its error sharpening in the loop
    and in numpy, signed zeros and sums over 16 decades included."""

    @staticmethod
    def samples(kind, shape, rng):
        if kind == "zeros":
            return np.zeros(shape, dtype=complex)
        if kind == "signed zeros":
            return signed_zeros(rng, shape) + 1j * signed_zeros(rng, shape)
        # magnitudes over 16 decades
        scale = 10.0 ** rng.integers(-8, 8, shape)
        y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        y *= scale
        y[0] = -0.0
        y[1, :7] = signed_zeros(rng, 7)
        return y

    @pytest.mark.parametrize("kind", ["random", "zeros", "signed zeros"])
    def test_column_path_is_the_reduce_path(self, kind, monkeypatch):
        rng = np.random.default_rng(6)
        y = self.samples(kind, (64, 15), rng)
        edges = np.sort(rng.uniform(-3.0, 3.0, 65))
        runs = []
        for below in (0, 10 ** 9):
            monkeypatch.setattr(quadrature, "_LOOP_BELOW", below)
            v, e = gk15_panel(lambda x, rows: y, edges[:-1], edges[1:],
                              np.zeros(64, dtype=int))
            runs.append((v.tobytes(), e.tobytes()))
        assert runs[0] == runs[1]


class TestSeedPaths:
    """Seeds built in a Python loop and in numpy give the same bits: the
    same edges reach the integrand and every row the same sums."""

    seed_panels = staticmethod(quadrature._seed_panels)

    def run(self, monkeypatch, below, w, a, b, panels):
        monkeypatch.setattr(quadrature, "_LOOP_BELOW", below)
        seen = []

        def spy(func, edges, rows):
            seen.append((edges.tobytes(), rows.tolist()))
            return self.seed_panels(func, edges, rows)

        monkeypatch.setattr(quadrature, "_seed_panels", spy)
        values, errs, why = adaptive_quad(TestRows.row_integrand(w), a, b,
                                          rel_tol=1e-10, panels=panels)
        return seen, values.tobytes(), errs.tobytes(), why

    @pytest.mark.parametrize("panels", [
        [1], [2], [256], [1, 2, 256],
        # row 1 has zero width
        [3, 4, 5, 2],
        # 130 rows cross the 128-row block edge
        [1 + i % 7 for i in range(130)],
    ])
    def test_python_and_numpy_seeds_agree(self, panels, monkeypatch):
        n = len(panels)
        w = np.linspace(0.5, 30.0, n)
        a = np.linspace(-1.0, 0.5, n)
        b = a + np.linspace(3.0, 1.0, n)
        if n > 3:
            b[1] = a[1]
        panels = np.array(panels)
        loop = self.run(monkeypatch, 10 ** 9, w, a, b, panels)
        array = self.run(monkeypatch, 0, w, a, b, panels)
        assert loop == array
        # every live row's edges are np.linspace's
        edges = np.concatenate([np.frombuffer(e) for e, _ in loop[0]])
        live = np.flatnonzero(b > a)
        want = np.concatenate([np.linspace(a[i], b[i], panels[i] + 1)
                               for i in live])
        assert edges.tobytes() == want.tobytes()

    def test_sums_keep_signed_zeros(self):
        rng = np.random.default_rng(8)
        counts = (3, 1, 40, 2, 7)
        v = signed_zeros(rng, 53) + 1j * signed_zeros(rng, 53)
        e = signed_zeros(rng, 53)
        # row 0 is all -0.0, which sums to +0.0 from the 0j start
        v[:3], e[:3] = complex(-0.0, -0.0), -0.0
        v[10:20] = rng.standard_normal(10) * 1e-3
        e[4:30] = rng.uniform(0.0, 1e-3, 26)
        want, j = ([], []), 0
        for n in counts:
            value, err = 0j, 0.0
            for t in range(j, j + n):
                value += complex(v[t])
                err += float(e[t])
            want[0].append(value)
            want[1].append(err)
            j += n
        got, j = ([], []), 0
        for n in counts:
            value, err = quadrature._ordered_sum(v[j:j + n].tolist(),
                                                 e[j:j + n].tolist())
            got[0].append(value)
            got[1].append(err)
            j += n
        for g, w in zip(got, want):
            assert np.array(g).tobytes() == np.array(w).tobytes()
        assert math.copysign(1.0, got[1][0]) == 1.0
        assert math.copysign(1.0, got[0][0].real) == 1.0
        assert math.copysign(1.0, got[0][0].imag) == 1.0

    def test_bad_panel_counts_rejected(self):
        func = TestRows.row_integrand(np.ones(2))
        for panels in ([1], [0, 1], [1, 2001], [1.0, 2.0]):
            with pytest.raises(ValueError):
                adaptive_quad(func, np.zeros(2), np.ones(2),
                              panels=np.array(panels))


class TestAdaptiveQuad:
    def test_exponential(self):
        v, e = converged(np.exp, 0.0, 2.0)
        np.testing.assert_allclose(v, np.e ** 2 - 1, rtol=1e-12)
        assert e < 1e-8

    def test_complex_oscillatory(self):
        v, _ = converged(lambda x: np.exp(40j * x), 0.0, 1.0, rel_tol=1e-10)
        exact = (np.exp(40j) - 1.0) / 40j
        np.testing.assert_allclose(v, exact, rtol=1e-9)

    def test_endpoint_inverse_sqrt(self):
        v, _ = converged(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, rel_tol=1e-8)
        np.testing.assert_allclose(v, 2.0, rtol=1e-7)

    def test_log_singularity_matches_quadpack(self):
        v, _ = converged(np.log, 0.0, 1.0, rel_tol=1e-9)
        exact, _ = integrate.quad(np.log, 0.0, 1.0)
        np.testing.assert_allclose(v.real, exact, rtol=1e-8)
        assert abs(v.imag) < 1e-12

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: np.cos(x ** 2), 0.0, 3.0),
        (lambda x: np.exp(-x) * np.sin(5 * x), 0.0, 6.0),
        (lambda x: 1.0 / (1.0 + x ** 2), -4.0, 4.0),
    ])
    def test_against_quadpack(self, f, lo, hi):
        v, _ = converged(f, lo, hi, rel_tol=1e-10)
        exact, _ = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13)
        np.testing.assert_allclose(v.real, exact, rtol=1e-9, atol=1e-12)

    def test_kink_with_breakpoint(self):
        # three seed panels put an edge on the kink: 1*(1/3) + 0 is 1.0/3.0
        v, e = converged(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                         panels=3)
        np.testing.assert_allclose(v, 5.0 / 18.0, rtol=1e-13)
        assert e < 1e-10

    def test_budget_exhaustion_carries_best_estimate(self):
        v, e, why = one_row(lambda x: x ** -0.99, 0.0, 1.0,
                            rel_tol=1e-12, max_subdivisions=12)
        assert why.startswith("quadrature did not reach tolerance within "
                              "12 subdivisions")
        # partial sum of a positive integrand, with a large honest error bar
        assert 0.0 < v.real < 100.0
        assert v.imag == 0.0
        assert e > 1.0

    def test_zero_width_interval(self):
        v, e, why = one_row(np.exp, 1.5, 1.5)
        assert v == 0j
        assert e == 0.0
        assert why is None

    def test_reversed_interval_raises(self):
        with pytest.raises(ValueError):
            one_row(np.exp, 1.0, 0.0)

    def test_deterministic_repeat(self):
        f = lambda x: np.cos(x ** 2) + 1j * np.sin(3 * x)
        v1, e1 = converged(f, 0.0, 5.0, rel_tol=1e-10)
        v2, e2 = converged(f, 0.0, 5.0, rel_tol=1e-10)
        assert v1 == v2
        assert e1 == e2


class TestRows:
    """Many integrals in lockstep: each row as it would run alone."""

    @staticmethod
    def row_integrand(w):
        def func(x, rows):
            return np.cos(w[rows][:, None] * x) + 1j * np.sin(x * x)
        return func

    def lone(self, wi):
        """Row integrand of the single frequency wi, as a function of x."""
        one = self.row_integrand(np.array([wi]))
        return lambda x: one(x, np.zeros(len(x), dtype=int))

    def test_rows_are_bitwise_the_single_integrals(self):
        # 300 rows span three blocks; the seed panel counts differ per row
        w = np.linspace(0.5, 40.0, 300)
        panels = 1 + w.astype(int) // 8
        values, errs, why = adaptive_quad(self.row_integrand(w),
                                          np.zeros(300), np.full(300, 3.0),
                                          rel_tol=1e-10, panels=panels)
        assert why == [None] * 300
        for i in range(0, 300, 7):
            assert (values[i], errs[i], None) == one_row(
                self.lone(w[i]), 0.0, 3.0, rel_tol=1e-10,
                panels=panels[i])

    def test_zero_width_rows(self):
        values, errs, why = adaptive_quad(self.row_integrand(np.ones(2)),
                                          np.array([1.0, 0.0]),
                                          np.array([1.0, 2.0]))
        assert values[0] == 0j and errs[0] == 0.0 and why == [None, None]
        assert errs[1] > 0.0

    def test_rows_report_their_lone_outcomes(self):
        # row 3 oscillates too fast for the budget and is the first to fail,
        # in the first block; the later blocks still run, and no row raises.
        # Each row's (value, err, why) is what it gives alone, for converged
        # and failing rows alike.
        w = np.linspace(1.0, 10.0, 300)
        w[3] = 80.0
        values, errs, why = adaptive_quad(
            self.row_integrand(w), np.zeros(300), np.full(300, 3.0),
            rel_tol=1e-12, max_subdivisions=6)
        failing = [i for i, r in enumerate(why) if r is not None]
        assert failing[0] == 3 and len(failing) < 300
        for i in [3] + list(range(0, 300, 9)):
            assert (values[i], errs[i], why[i]) == one_row(
                self.lone(w[i]), 0.0, 3.0, rel_tol=1e-12, max_subdivisions=6)

    def test_seed_chunks_leave_the_bits(self, monkeypatch):
        w = np.linspace(0.5, 40.0, 300)
        panels = 1 + w.astype(int) // 4
        runs = []
        for chunk in (1, 7, 10 ** 6):
            monkeypatch.setattr(quadrature, "_SEED_CHUNK", chunk)
            values, errs, why = adaptive_quad(
                self.row_integrand(w), np.zeros(300), np.full(300, 3.0),
                rel_tol=1e-10, panels=panels)
            runs.append((values.tobytes(), errs.tobytes(), why))
        assert runs[0] == runs[1] == runs[2]

    def test_row_converged_on_its_seeds_is_their_ordered_sum(self):
        # a smooth row meets tolerance on its seeds; its value and err are
        # the left-to-right sums of the seed panels
        pts = np.linspace(0.0, 3.0, 9)
        func = self.row_integrand(np.array([1.0]))
        values, errs, why = adaptive_quad(func, np.zeros(1), np.full(1, 3.0),
                                          panels=np.array([8]))
        v, e = gk15_panel(func, pts[:-1], pts[1:], np.zeros(8, dtype=int))
        value, err = 0j, 0.0
        for vi, ei in zip(v.tolist(), e.tolist()):
            value += vi
            err += ei
        assert why == [None]
        assert (values[0], errs[0]) == (value, err)

    def test_seeds_below_resolution_take_one_panel(self):
        # 7 seed panels over 4 ulps would have coinciding edges, panels of
        # zero width whose 0/0 mean warns; the row takes one panel instead
        a, b = 1.0, 1.0 + 4 * 2.0 ** -52
        assert np.unique(np.linspace(a, b, 8)).size < 8
        func = self.row_integrand(np.array([3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seeded = adaptive_quad(func, np.array([a]), np.array([b]),
                                   panels=np.array([7]))
        one = adaptive_quad(func, np.array([a]), np.array([b]))
        assert seeded[2] == one[2] == [None]
        assert seeded[0].tobytes() == one[0].tobytes()
        assert seeded[1].tobytes() == one[1].tobytes()
        # 7 panels over 7 * 5 ulps keep their seeds
        b = 1.0 + 35 * 2.0 ** -52
        assert np.unique(np.linspace(a, b, 8)).size == 8
        assert adaptive_quad(func, np.array([a]), np.array([b]),
                             panels=np.array([7]))[0] != \
            adaptive_quad(func, np.array([a]), np.array([b]))[0]

    def test_mismatched_limits_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(self.row_integrand(np.ones(2)), np.zeros(2),
                          np.ones(3))
        # one integral is one row: scalar limits are not a form
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            adaptive_quad(self.row_integrand(np.ones(1)), 0.0, 1.0)

    def test_rows_checked_before_any_integrand_call(self):
        # row 200 of 201 lies in the second block and has a > b: the call
        # raises before the first block's rows are evaluated
        calls = []

        def func(x, rows):
            calls.append(rows.size)
            return np.ones(x.shape)

        a, b = np.zeros(201), np.ones(201)
        a[200] = 2.0
        with pytest.raises(ValueError, match="need a < b"):
            adaptive_quad(func, a, b)
        assert calls == []
        b[200] = 3.0
        with pytest.raises(ValueError, match="seed panels"):
            adaptive_quad(func, np.zeros(201), b,
                          panels=np.array([1] * 200 + [0]))
        assert calls == []


class TestNonFiniteRows:
    """A row whose integrand gives nan or inf stops at once, with a reason."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [1, 40])   # loop path, numpy path
    def test_stops_on_its_seeds(self, n, bad):
        calls = []

        def func(x, rows):
            calls.append(x.size)
            return np.where(x > 0.5, bad, 1.0)

        # inf * 0 weights and inf - inf make nan in the panel sums
        with np.errstate(invalid="ignore"):
            values, errs, why = adaptive_quad(func, np.zeros(n), np.ones(n))
        assert why == [quadrature._NOT_FINITE] * n
        assert len(calls) == 1
        assert not (np.isfinite(values) & np.isfinite(errs)).any()

    def test_stops_when_bisection_finds_one(self):
        # the seed panel misses tolerance; every later node is nan
        calls = []

        def func(x, rows):
            calls.append(x.size)
            return np.sin(40.0 * x) if len(calls) == 1 else np.full(x.shape,
                                                                     np.nan)

        values, errs, why = adaptive_quad(func, np.zeros(1), np.full(1, 3.0))
        assert why == [quadrature._NOT_FINITE]
        assert len(calls) == 2
        assert np.isnan(values[0]) and np.isnan(errs[0])

    def test_finite_rows_keep_their_outcome(self):
        # a finite row next to a nan row converges as it does alone
        def func(x, rows):
            return np.where(rows[:, None] == 0, np.cos(x), np.nan)

        values, errs, why = adaptive_quad(func, np.zeros(2), np.full(2, 3.0))
        alone = adaptive_quad(lambda x, rows: np.cos(x), np.zeros(1),
                              np.full(1, 3.0))
        assert why == [None, quadrature._NOT_FINITE]
        assert (values[0], errs[0]) == (alone[0][0], alone[1][0])



class TestStopTest:
    """A row stops as converged only when its re-summed panels meet
    tolerance, and a panel at floating-point resolution is parked."""

    BUDGET = "quadrature did not reach tolerance within 2000 subdivisions"
    peaks = np.array([1.0 / math.pi, 0.9 / math.e, 0.5, 0.3, 2.0 / 3.0])

    @classmethod
    def rows(cls, name):
        c = cls.peaks
        return {
            "peak": lambda x, rows:
                (np.abs(x - c[rows][:, None]) + 1e-300) ** -0.9,
            "step": lambda x, rows: (x > c[rows][:, None]).astype(float),
            "oscillating": lambda x, rows:
                np.exp(40j * c[rows][:, None] * x) * x ** -0.5,
        }[name]

    def test_running_totals_do_not_stop_a_row(self):
        # a panel error of about 4e254 enters the running total and is taken
        # out again, which leaves that total near 0 while the re-summed
        # panels still carry about 0.5: the row must not stop as converged
        c = 1.0 / math.pi
        v, e, why = one_row(lambda x: (np.abs(x - c) + 1e-300) ** -0.9,
                            0.0, 1.0, rel_tol=1e-300, abs_tol=1e-300)
        assert why == self.BUDGET
        assert 0.0 < e < 1e-6
        assert math.isfinite(v.real) and v.imag == 0.0

    @pytest.mark.parametrize("tol", [1e-300, 1e-14, 1e-10, 1e-6])
    @pytest.mark.parametrize("name", ["peak", "step", "oscillating"])
    def test_converged_rows_meet_tolerance(self, name, tol):
        n = self.peaks.size
        values, errs, why = adaptive_quad(self.rows(name), np.zeros(n),
                                          np.ones(n), rel_tol=tol,
                                          abs_tol=tol)
        for v, e, w in zip(values, errs, why):
            assert w is None and e <= max(tol, tol * abs(v)) \
                or w == self.BUDGET

    def test_resolution_panel_is_parked(self, monkeypatch):
        # |x - s|^-1/2 with s = 1/2 + 2^-56 strictly between the floats 1/2
        # and 1/2 + 2^-53, so no node hits it: the panel between them keeps
        # an error above every other and cannot be bisected
        parked = []

        def heappush(heap, item):
            if item[0] == 0.0 and math.copysign(1.0, item[0]) > 0.0:
                parked.append(item[2:4])
            heapq.heappush(heap, item)

        monkeypatch.setattr(quadrature, "heapq", types.SimpleNamespace(
            heappush=heappush, heappop=heapq.heappop,
            heapify=heapq.heapify))
        s = 0.5 + 2.0 ** -56
        v, e, why = one_row(lambda x: np.abs((x - 0.5) - 2.0 ** -56) ** -0.5,
                            0.0, 1.0, rel_tol=1e-300, abs_tol=1e-300)
        assert parked == [(0.5, 0.5 + 2.0 ** -53)]
        assert why == self.BUDGET
        exact = 2.0 * (math.sqrt(s) + math.sqrt(1.0 - s))
        assert abs(v - exact) <= e < 1e-8


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
