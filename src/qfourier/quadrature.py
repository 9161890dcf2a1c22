"""Adaptive panel quadrature for complex-valued integrands.

Global adaptive Gauss-Kronrod (7,15) bisection over a worst-panel priority
queue. The integrand is called on numpy arrays of nodes and must return a
matching array; values may be complex. Results are deterministic: the queue
is tie-broken by insertion order and the final sum runs in left-endpoint
order, so identical inputs give identical bits regardless of scheduling.

Many independent integrals (rows) run in lockstep: every row keeps its own
queue, tolerance test and summation order, and each round bisects the worst
panel of every unconverged row with one integrand call for all of them. A
row's value therefore has the bits it would have on its own, and a single
integral is simply the one-row case. Rows report their outcomes as data: a
row that stops short of tolerance keeps its best estimate and the reason it
stopped, and nothing is raised for it.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

# Gauss-Kronrod (7,15) rule on [-1,1], QUADPACK dqk15 abscissae and weights.
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

# full 15-point layout: [-x0 .. -x6, 0, x6 .. x0]
_NODES = np.concatenate([-_XGK[:7], _XGK[7:8], _XGK[6::-1]])
_W_K = np.concatenate([_WGK[:7], _WGK[7:8], _WGK[6::-1]])
_w_g_full = np.zeros(15)
_w_g_full[1:14:2] = np.concatenate([_WG[:3], _WG[3:4], _WG[2::-1]])
_W_G = _w_g_full
_W_KG = np.stack([_W_K, _W_G])

_EPS = float(np.finfo(float).eps)

# Rows advance together in blocks of at most this many. Every live row holds
# its own queue, so the block bounds peak memory; 128 rows already make each
# integrand call a few thousand nodes wide.
_BLOCK_ROWS = 128


def gk15_panel(func, a, b, rows):
    """(7,15) panels on [a[i], b[i]]; returns (kronrod_values, err_estimates).

    a and b are 1-d sequences of panel ends whose nodes all go to one call
    func(x, rows), with x of shape (len(a), 15) and rows[i] the row of
    panel i. Error follows the QUADPACK sharpening: |K-G| rescaled by the
    integrand's deviation from its panel mean, floored at the rounding
    level.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c[:, None] + h[:, None] * _NODES
    y = np.asarray(func(x, rows)).reshape(-1, 15)
    # each sum runs along one panel's 15 nodes, in the same order for one
    # panel as for many
    kg = h[:, None] * np.add.reduce(y[:, None, :] * _W_KG, axis=-1)
    resk, resg = kg[:, 0], kg[:, 1]
    resabs = h * np.add.reduce(_W_K * np.abs(y), axis=-1)
    mean = resk / (b - a)
    resasc = h * np.add.reduce(_W_K * np.abs(y - mean[:, None]), axis=-1)
    # np.hypot rounds like the scalar abs(); np.abs on a complex array does not
    d = resk - resg
    diff = np.hypot(d.real, d.imag)
    err = np.array([_sharpen(*t) for t in zip(diff.tolist(), resasc.tolist(),
                                              resabs.tolist())])
    return resk, err


def _sharpen(diff, resasc, resabs):
    """One panel's error estimate from |K-G| and its two absolute sums.

    Scalar float arithmetic: numpy's vector pow differs from libm's in the
    last bit, and the estimate orders the bisection queue.
    """
    err = diff
    if resasc != 0.0 and diff != 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    if resabs > 0.0:
        err = max(err, 50.0 * _EPS * resabs)
    return err


def adaptive_quad(func, a, b, *, rel_tol: float = 1e-8,
                  abs_tol: float = 1e-12, max_subdivisions: int = 2000,
                  breakpoints=()):
    """Integrate row i of func over [a[i], b[i]]; returns (values, errs, why).

    a and b are matching 1-d arrays, one integral per row. func is called
    as func(x, rows), where x[i] holds nodes of row rows[i]. breakpoints,
    when given, is one sequence per row that seeds its initial subdivision
    (kinks, oscillation splits). Every row runs to its end and nothing is
    raised for a row that misses tolerance: why[i] is None for a converged
    row, else the reason it stopped short, with values[i] and errs[i] its
    best estimate.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("row limits must be matching 1-d arrays")
    n = a.size
    if len(breakpoints) == 0:
        breakpoints = [()] * n
    elif len(breakpoints) != n:
        raise ValueError("need one breakpoint sequence per row")
    values = [0j] * n
    errs = [0.0] * n
    why = [None] * n
    for start in range(0, n, _BLOCK_ROWS):
        pts = {}
        for i in range(start, min(n, start + _BLOCK_ROWS)):
            lo, hi = float(a[i]), float(b[i])
            if not hi > lo:
                if hi == lo:
                    continue
                raise ValueError("need a < b")
            p = [lo] + sorted({float(t) for t in breakpoints[i]
                               if lo < t < hi}) + [hi]
            if len(p) - 1 > max_subdivisions:
                raise ValueError(
                    "more initial breakpoints than the subdivision budget")
            pts[i] = p
        if pts:
            _run_block(func, pts, values, errs, why, rel_tol, abs_tol,
                       max_subdivisions)
    return np.array(values, dtype=complex), np.array(errs, dtype=float), why


def _run_block(func, pts, values, errs, why, rel_tol, abs_tol,
               max_subdivisions):
    """Advance the rows of one block to tolerance, filling in their slots of
    values, errs and why.

    Per row, the steps and their order are those of a lone heap-driven
    bisection loop: test the tolerance, test the budget, pop the worst
    panel, bisect it. Only the integrand calls are shared.
    """
    rows = list(pts)
    edges = np.array([t for i in rows for t in pts[i]])
    edge_rows = np.array([i for i in rows for _ in pts[i]])
    heaps = {i: [] for i in rows}
    # per row: [insertion counter, total value, total error, panels]
    state = {i: [0, 0j, 0.0, len(pts[i]) - 1] for i in rows}
    for lo, hi, i, v, e in zip(*(col.tolist() for col in
                                 _seed_panels(func, edges, edge_rows))):
        s = state[i]
        heapq.heappush(heaps[i], (-e, s[0], lo, hi, v, e))
        s[0] += 1
        s[1] += v
        s[2] += e

    active = rows
    while active:
        waiting = []
        split = []
        for i in active:
            heap, s = heaps[i], state[i]
            if not s[2] > max(abs_tol, rel_tol * abs(s[1])):
                values[i], errs[i] = _collect(heap)
                continue
            if s[3] + 1 > max_subdivisions:
                values[i], errs[i] = _collect(heap)
                why[i] = ("quadrature did not reach tolerance within "
                          f"{max_subdivisions} subdivisions "
                          f"(err~{errs[i]:.3e})")
                continue
            prio, _, lo, hi, v, e_old = heapq.heappop(heap)
            if prio == 0.0:
                # a parked resolution-limit panel is popped only once nothing
                # else carries error, so the tolerance is unreachable
                heapq.heappush(heap, (prio, s[0], lo, hi, v, e_old))
                values[i], errs[i] = _collect(heap)
                why[i] = ("tolerance unreachable: remaining error sits on "
                          "intervals at floating-point resolution "
                          f"(err~{errs[i]:.3e})")
                continue
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                # interval at floating-point resolution; park it with lowest
                # priority so it is never re-split, but keep its true error
                heapq.heappush(heap, (0.0, s[0], lo, hi, v, e_old))
                s[0] += 1
            else:
                split.append((i, lo, mid, hi, v, e_old))
            waiting.append(i)
        if split:
            idx, los, mids, his, _, _ = zip(*split)
            v, e = gk15_panel(func, los + mids, mids + his,
                              np.array(idx + idx))
            v, e = v.tolist(), e.tolist()
            m = len(split)
            for j, (i, lo, mid, hi, v_old, e_old) in enumerate(split):
                v1, v2, e1, e2 = v[j], v[j + m], e[j], e[j + m]
                heap, s = heaps[i], state[i]
                s[1] += v1 + v2 - v_old
                s[2] += e1 + e2 - e_old
                heapq.heappush(heap, (-e1, s[0], lo, mid, v1, e1))
                heapq.heappush(heap, (-e2, s[0] + 1, mid, hi, v2, e2))
                s[0] += 2
                s[3] += 1
        active = waiting


def _seed_panels(func, edges, rows):
    """Evaluate the initial panels of every row in one integrand call.

    edges holds each row's seed points in turn and rows[j] names the row of
    edges[j]; a panel spans two consecutive points of one row. Returns
    (lo, hi, row, value, err) arrays, one entry per panel in seed order.
    """
    same = rows[1:] == rows[:-1]
    lo, hi, prow = edges[:-1][same], edges[1:][same], rows[:-1][same]
    v, e = gk15_panel(func, lo, hi, prow)
    return lo, hi, prow, v, e


def _collect(heap):
    panels = sorted(heap, key=lambda item: item[2])
    value = 0j
    err = 0.0
    for _, _, _, _, v, e in panels:
        value += v
        err += e
    return value, err


def trapezoid_weights(h):
    """Trapezoid weights on a grid whose consecutive spacings are h."""
    w = np.zeros(len(h) + 1)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w


def graded_line_nodes(T: float, n: int):
    """Trapezoid nodes and weights on [-T, T], sinh-graded toward t = 0.

    t = sinh(u) on a uniform u grid; spacing ~du near the origin and ~T*du at
    the ends. n is rounded up to odd so the grid can be halved for error
    estimation. Returns (t, w).
    """
    if T <= 0 or n < 8:
        raise ValueError("need T > 0 and n >= 8")
    if n % 2 == 0:
        n += 1
    U = math.asinh(T)
    u = np.linspace(-U, U, n)
    du = u[1] - u[0]
    t = np.sinh(u)
    w = np.cosh(u) * du
    w[0] *= 0.5
    w[-1] *= 0.5
    return t, w
