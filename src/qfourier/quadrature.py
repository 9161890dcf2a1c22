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

import cmath
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

_EPS = float(np.finfo(float).eps)

# Rows advance together in blocks of at most this many. Every live row holds
# its own queue, so the block bounds peak memory; 128 rows already make each
# integrand call a few thousand nodes wide.
_BLOCK_ROWS = 128

# Seed panels go to the integrand at most this many at a time, which bounds
# the node and value arrays of one call when dense seeds meet 128 rows:
# 30,720 nodes, 240 KiB per real array and 480 KiB per complex one. glibc
# hands arrays that large back to the kernel when they are freed, and each
# fresh one page-faults, so the call chain builds its values in place.
_SEED_CHUNK = 2048

# Calls and blocks with fewer panels than this sharpen their error estimates
# and build their seed edges in Python loops; larger ones do it in numpy,
# whose fixed overhead only pays off there. Both sides give the same bits.
# Each side is the faster on one benchmark workload: the loops on the short
# calls of a transform sweep, numpy on the long seeded inversion calls.
_LOOP_BELOW = 32

_NOT_FINITE = "integral is not finite: its value or error is nan or inf"


def gk15_panel(func, a, b, rows):
    """(7,15) panels on [a[i], b[i]]; returns (kronrod_values, err_estimates).

    a and b are 1-d sequences of panel ends whose nodes all go to one call
    func(x, rows), with x of shape (len(a), 15) and rows[i] the row of
    panel i. Error follows the QUADPACK sharpening: |K-G| rescaled by the
    integrand's deviation from its panel mean, floored at the rounding
    level. Every 15-node sum is one np.add.reduce along a panel's own
    nodes, the same reduction in a call of one panel as in a call of many,
    which gives a panel the same bits in both.

    The call writes only into arrays it allocated: a, b and rows are left
    alone, and so is the value array func returns. Besides the nodes,
    released once func returns, its full-size arrays are one scratch of
    the values' type and one real scratch, each reused for the next
    weighted sum.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = h[:, None] * _NODES
    x += c[:, None]
    y = np.asarray(func(x, rows)).reshape(-1, 15)
    # the nodes go before the sums' two scratch arrays come
    del x
    w = y * _W_K
    resk = h * np.add.reduce(w, -1)
    resg = h * np.add.reduce(np.multiply(y, _W_G, out=w), -1)
    r = np.abs(y, dtype=float)
    r *= _W_K
    resabs = h * np.add.reduce(r, -1)
    mean = resk / (b - a)
    np.abs(np.subtract(y, mean[:, None], out=w), out=r)
    r *= _W_K
    resasc = h * np.add.reduce(r, -1)
    # np.hypot rounds like the scalar abs(); np.abs on a complex array does not
    d = resk - resg
    diff = np.hypot(d.real, d.imag)
    return resk, _panel_errs(diff, resasc, resabs)


def _panel_errs(diff, resasc, resabs):
    """Panel error estimates from |K-G| and the two absolute sums.

    QUADPACK's resasc * min(1, (200 diff / resasc)^1.5) where neither is 0,
    else diff, floored at 50 eps resabs where resabs > 0. The min is 1
    unless the ratio is below 1 (a NaN ratio gives 1 too), and only then is
    the power taken, as r * sqrt(r): sqrt is correctly rounded in libm and
    in numpy alike, where numpy's vector pow can differ from libm's in the
    last bit, and the estimate orders the bisection queue. The product is
    within an ulp of r^1.5. A short call loops in Python, which costs less
    than the fixed overhead of the array form; both give the same bits.
    """
    if diff.size < _LOOP_BELOW:
        err = []
        for d, ra, rb in zip(diff.tolist(), resasc.tolist(), resabs.tolist()):
            if ra != 0.0 and d != 0.0:
                r = 200.0 * d / ra
                d = ra * (r * math.sqrt(r)) if r < 1.0 else ra
            if rb > 0.0:
                d = max(d, 50.0 * _EPS * rb)
            err.append(d)
        return np.array(err, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = 200.0 * diff / resasc
        low = (ratio < 1.0) & (diff != 0.0)
        err = np.where((resasc != 0.0) & (diff != 0.0), resasc, diff)
        r = ratio[low]
        err[low] = resasc[low] * (r * np.sqrt(r))
    np.maximum(err, 50.0 * _EPS * resabs, out=err, where=resabs > 0.0)
    return err


def adaptive_quad(func, a, b, *, rel_tol: float = 1e-8,
                  abs_tol: float = 1e-12, max_subdivisions: int = 2000,
                  panels=None):
    """Integrate row i of func over [a[i], b[i]]; returns (values, errs, why).

    a and b are matching 1-d arrays, one integral per row. func is called
    as func(x, rows), where x[i] holds nodes of row rows[i]. panels, when
    given, holds one seed panel count per row (oscillation splits, or a
    kink at a known fraction of the row): row i starts from panels[i]
    equal panels with the edges of np.linspace(a[i], b[i], panels[i] + 1),
    j*step + a[i] with step = (b[i] - a[i]) / panels[i] and the last edge
    b[i]. A row whose step is at most 4 ulps of its larger end, where
    rounding could make two edges coincide, takes one panel instead. Every
    row runs to its end and nothing is raised for a row that misses
    tolerance: why[i] is None for a converged row, else the reason it
    stopped short, with values[i] and errs[i] its best estimate and its
    err.

    Every row is checked before the first integrand call; the rows then
    advance in blocks of _BLOCK_ROWS, zero-width rows left out. Per row,
    the steps and their order are those of a lone heap-driven bisection
    loop: the stop test (tolerance met, or a nan or inf value or err), the
    budget test, pop the worst panel, bisect it. Only the integrand calls
    are shared. A row stops only on its panels' left-to-right sum
    (_ordered_sum): seed order is left-endpoint order, so a row that stops
    on its seeds never builds a heap and has the bits the heap would give.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("row limits must be matching 1-d arrays")
    if panels is None:
        counts = [1] * a.size
    else:
        panels = np.asarray(panels)
        if panels.shape != a.shape or panels.dtype.kind not in "iu":
            raise ValueError("need one integer seed panel count per row")
        counts = panels.tolist()
    a, b = a.tolist(), b.tolist()
    for i, (lo, hi, p) in enumerate(zip(a, b, counts)):
        if not hi > lo:
            if hi == lo:
                # zero width: 0 with err 0, and no integrand call
                counts[i] = 0
                continue
            raise ValueError("need a < b")
        if not 0 < p <= max_subdivisions:
            raise ValueError("need 1 to max_subdivisions seed panels")
        if p > 1 and (hi - lo) / p <= 4.0 * math.ulp(max(-lo, hi)):
            # seed edges within rounding of each other could coincide
            counts[i] = 1
    values = np.zeros(len(a), dtype=complex)
    errs = np.zeros(len(a))
    why = [None] * len(a)
    for start in range(0, len(a), _BLOCK_ROWS):
        block = [(i, a[i], b[i], p) for i, p in
                 enumerate(counts[start:start + _BLOCK_ROWS], start) if p]
        if not block:
            continue
        lo, hi, v, e = _seed_panels(func, *_seed_edges(*zip(*block)))
        v, e = v.tolist(), e.tolist()
        # per row: [row, heap (None before its first bisection), first seed,
        # value, err, panels, insertion counter, totals are the ordered sum]
        active, j = [], 0
        for i, _, _, p in block:
            value, err = _ordered_sum(v[j:j + p], e[j:j + p])
            active.append([i, None, j, value, err, p, p, True])
            j += p
        while active:
            waiting, split = [], []
            for s in active:
                value, err = s[3], s[4]
                finite = math.isfinite(err) and cmath.isfinite(value)
                if not (finite and err > max(abs_tol, rel_tol * abs(value))):
                    if not s[7]:
                        # a huge panel error added to the running totals and
                        # taken out again wipes out every smaller one: the
                        # row comes round again, later in this round, to be
                        # tested on its re-summed panels
                        s[3], s[4] = _collect(s[1])
                        s[7] = True
                        active.append(s)
                        continue
                    reason = None if finite else _NOT_FINITE
                elif s[5] + 1 > max_subdivisions:
                    reason = ("quadrature did not reach tolerance within "
                              f"{max_subdivisions} subdivisions")
                else:
                    if s[1] is None:
                        j, p = s[2], s[5]
                        p_lo, p_hi = lo[j:j + p].tolist(), hi[j:j + p].tolist()
                        s[1] = [(-e[j + t], t, p_lo[t], p_hi[t], v[j + t],
                                 e[j + t]) for t in range(p)]
                        heapq.heapify(s[1])
                    prio, _, p_lo, p_hi, p_v, p_e = heapq.heappop(s[1])
                    mid = 0.5 * (p_lo + p_hi)
                    if prio != 0.0:
                        if mid <= p_lo or mid >= p_hi:
                            # interval at floating-point resolution; park it
                            # with lowest priority so it is never re-split,
                            # but keep its true error
                            heapq.heappush(s[1],
                                           (0.0, s[6], p_lo, p_hi, p_v, p_e))
                            s[6] += 1
                        else:
                            split.append((s[0], p_lo, mid, p_hi, p_v, p_e, s))
                        waiting.append(s)
                        continue
                    # a parked resolution-limit panel is popped only once
                    # nothing else carries error, so the tolerance is
                    # unreachable
                    heapq.heappush(s[1], (prio, s[6], p_lo, p_hi, p_v, p_e))
                    reason = ("tolerance unreachable: remaining error sits "
                              "on intervals at floating-point resolution")
                if not s[7]:
                    s[3], s[4] = _collect(s[1])
                values[s[0]], errs[s[0]], why[s[0]] = s[3], s[4], reason
            # the rows that stopped and the seeds, which every row that goes
            # on holds in its heap now, go before the integrand call
            active, lo, hi, v, e = waiting, None, None, None, None
            if split:
                rows, los, mids, his, _, _, _ = zip(*split)
                pv, pe = gk15_panel(func, los + mids, mids + his,
                                    np.array(rows + rows))
                pv, pe = pv.tolist(), pe.tolist()
                m = len(split)
                for t, (_, p_lo, mid, p_hi, v_old, e_old, s) in \
                        enumerate(split):
                    v1, v2, e1, e2 = pv[t], pv[t + m], pe[t], pe[t + m]
                    s[3] += v1 + v2 - v_old
                    s[4] += e1 + e2 - e_old
                    s[7] = False
                    heapq.heappush(s[1], (-e1, s[6], p_lo, mid, v1, e1))
                    heapq.heappush(s[1], (-e2, s[6] + 1, mid, p_hi, v2, e2))
                    s[6] += 2
                    s[5] += 1
    return values, errs, why


def _seed_edges(rows, lo, hi, counts):
    """Flat seed edges of rows [lo[i], hi[i]], counts[i] + 1 per row in
    turn, and the row of each edge.

    Row i's edges are j*step + lo[i] with step = (hi[i] - lo[i]) /
    counts[i], np.linspace's arithmetic, with the first set to lo[i] and the
    last to hi[i]. Fewer than _LOOP_BELOW panels are built in a Python
    loop, more in numpy; both give the same bits.
    """
    if sum(counts) < _LOOP_BELOW:
        edges, edge_rows = [], []
        for i, lo_i, hi_i, p in zip(rows, lo, hi, counts):
            step = (hi_i - lo_i) / p
            edges += [lo_i] + [j * step + lo_i for j in range(1, p)] + [hi_i]
            edge_rows += [i] * (p + 1)
        return np.array(edges), np.array(edge_rows)
    lo, hi, counts = np.array(lo), np.array(hi), np.array(counts)
    per_row = counts + 1
    first = np.cumsum(per_row) - per_row
    j = np.arange(first[-1] + per_row[-1]) - np.repeat(first, per_row)
    with np.errstate(over="ignore", invalid="ignore"):
        edges = j * np.repeat((hi - lo) / counts, per_row) \
            + np.repeat(lo, per_row)
    edges[first] = lo
    edges[first + counts] = hi
    return edges, np.repeat(rows, per_row)


def _seed_panels(func, edges, rows):
    """Evaluate the initial panels of every row, _SEED_CHUNK panels per
    integrand call.

    edges holds each row's seed points in turn and rows[j] names the row of
    edges[j]; a panel spans two consecutive points of one row. Returns
    (lo, hi, value, err) arrays, one entry per panel in seed order.
    Each panel's sums run along its own nodes, so the chunking leaves the
    bits as they are.
    """
    same = rows[1:] == rows[:-1]
    lo, hi, prow = edges[:-1][same], edges[1:][same], rows[:-1][same]
    parts = [gk15_panel(func, lo[s:s + _SEED_CHUNK], hi[s:s + _SEED_CHUNK],
                        prow[s:s + _SEED_CHUNK])
             for s in range(0, lo.size, _SEED_CHUNK)]
    v = np.concatenate([p[0] for p in parts])
    e = np.concatenate([p[1] for p in parts])
    return lo, hi, v, e


def _ordered_sum(values, errs):
    """Left-to-right sums 0 + values[0] + values[1] + ... and the same of
    errs, of one row's panels in left-endpoint order.

    The sums start from 0j and 0.0, which turns an all -0.0 row into +0.0.
    A row's seeds and its heap are both summed here, so a row that stops
    on its seeds has the bits its heap would give.
    """
    value, err = 0j, 0.0
    for x in values:
        value += x
    for x in errs:
        err += x
    return value, err


def _collect(heap):
    panels = sorted(heap, key=lambda item: item[2])
    return _ordered_sum([p[4] for p in panels], [p[5] for p in panels])


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
