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

# Seed panels go to the integrand at most this many at a time, which bounds
# the node and value arrays of one call when dense seeds meet 128 rows.
_SEED_CHUNK = 2048

# Calls and blocks with fewer panels than this sharpen their error
# estimates, build and sum their seeds in Python loops and take their panel
# sums from np.add.reduce; larger ones use the column forms in numpy, whose
# fixed overhead only pays off there. Both sides give the same bits.
_LOOP_BELOW = 32


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
    sum15 = _sum15 if a.size >= _LOOP_BELOW else np.add.reduce
    kg = h[:, None] * sum15(y[:, None, :] * _W_KG, -1)
    resk, resg = kg[:, 0], kg[:, 1]
    resabs = h * sum15(_W_K * np.abs(y), -1)
    mean = resk / (b - a)
    resasc = h * sum15(_W_K * np.abs(y - mean[:, None]), -1)
    # np.hypot rounds like the scalar abs(); np.abs on a complex array does not
    d = resk - resg
    diff = np.hypot(d.real, d.imag)
    return resk, _panel_errs(diff, resasc, resabs)


def _sum15(t, axis=-1):
    """np.add.reduce(t, axis) over a last axis of 15, bit for bit, as
    column operations. axis must be -1; it is taken so that gk15_panel
    calls this and np.add.reduce alike.

    On a contiguous 15-long axis numpy 2.4 sums pairwise: a real sum is
    ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7)), then c8 to c14 in turn; a complex
    one keeps four accumulators, c0-c3 plus c4-c7 plus c8-c11, joins them
    as (a0+a1)+(a2+a3), then adds c12, c13 and c14. Either result is then
    added to numpy's 0.0 identity, which turns an all -0.0 sum into +0.0.
    Many rows cost 20 wide operations here instead of one short reduction
    per row.

    The bit-for-bit agreement requires numpy 2.4.x, whose order this
    copies; it is what makes a batched row give a lone row's bits. Another
    numpy still gives correct sums, but may differ in their last bits.
    """
    c = np.moveaxis(t, -1, 0)
    if t.dtype.kind == "c":
        s = (((c[0] + c[4]) + c[8]) + ((c[1] + c[5]) + c[9])) \
            + (((c[2] + c[6]) + c[10]) + ((c[3] + c[7]) + c[11]))
        first = 12
    else:
        s = ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
        first = 8
    for j in range(first, 15):
        s += c[j]
    s += 0.0
    return s


def _panel_errs(diff, resasc, resabs):
    """Panel error estimates from |K-G| and the two absolute sums.

    QUADPACK's resasc * min(1, (200 diff / resasc)^1.5) where neither is 0,
    else diff, floored at 50 eps resabs where resabs > 0. The min is 1
    unless the ratio is below 1 (a NaN ratio gives 1 too), and only then is
    the power taken, in scalar float arithmetic: numpy's vector pow differs
    from libm's in the last bit, and the estimate orders the bisection
    queue. A short call loops in Python, which costs less than the fixed
    overhead of the array form; both give the same bits.
    """
    if diff.size < _LOOP_BELOW:
        err = []
        for d, ra, rb in zip(diff.tolist(), resasc.tolist(), resabs.tolist()):
            if ra != 0.0 and d != 0.0:
                r = 200.0 * d / ra
                d = ra * r ** 1.5 if r < 1.0 else ra
            if rb > 0.0:
                d = max(d, 50.0 * _EPS * rb)
            err.append(d)
        return np.array(err, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = 200.0 * diff / resasc
        low = (ratio < 1.0) & (diff != 0.0)
        err = np.where((resasc != 0.0) & (diff != 0.0), resasc, diff)
        err[low] = resasc[low] * [r ** 1.5 for r in ratio[low].tolist()]
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
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("row limits must be matching 1-d arrays")
    n = a.size
    if panels is None:
        counts = [1] * n
    else:
        panels = np.asarray(panels)
        if panels.shape != a.shape or panels.dtype.kind not in "iu":
            raise ValueError("need one integer seed panel count per row")
        counts = panels.tolist()
    a, b = a.tolist(), b.tolist()
    values = np.zeros(n, dtype=complex)
    errs = np.zeros(n)
    why = [None] * n
    for start in range(0, n, _BLOCK_ROWS):
        block = []
        for i in range(start, min(n, start + _BLOCK_ROWS)):
            lo, hi, p = a[i], b[i], counts[i]
            if not hi > lo:
                if hi == lo:
                    # zero width: 0 with err 0, and no integrand call
                    continue
                raise ValueError("need a < b")
            if not 0 < p <= max_subdivisions:
                raise ValueError("need 1 to max_subdivisions seed panels")
            if p > 1 and (hi - lo) / p <= 4.0 * math.ulp(max(-lo, hi)):
                # seed edges within rounding of each other could coincide
                p = 1
            block.append((i, lo, hi, p))
        if block:
            _run_block(func, *zip(*block), values, errs, why, rel_tol,
                       abs_tol, max_subdivisions)
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


def _seed_sums(v, e, counts):
    """Per-row left-to-right sums 0 + v[0] + v[1] + ... of the flat seed
    values v and errs e, counts[i] of them per row in turn, as two lists.

    Fewer than _LOOP_BELOW panels are summed in a Python loop. More are
    laid out as a matrix, one row each behind a column of +0.0 and padded
    with -0.0, which leaves any sum as it is, and accumulated along the
    columns; both give the bits of the loop.
    """
    if v.size < _LOOP_BELOW:
        v, e = v.tolist(), e.tolist()
        values, errs, j = [], [], 0
        for n in counts:
            value, err = 0j, 0.0
            for t in range(j, j + n):
                value += v[t]
                err += e[t]
            values.append(value)
            errs.append(err)
            j += n
        return values, errs
    counts = np.array(counts)
    shape = (counts.size, int(counts.max()) + 1)
    first = np.cumsum(counts) - counts
    at = np.repeat(np.arange(shape[0]) * shape[1] - first + 1, counts) \
        + np.arange(v.size)
    sums = []
    for x in (v, e):
        pad = np.full(shape, -0.0, dtype=x.dtype)
        pad[:, 0] = 0.0
        pad.flat[at] = x
        sums.append(np.add.accumulate(pad, axis=1)[:, -1].tolist())
    return sums


def _run_block(func, rows, a, b, counts, values, errs, why, rel_tol,
               abs_tol, max_subdivisions):
    """Advance rows of one block to tolerance, row rows[i] over [a[i],
    b[i]] on counts[i] seed panels, filling in their slots of values, errs
    and why.

    Per row, the steps and their order are those of a lone heap-driven
    bisection loop: test the tolerance, test the budget, pop the worst
    panel, bisect it. Only the integrand calls are shared. A row that meets
    tolerance on its seed panels never builds a heap: the seed order is
    left-endpoint order, so its seed sums are the bits the heap would give.
    """
    lo, hi, _, v, e = _seed_panels(func, *_seed_edges(rows, a, b, counts))
    heaps = {}
    # per row: [insertion counter, total value, total error, panels]
    state = {}
    j = 0
    for i, n, value, err in zip(rows, counts, *_seed_sums(v, e, counts)):
        if not err > max(abs_tol, rel_tol * abs(value)):
            values[i], errs[i] = value, err
        else:
            p_lo, p_hi, p_v, p_e = [c[j:j + n].tolist()
                                    for c in (lo, hi, v, e)]
            heap = [(-p_e[t], t, p_lo[t], p_hi[t], p_v[t], p_e[t])
                    for t in range(n)]
            heapq.heapify(heap)
            heaps[i] = heap
            state[i] = [n, value, err, n]
        j += n

    active = list(heaps)
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
                          f"{max_subdivisions} subdivisions")
                continue
            prio, _, lo, hi, v, e_old = heapq.heappop(heap)
            if prio == 0.0:
                # a parked resolution-limit panel is popped only once nothing
                # else carries error, so the tolerance is unreachable
                heapq.heappush(heap, (prio, s[0], lo, hi, v, e_old))
                values[i], errs[i] = _collect(heap)
                why[i] = ("tolerance unreachable: remaining error sits on "
                          "intervals at floating-point resolution")
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
    """Evaluate the initial panels of every row, _SEED_CHUNK panels per
    integrand call.

    edges holds each row's seed points in turn and rows[j] names the row of
    edges[j]; a panel spans two consecutive points of one row. Returns
    (lo, hi, row, value, err) arrays, one entry per panel in seed order.
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
