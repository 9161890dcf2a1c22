"""Host-speed probe: a fixed reference kernel timed beside the workload.

The host is shared with other tenants, and the speed it gives this process
moves by up to 2x and stays low for tens of seconds at a time. A run's
fastest pass does not escape such a period, so raw times of the same code
spread by 30-40% between runs.

The probe times a fixed kernel of the kind of work the package does (sums
over short numpy vectors, a complex series, heap-ordered bisection of an
integral), written here and independent of the package. While passes run, a
SIGALRM handler runs it every `INTERVAL` seconds, so samples fall inside
operations as well as between them. An operation's time, less the kernel
time inside it, is scaled by `REF_KERNEL_S` over the mean kernel time around
the operation: seconds on a host where the kernel takes `REF_KERNEL_S`. A
change to the package moves these figures as it moves wall time; a change in
host load moves the kernel and the operation together and leaves them nearly
unchanged.

The process stays single-threaded: a signal handler runs in the main thread,
between bytecodes.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 2.0e-3
INTERVAL = 0.05
# samples within this many seconds of an operation count as its neighbours;
# at least MIN_SAMPLES of the nearest are used
WINDOW = 0.15
MIN_SAMPLES = 5

_NODES = np.linspace(-1.0, 1.0, 31)
_GK_X = np.array([-0.991455371120813, -0.949107912342759, -0.864864423359769,
                  -0.741531185599394, -0.586087235467691, -0.405845151377397,
                  -0.207784955007898, 0.0, 0.207784955007898,
                  0.405845151377397, 0.586087235467691, 0.741531185599394,
                  0.864864423359769, 0.949107912342759, 0.991455371120813])
# a 15-point rule and the 7 odd nodes as its coarse estimate: only the shape
# of the work matters here, not the accuracy
_GK_W = np.full(15, 2.0 / 15)
_GK_G = np.zeros(15)
_GK_G[1::2] = 2.0 / 7


def _panel_sums(panels):
    """Sums over 31-point vectors and a short complex series per panel."""
    acc = 0j
    for i in range(panels):
        x = i * 0.05 + 0.025 * (_NODES + 1.0)
        f = np.exp(1j * 7.3 * x) / (1.0 + x * x)
        acc += complex(f.sum()) * (0.025 / 31)
        t, s, z = 1.0 + 0j, 0j, 0.3 + 0.4j
        for n in range(40):
            t *= z * (n + 0.5) / (n + 1)
            s += t
        acc += s * 1e-3
    return acc


def _integrand(x, k):
    with np.errstate(all="ignore"):
        base = np.power(1.0 + 0.5 * x * x, -1.5 + 0j)
        f = base * np.exp(1j * k * x * np.power(base.real, -0.5))
    f = np.nan_to_num(f)
    return np.where(np.isfinite(f), f, 0.0)


def _bisection(splits, k=9.0):
    """Heap-ordered bisection of an oscillatory integral on [0, 6]."""
    def panel(a, b):
        h = 0.5 * (b - a)
        f = _integrand(a + h * (_GK_X + 1.0), k)
        hi = h * complex(np.dot(_GK_W, f))
        lo = h * complex(np.dot(_GK_G, f))
        return -abs(hi - lo), a, b, hi

    heap = [panel(float(a), float(a) + 1.0) for a in range(6)]
    heapq.heapify(heap)
    for _ in range(splits):
        _, a, b, _ = heapq.heappop(heap)
        m = 0.5 * (a + b)
        heapq.heappush(heap, panel(a, m))
        heapq.heappush(heap, panel(m, b))
    return sum(item[3] for item in heap)


def kernel():
    """About 2 ms on a quiet host of the kind of work the package does."""
    return _panel_sums(70) + _bisection(12)


class SpeedProbe:
    """Kernel samples as (start, end) perf_counter pairs, in time order."""

    def __init__(self):
        self.starts, self.ends = [], []
        self._busy = False
        self._previous = None

    def sample(self):
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
        finally:
            self._busy = False

    def _handler(self, signum, frame):
        if not self._busy:
            self.sample()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def busy_in(self, t0, t1):
        """Kernel time spent inside [t0, t1]."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(max(0.0, min(e, t1) - max(s, t0))
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def kernel_around(self, t0, t1):
        """Mean kernel time of the samples near [t0, t1].

        A mean, not a median: on a host that takes the processor away for
        part of the time, the mean follows the share of time this process
        gets, which is what stretches the operation too."""
        lo = bisect.bisect_left(self.ends, t0 - WINDOW)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            before = t0 - self.ends[lo - 1] if lo > 0 else float("inf")
            after = (self.starts[hi] - t1 if hi < len(self.starts)
                     else float("inf"))
            if before <= after:
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed samples")
        return statistics.fmean(e - s for s, e in
                                zip(self.starts[lo:hi], self.ends[lo:hi]))

    def scaled(self, t0, t1):
        """Seconds of [t0, t1], less kernel time, at the reference speed."""
        own = t1 - t0 - self.busy_in(t0, t1)
        return own * REF_KERNEL_S / self.kernel_around(t0, t1)
