"""The speed probe's arithmetic, on synthetic kernel samples."""

import pytest

import speed
from speed import REF_KERNEL_S, SpeedProbe


def probe_with(samples):
    p = SpeedProbe()
    for s, e in samples:
        p.starts.append(s)
        p.ends.append(e)
    return p


def test_kernel_time_inside_an_operation_is_taken_out():
    p = probe_with([(1.0, 1.002), (1.05, 1.052), (2.0, 2.002)])
    assert p.busy_in(0.99, 1.06) == pytest.approx(0.004)
    assert p.busy_in(1.001, 1.051) == pytest.approx(0.002)
    assert p.busy_in(1.3, 1.9) == 0.0


def test_a_slower_host_scales_back_to_the_reference_speed():
    # the same operation, 1 s of own time at the reference speed, on a host
    # at full speed and on one at two thirds of it
    fast = probe_with([(t, t + REF_KERNEL_S) for t in (0.0, 0.5, 1.0, 1.5)])
    slow = probe_with([(t, t + 1.5 * REF_KERNEL_S)
                       for t in (0.0, 0.5, 1.0, 1.5, 2.0)])
    # two samples fall inside the first operation, three inside the second
    assert fast.scaled(0.01, 1.01 + 2 * REF_KERNEL_S) == pytest.approx(1.0)
    assert slow.scaled(0.01, 1.51 + 3 * 1.5 * REF_KERNEL_S) == \
        pytest.approx(1.0)


def test_an_operation_between_samples_uses_the_nearest():
    p = probe_with([(0.0, 0.001), (10.0, 10.003), (20.0, 20.004),
                    (30.0, 30.005), (40.0, 40.006), (50.0, 50.007),
                    (60.0, 60.008)])
    # the 5 nearest to t = 1 are the first five samples, mean 3.8 ms
    assert p.kernel_around(1.0, 1.001) == pytest.approx(0.0038)
    assert p.kernel_around(59.0, 59.5) == pytest.approx(0.006)
    with pytest.raises(RuntimeError):
        SpeedProbe().kernel_around(0.0, 1.0)


def test_the_timer_samples_while_work_runs_and_stops():
    p = SpeedProbe()
    p.start()
    try:
        total = 0
        while len(p.starts) < 3:
            total += sum(range(1000))
    finally:
        p.stop()
    n = len(p.starts)
    for _ in range(2000):
        total += sum(range(1000))
    assert len(p.starts) == n
    assert all(e > s for s, e in zip(p.starts, p.ends))
    assert speed.kernel() == speed.kernel()
