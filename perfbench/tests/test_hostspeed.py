"""Host-speed adjustment of timings, and the rate bases."""

import os
import signal
import time

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import HostSpeed
from perfbench.workloads import Op, rate

REFERENCE = hostspeed.REFERENCE_PROBE_S


def sampled(samples) -> HostSpeed:
    speed = HostSpeed()
    speed.samples = list(samples)
    return speed


def test_a_host_at_the_reference_speed_leaves_times_unchanged():
    speed = sampled((0.25 * index, REFERENCE) for index in range(40))
    assert speed.adjust(10.01, 0.2) == pytest.approx(0.2)


def test_a_host_twice_as_slow_halves_times():
    speed = sampled((0.25 * index, 2 * REFERENCE) for index in range(40))
    assert speed.adjust(3.01, 0.2) == pytest.approx(0.1)


def test_probes_inside_a_call_are_not_its_time():
    speed = sampled((0.25 * index, REFERENCE) for index in range(40))
    # [1.0, 2.0) holds the probes started at 1.0, 1.25, 1.5 and 1.75
    assert speed.adjust(1.0, 1.0) == pytest.approx(1.0 - 4 * REFERENCE)


def test_a_call_is_judged_by_the_probes_around_it():
    slow = [(0.25 * index, 2 * REFERENCE) for index in range(20)]  # 0 .. 4.75 s
    fast = [(5.0 + 0.25 * index, REFERENCE) for index in range(20)]  # 5 .. 9.75 s
    speed = sampled(slow + fast)
    assert speed.adjust(2.01, 0.1) == pytest.approx(0.05)
    assert speed.adjust(8.01, 0.1) == pytest.approx(0.1)


def test_the_median_probe_ignores_one_outlier():
    samples = [(0.25 * index, REFERENCE) for index in range(40)]
    samples[20] = (5.0, 50 * REFERENCE)
    assert sampled(samples).adjust(4.9, 0.1) == pytest.approx(0.1)


def test_too_few_probes_in_the_window_take_the_nearest():
    speed = sampled([(0.0, REFERENCE), (1.0, REFERENCE), (50.0, 2 * REFERENCE),
                     (51.0, 2 * REFERENCE), (52.0, 2 * REFERENCE)])
    # five probes in all: every one is among the nearest, median 2 x
    assert speed.adjust(0.5, 0.1) == pytest.approx(0.05)


def test_no_probe_at_all_is_an_error():
    with pytest.raises(RuntimeError):
        HostSpeed().adjust(0.0, 1.0)


def test_sampling_runs_probes_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        end = time.perf_counter() + 4 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            os.urandom(1)
    assert len(speed.samples) >= 2
    assert all(seconds > 0 for _, seconds in speed.samples)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_rate_counts_units_or_calls():
    ops = [
        Op("traffic", 2.0, units=100),
        Op("write", 0.5),
        Op("write", 0.5),
        Op("write", None, False),  # nothing was called
        Op("check", 1.0),
    ]
    assert rate(ops, ("traffic",)) == 50.0
    assert rate(ops, ("traffic", "write"), per_call=True) == 1.0
    assert rate(ops, ("deploy",)) == 0.0  # no calls: no rate
