"""Host-speed normalization arithmetic and its single-thread guard."""

import subprocess
import sys
import threading
import time

import pytest

from perfbench.hostspeed import NOMINAL_PROBE_S, SpeedSampler, alone, normalized, probe


def test_nominal_speed_leaves_work_time_and_drops_handler_time():
    p = NOMINAL_PROBE_S
    events = [(1.0, 1.0 + p, p), (2.0 + p, 2.0 + 2 * p, p)]
    # [0, 3]: gaps of 1.0 work each, then a 1.0 - 2p tail.
    assert normalized(0.0, 3.0, events, p) == pytest.approx(3.0 - 2 * p)


def test_a_host_half_as_fast_halves_the_normalized_time():
    p = 2 * NOMINAL_PROBE_S
    events = [(1.0, 1.0 + p, p)]
    assert normalized(0.0, 2.0 + p, events, p) == pytest.approx(1.0)


def test_each_gap_uses_the_probe_that_ends_it():
    fast, slow = NOMINAL_PROBE_S, 4 * NOMINAL_PROBE_S
    events = [(1.0, 1.0 + fast, fast), (2.0 + fast, 2.0 + fast + slow, slow)]
    assert normalized(0.0, 2.0 + fast + slow, events, fast) == pytest.approx(1.25)


def test_interruptions_without_a_probe_keep_the_last_reading():
    p = NOMINAL_PROBE_S
    # The burst before says half speed; the unprobed interruption keeps
    # it, the probed one switches to nominal.
    events = [(1.0, 1.0, None), (2.0, 2.0, p)]
    assert normalized(0.0, 3.0, events, 2 * p) == pytest.approx(0.5 + 1.0 + 1.0)


def test_no_interruptions_use_the_first_reading():
    assert normalized(1.0, 2.0, [], 2 * NOMINAL_PROBE_S) == pytest.approx(0.5)


def test_sampling_runs_during_timed_work_only():
    sampler = SpeedSampler(interval=0.005)
    result, raw, norm = sampler.time(lambda: [probe() for _ in range(400)])
    assert len(result) == 400
    count = len(sampler.samples)
    assert count > 1  # the burst, then interruptions
    assert raw > 0 and norm > 0
    for _ in range(100):
        probe()
    assert len(sampler.samples) == count


def test_an_inactive_sampler_only_times():
    sampler = SpeedSampler(active=False)
    result, raw, norm = sampler.time(lambda: 7)
    assert result == 7 and raw == norm
    assert sampler.samples == []


def test_not_alone_with_a_second_thread_or_a_running_child():
    assert alone()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not alone()
    finally:
        stop.set()
        thread.join()
    child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        deadline = time.monotonic() + 10
        while alone() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not alone()
    finally:
        child.kill()
        child.wait()
    assert alone()


def test_no_probe_runs_while_another_thread_lives():
    sampler = SpeedSampler(interval=0.002, burst_s=0.001)
    stop = threading.Event()

    def work():
        thread = threading.Thread(target=stop.wait)
        thread.start()
        time.sleep(0.1)
        stop.set()
        thread.join()

    sampler.time(work)
    # Only the burst before the work: every interruption found a
    # second thread.
    assert len(sampler.samples) == 1
