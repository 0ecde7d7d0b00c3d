"""Checks of the host-speed gauge's arithmetic and of its timer handling.

Run with ``python3 -m pytest perfbench/tests -q``.
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gauge  # noqa: E402


def gauge_with(samples):
    host = gauge.HostGauge()
    for start, duration in samples:
        host.starts.append(start)
        host.durations.append(duration)
    return host


def test_adjust_subtracts_inside_samples_and_scales():
    ref = gauge.REF_S
    # Samples at 9.9 (nearby, before), 10.2 and 10.6 (inside), 11.1 (nearby, after)
    # and 20.0 (outside the window); the host runs the kernel at half speed.
    host = gauge_with([(9.9, 2 * ref), (10.2, 2 * ref), (10.6, 2 * ref), (11.1, 2 * ref),
                       (20.0, 50 * ref)])
    adjusted = host.adjust(10.0, 1.0)
    assert adjusted == pytest.approx((1.0 - 4 * ref) / 2)


def test_adjust_leaves_out_stalled_samples():
    ref = gauge.REF_S
    host = gauge_with([(0.0, ref), (0.1, ref), (0.2, 40 * ref), (0.3, ref)])
    assert host.adjust(0.05, 0.2) == pytest.approx(0.2 - 41 * ref)


def test_adjust_is_identity_at_reference_speed():
    host = gauge_with([(0.0, gauge.REF_S), (0.3, gauge.REF_S)])
    assert host.adjust(0.1, 0.01) == pytest.approx(0.01)


def test_adjust_without_samples_raises():
    with pytest.raises(ValueError):
        gauge_with([(100.0, gauge.REF_S)]).adjust(0.0, 1.0)


def test_timer_samples_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with gauge.HostGauge() as host:
        end = time.perf_counter() + 4 * gauge.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(host.durations) >= 2
    assert host.starts == sorted(host.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
