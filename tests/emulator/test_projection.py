"""Unit tests for the Figure 9 storage-projection emulator."""

import pytest

from repro.emulator.projection import IOProfile, project, sweep
from repro.errors import ConfigError
from repro.memory.units import MB
from repro.sim.trace import Interval, Phase, Trace


def profile():
    t = Trace()
    t.record(Interval(0, 1.0, Phase.IO_READ, "ssd", nbytes=1400 * MB))
    t.record(Interval(1.0, 2.0, Phase.IO_WRITE, "ssd", nbytes=600 * MB))
    t.record(Interval(0, 3.0, Phase.GPU_COMPUTE, "gpu"))
    return IOProfile.from_trace(t)


def test_profile_folds_trace():
    p = profile()
    assert p.read_bytes == 1400 * MB and p.write_bytes == 600 * MB
    assert p.read_ops == 1 and p.write_ops == 1
    assert p.io_busy == pytest.approx(2.0)
    assert p.makespan == pytest.approx(3.0)
    # The GPU was busy 3.0 s: that is the compute floor held constant.
    assert p.non_io_critical == pytest.approx(3.0)
    assert p.non_io_time == pytest.approx(3.0)


def test_project_at_recorded_bandwidth_reproduces_io():
    p = profile()
    proj = project(p, read_bw=1400 * MB, write_bw=600 * MB, latency=0.0)
    assert proj.io_time == pytest.approx(2.0)
    # First-order additive: compute floor + replayed I/O.
    assert proj.overall == pytest.approx(5.0)


def test_faster_storage_shrinks_io_but_not_compute():
    p = profile()
    base = project(p, read_bw=1400 * MB, write_bw=600 * MB, latency=0.0)
    fast = project(p, read_bw=3500 * MB, write_bw=2100 * MB, latency=0.0)
    assert fast.io_time == pytest.approx(1400 / 3500 + 600 / 2100)
    assert fast.overall == pytest.approx(3.0 + fast.io_time)
    assert base.io_time / fast.io_time > 2.0
    assert base.overall / fast.overall < base.io_time / fast.io_time


def test_non_io_floor_without_overlap():
    t = Trace()
    t.record(Interval(0, 1.0, Phase.IO_READ, "ssd", nbytes=100))
    t.record(Interval(1.0, 1.5, Phase.GPU_COMPUTE, "gpu"))
    t.record(Interval(1.5, 2.5, Phase.IO_WRITE, "ssd", nbytes=100))
    p = IOProfile.from_trace(t)
    # Serial run: makespan - io == gpu busy; both give 0.5.
    assert p.non_io_time == pytest.approx(0.5)


def test_latency_counts_per_operation():
    p = profile()
    with_lat = project(p, read_bw=1400 * MB, write_bw=600 * MB, latency=0.01)
    assert with_lat.io_time == pytest.approx(2.0 + 0.02)


def test_sweep_monotone_io_time():
    p = profile()
    ladder = [(1400 * MB, 600 * MB), (2000 * MB, 1000 * MB),
              (3500 * MB, 2100 * MB)]
    projections = sweep(p, ladder, latency=0.0)
    ios = [pr.io_time for pr in projections]
    assert ios == sorted(ios, reverse=True)


def test_validation():
    p = profile()
    with pytest.raises(ConfigError):
        project(p, read_bw=0, write_bw=1)
    with pytest.raises(ConfigError):
        project(p, read_bw=1, write_bw=1, latency=-1)
    with pytest.raises(ConfigError):
        sweep(p, [])


def test_non_io_time_clamped():
    # Heavily overlapped run: io busy exceeds makespan contributions.
    t = Trace()
    t.record(Interval(0, 2.0, Phase.IO_READ, "a", nbytes=10))
    t.record(Interval(0, 2.0, Phase.IO_WRITE, "b", nbytes=10))
    p = IOProfile.from_trace(t)
    assert p.non_io_time == 0.0
