"""Unit tests for breakdown profiling."""

import pytest

from repro.core.profiler import Breakdown, profile_trace
from repro.sim.trace import Interval, Phase, Trace


def make_trace():
    t = Trace()
    t.record(Interval(0, 2, Phase.GPU_COMPUTE, "gpu"))
    t.record(Interval(0, 1, Phase.IO_READ, "ssd", nbytes=100))
    t.record(Interval(1, 1.5, Phase.IO_WRITE, "ssd", nbytes=50))
    t.record(Interval(0, 0.25, Phase.CPU_COMPUTE, "cpu"))
    t.record(Interval(0, 0.1, Phase.SETUP, "host"))
    t.record(Interval(0, 0.05, Phase.DEV_TRANSFER, "pcie", nbytes=10))
    t.record(Interval(0, 0.01, Phase.RUNTIME, "host"))
    return t


def test_grouped_categories():
    bd = profile_trace(make_trace())
    assert bd.gpu == pytest.approx(2.0)
    assert bd.by_phase[Phase.CPU_COMPUTE] == pytest.approx(0.25)
    assert bd.io == pytest.approx(1.5)
    assert bd.dev_transfer == pytest.approx(0.05)
    assert bd.by_phase[Phase.SETUP] == pytest.approx(0.1)
    assert bd.runtime == pytest.approx(0.01)
    assert bd.makespan == pytest.approx(2.0)


def test_shares_sum_to_one():
    bd = profile_trace(make_trace())
    shares = bd.shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["gpu"] == pytest.approx(2.0 / bd.busy_total)


def test_bytes_by_phase():
    bd = profile_trace(make_trace())
    assert bd.bytes_by_phase[Phase.IO_READ] == 100
    assert bd.bytes_by_phase[Phase.IO_WRITE] == 50
    assert Phase.GPU_COMPUTE not in bd.bytes_by_phase


def test_runtime_overhead_fraction():
    bd = profile_trace(make_trace())
    assert bd.runtime_overhead_fraction() == pytest.approx(0.01 / bd.busy_total)


def test_empty_trace():
    bd = profile_trace(Trace())
    assert bd.makespan == 0.0
    assert bd.busy_total == 0.0
    assert bd.shares()["gpu"] == 0.0
    assert bd.runtime_overhead_fraction() == 0.0


def test_table_renders():
    text = profile_trace(make_trace()).table(title="Fig7 row")
    assert "Fig7 row" in text
    assert "gpu" in text and "makespan" in text
    assert "%" in text


def test_breakdown_missing_phases_default_zero():
    bd = Breakdown(makespan=0.0, by_phase={})
    assert bd.gpu == 0.0 and bd.io == 0.0 and bd.runtime == 0.0
