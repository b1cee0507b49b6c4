"""Calibration regression guards.

EXPERIMENTS.md quotes concrete measured numbers; these tests pin the
calibrated results inside bands so an accidental change to a device
constant, a kernel efficiency, or the scheduler is caught as a test
failure rather than silently shifting every table.
"""

import pytest

from repro.bench.reporting import fig6_slowdowns


@pytest.fixture(scope="module")
def fig6(scenario_records):
    return fig6_slowdowns(scenario_records("fig6"))


def test_fig6_gemm_band(fig6):
    s = fig6["gemm"]
    assert 1.0 <= s["ssd"] <= 1.2     # storage effectively hidden
    assert 2.5 <= s["hdd"] <= 4.5


def test_fig6_hotspot_band(fig6):
    s = fig6["hotspot"]
    assert 1.05 <= s["ssd"] <= 1.5    # paper band: 1.3-2.4
    assert 2.0 <= s["hdd"] <= 3.5     # paper band: 2-2.5


def test_fig6_spmv_band(fig6):
    s = fig6["spmv"]
    assert 1.3 <= s["ssd"] <= 2.4     # inside the paper band
    # The disk point is the documented outlier; pin it anyway.
    assert 6.0 <= s["hdd"] <= 14.0


def test_fig9_average_gap_near_headline(scenario_records):
    gaps = {r["app"]: r["gap_to_in_memory"]
            for r in scenario_records("fig9")}
    assert gaps["gemm"] < gaps["hotspot"] < gaps["spmv"]
    avg = sum(gaps.values()) / len(gaps)
    # Abstract headline: "only an average of 17% slower".
    assert 0.12 <= avg <= 0.28


def test_fig11_headline_band(scenario_records):
    records = [r for r in scenario_records("fig11") if r["gpu_queues"] == 32]
    for r in records:
        assert 1.15 <= r["speedup"] <= 1.28    # "up to 24%"
