"""Merged Perfetto export: a telemetry-on distributed run renders
physical worker lanes (pid 3) next to the virtual tracks, kernel
slices carry their virtual span id, and virtual spans arrow into the
physical lanes via the ``virt_phys`` flow namespace."""

import json

import pytest

from repro.core.system import System
from repro.dist import DistExecutor
from repro.dist.runner import DistributedScheduler
from repro.memory.units import KB, MB
from repro.obs.phys import FLOW_PHYS_BASE, PID_PHYS
from repro.tools.trace_export import (iter_chrome_events,
                                      write_chrome_trace)
from repro.topology.builders import apu_two_level

_FLOW_VPHYS_BASE = 1 << 35


@pytest.fixture(scope="module")
def merged_run(tmp_path_factory):
    """One 2-worker telemetry-on GEMM, exported with spans + phys."""
    from repro.apps.gemm import GemmApp

    ex = DistExecutor(workers=2, telemetry=True)
    sys_ = System(apu_two_level(storage_capacity=8 * MB,
                                staging_bytes=256 * KB), executor=ex)
    path = tmp_path_factory.mktemp("trace") / "merged.json"
    try:
        GemmApp(sys_, m=128, k=128, n=128, seed=3).run(
            sys_, scheduler=DistributedScheduler())
        merger = ex.telemetry.merger()
        count = write_chrome_trace(sys_.timeline.trace, str(path),
                                   spans=sys_.obs, phys=merger)
        events = json.loads(path.read_text())["traceEvents"]
        assert count == len(events)
        return events, merger
    finally:
        sys_.close()
        ex.close()


def test_physical_lanes_present_and_named(merged_run):
    events, merger = merged_run
    metas = [e for e in events if e.get("ph") == "M"
             and e.get("pid") == PID_PHYS]
    names = {e["args"]["name"] for e in metas}
    assert "physical workers" in names
    assert {"coordinator", "phys:w0", "phys:w1"} <= names
    lanes = {e.get("tid") for e in events
             if e.get("pid") == PID_PHYS and e.get("ph") == "X"}
    assert {merger.tid_of("w0"), merger.tid_of("w1")} <= lanes


def test_kernel_slices_carry_span_and_ticket(merged_run):
    events, _ = merged_run
    kernels = [e for e in events if e.get("pid") == PID_PHYS
               and e.get("ph") == "X" and e["name"] == "kernel"]
    assert kernels, "no physical kernel slices in the merged trace"
    attributed = [e for e in kernels if e["args"].get("span", 0) > 0]
    assert attributed, "no kernel slice joined back to a virtual span"
    for e in kernels:
        assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        assert e["args"]["worker"] in ("w0", "w1")
        assert e["args"]["ticket"] > 0


def test_grant_to_kernel_to_ack_flows(merged_run):
    events, _ = merged_run
    flows = [e for e in events if e.get("cat") == "phys_flow"]
    by_id = {}
    for e in flows:
        by_id.setdefault(e["id"], []).append(e["ph"])
    assert by_id, "no physical dispatch flows"
    for fid, phs in by_id.items():
        assert fid >= FLOW_PHYS_BASE and fid < _FLOW_VPHYS_BASE
        assert "s" in phs and "t" in phs    # grant start, kernel step


def test_virtual_spans_arrow_into_physical_lanes(merged_run):
    events, merger = merged_run
    vflows = [e for e in events if e.get("id", 0) >= _FLOW_VPHYS_BASE]
    assert vflows, "no virtual->physical flow arrows"
    starts = [e for e in vflows if e["ph"] == "s"]
    finishes = [e for e in vflows if e["ph"] == "f"]
    assert starts and finishes
    assert all(e["pid"] != PID_PHYS for e in starts)
    assert all(e["pid"] == PID_PHYS for e in finishes)
    anchored = {_FLOW_VPHYS_BASE + sid for sid in merger.kernel_anchors()}
    assert {e["id"] for e in finishes} <= anchored


def test_phys_accepts_raw_telemetry_and_plain_trace_unchanged(merged_run):
    """``phys=`` takes a PhysTelemetry directly (auto-merged), and
    omitting it keeps the physical plane entirely out of the export."""
    _, merger = merged_run
    events = events_of_empty_trace(phys=merger.telemetry)
    assert any(e.get("pid") == PID_PHYS for e in events)
    bare = events_of_empty_trace(phys=None)
    assert all(e.get("pid") != PID_PHYS for e in bare)


def events_of_empty_trace(*, phys):
    from repro.sim.trace import Trace
    return list(iter_chrome_events(Trace(), phys=phys))
