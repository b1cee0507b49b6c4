"""Tests for Chrome-trace export."""

import json

import numpy as np

from repro.apps import GemmApp
from repro.core.profiler import profile_trace
from repro.core.system import System
from repro.memory.units import KB, MB
from repro.sim.trace import Interval, Phase, Trace
from repro.tools.trace_export import (iter_chrome_events, read_chrome_trace,
                                      write_chrome_trace)
from repro.topology.builders import apu_two_level


def small_trace():
    t = Trace()
    t.record(Interval(0.0, 0.5, Phase.IO_READ, "ssd.ch", label="A down",
                      nbytes=1024))
    t.record(Interval(0.5, 1.5, Phase.GPU_COMPUTE, "gpu-apu",
                      label="gemm"))
    return t


def test_events_carry_timing_and_metadata():
    events = list(iter_chrome_events(small_trace()))
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(complete) == 2
    assert len(meta) == 2  # one thread-name record per resource
    io = next(e for e in complete if e["cat"] == "io_read")
    assert io["ts"] == 0.0 and io["dur"] == 0.5e6
    assert io["args"]["bytes"] == 1024
    assert io["name"] == "A down"
    names = {m["args"]["name"] for m in meta}
    assert names == {"ssd.ch", "gpu-apu"}


def test_resources_map_to_stable_tids():
    events = list(iter_chrome_events(small_trace()))
    by_resource = {}
    for e in events:
        if e["ph"] == "X":
            by_resource.setdefault(e["args"]["resource"], set()).add(e["tid"])
    for tids in by_resource.values():
        assert len(tids) == 1


def test_counter_events_accumulate_bytes_per_resource():
    t = small_trace()
    t.record(Interval(1.5, 2.0, Phase.IO_READ, "ssd.ch", label="B down",
                      nbytes=2048))
    counters = [e for e in iter_chrome_events(t) if e["ph"] == "C"]
    # Only transfer intervals with bytes feed counters: 2 on ssd.ch.
    assert [c["name"] for c in counters] == ["bytes:ssd.ch", "bytes:ssd.ch"]
    assert [c["args"]["cumulative_bytes"] for c in counters] == [1024, 3072]
    assert list(iter_chrome_events(t, counters=False)) == [
        e for e in iter_chrome_events(t) if e["ph"] != "C"]


def test_write_and_reload(tmp_path):
    path = tmp_path / "run.json"
    count = write_chrome_trace(small_trace(), str(path))
    # 2 complete + 1 byte counter + 2 thread-name metadata events.
    assert count == 5
    data = json.loads(path.read_text())
    assert data["displayTimeUnit"] == "ms"
    assert len(data["traceEvents"]) == 5


def test_streaming_write_matches_buffered_export(tmp_path):
    path = tmp_path / "run.json"
    events = list(iter_chrome_events(small_trace()))
    count = write_chrome_trace(small_trace(), str(path))
    assert count == len(events)
    assert json.loads(path.read_text())["traceEvents"] == events


def test_round_trip_reconstructs_trace_exactly(tmp_path):
    """Export -> parse -> per-resource/per-phase busy time matches the
    original Breakdown bit-exactly (the raw-seconds channel)."""
    system = System(apu_two_level(storage_capacity=8 * MB,
                                  staging_bytes=128 * KB))
    try:
        GemmApp(system, m=96, k=96, n=96, seed=2).run(system)
        trace = system.timeline.trace
        path = tmp_path / "gemm.json"
        write_chrome_trace(trace, str(path), spans=system.obs)
        reloaded = read_chrome_trace(str(path))
        assert len(reloaded) == len(trace)
        assert reloaded.by_resource() == trace.by_resource()
        assert reloaded.by_phase() == trace.by_phase()
        assert reloaded.bytes_by_phase() == trace.bytes_by_phase()
        b0, b1 = profile_trace(trace), profile_trace(reloaded)
        assert b1.makespan == b0.makespan
        assert b1.by_phase == b0.by_phase
        assert b1.bytes_by_phase == b0.bytes_by_phase
        # Labels and span attribution survive too.
        assert list(reloaded.span_rows()) == list(trace.span_rows())
    finally:
        system.close()


def test_span_and_flow_events(tmp_path):
    system = System(apu_two_level(storage_capacity=8 * MB,
                                  staging_bytes=128 * KB))
    try:
        GemmApp(system, m=96, k=96, n=96, seed=2).run(system)
        events = list(iter_chrome_events(system.timeline.trace,
                                         spans=system.obs))
        spans_b = [e for e in events if e["ph"] == "b" and e["cat"] == "span"]
        spans_e = [e for e in events if e["ph"] == "e" and e["cat"] == "span"]
        assert spans_b and len(spans_b) == len(spans_e)
        kinds = {e["name"].split(":")[0] for e in spans_b}
        assert {"divide", "move_down", "compute", "move_up"} <= kinds
        # Causality arrows: parent->child flows start and finish.
        tree_flows = [e for e in events if e.get("cat") == "span_tree"]
        starts = [e for e in tree_flows if e["ph"] == "s"]
        ends = [e for e in tree_flows if e["ph"] == "f"]
        assert starts and len(starts) == len(ends)
        assert {e["id"] for e in starts} == {e["id"] for e in ends}
        # Span events live on their own process, intervals on pid 1.
        assert {e["pid"] for e in spans_b} == {2}
        assert all(e["pid"] == 1 for e in events if e["ph"] == "X")
    finally:
        system.close()


def test_full_app_run_exports(tmp_path):
    system = System(apu_two_level(storage_capacity=8 * MB,
                                  staging_bytes=128 * KB))
    try:
        app = GemmApp(system, m=96, k=96, n=96, seed=2)
        app.run(system)
        np.testing.assert_allclose(app.result(), app.reference(),
                                   rtol=1e-3, atol=1e-4)
        path = tmp_path / "gemm.json"
        count = write_chrome_trace(system.timeline.trace, str(path))
        assert count > 50
        data = json.loads(path.read_text())
        cats = {e["cat"] for e in data["traceEvents"] if e["ph"] == "X"}
        assert {"io_read", "io_write", "gpu_compute", "setup"} <= cats
    finally:
        system.close()


def test_empty_trace():
    assert list(iter_chrome_events(Trace())) == []


def test_task_graph_edges_become_flow_arrows():
    """Lowered graphs passed via graphs= emit dep:* flow arrow pairs
    whose endpoints land on the edge's actual trace intervals."""
    from repro.apps.hotspot import HotspotApp
    from repro.core.scheduler import InOrderScheduler

    system = System(apu_two_level())
    try:
        app = HotspotApp(system, n=128, iterations=2, steps_per_pass=1,
                         force_tile=64, seed=1)
        sched = InOrderScheduler(keep_plans=True)
        app.run(system, scheduler=sched)
        graphs = [p.graph for p in sched.plans]
        events = list(iter_chrome_events(system.timeline.trace,
                                         graphs=graphs))
        flows = [e for e in events if e.get("cat") == "task_graph"]
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert starts and len(starts) == len(finishes)
        by_id = {}
        for e in flows:
            by_id.setdefault(e["id"], []).append(e)
        kinds = set()
        for pair in by_id.values():
            assert sorted(p["ph"] for p in pair) == ["f", "s"]
            s = next(p for p in pair if p["ph"] == "s")
            f = next(p for p in pair if p["ph"] == "f")
            assert s["name"] == f["name"] and s["name"].startswith("dep:")
            kinds.add(s["name"])
            assert s["name"] == f"dep:{s['args']['edge']}"
            assert "#" in s["args"]["src"] and "#" in s["args"]["dst"]
        assert "dep:chain" in kinds
        # Without graphs= no task_graph events appear.
        plain = list(iter_chrome_events(system.timeline.trace))
        assert not [e for e in plain if e.get("cat") == "task_graph"]
    finally:
        system.close()
