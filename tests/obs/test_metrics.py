"""Metrics registry: counters, gauges, histograms, collectors, export."""

import json

import pytest

from repro.apps import GemmApp
from repro.core.system import System
from repro.memory.units import KB, MB
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.topology.builders import apu_two_level


def test_counter_accumulates_per_labelset():
    reg = MetricsRegistry()
    reg.counter("steals_total", labels={"queue": "gpu0"})
    reg.counter("steals_total", 2, labels={"queue": "gpu0"})
    reg.counter("steals_total", labels={"queue": "cpu0"})
    snap = reg.snapshot()
    rows = {tuple(r["labels"].items()): r["value"]
            for r in snap["steals_total"]}
    assert rows[(("queue", "gpu0"),)] == 3
    assert rows[(("queue", "cpu0"),)] == 1


def test_gauge_overwrites():
    reg = MetricsRegistry()
    reg.gauge("depth", 4)
    reg.gauge("depth", 7)
    assert reg.snapshot()["depth"][0]["value"] == 7


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x", 1.0)


def test_histogram_buckets_cumulative():
    h = Histogram(buckets=(1.0, 10.0))
    for v in (0.5, 1.0, 5.0, 100.0):
        h.observe(v)
    cum = dict(h.cumulative())
    assert cum[1.0] == 2          # 0.5 and the exact 1.0
    assert cum[10.0] == 3
    assert cum[float("inf")] == 4
    assert h.count == 4 and h.total == 106.5


def test_histogram_via_registry():
    reg = MetricsRegistry()
    for v in (1e-4, 2e-3):
        reg.histogram("move_seconds", v, labels={"edge": "ssd-dram"})
    row = reg.snapshot()["move_seconds"][0]
    assert row["histogram"]["count"] == 2
    assert row["labels"] == {"edge": "ssd-dram"}


def test_collectors_pull_at_snapshot_time():
    reg = MetricsRegistry()
    state = {"hits": 0}
    reg.register_collector(lambda r: r.gauge("hits", state["hits"]))
    state["hits"] = 42
    assert reg.snapshot()["hits"][0]["value"] == 42
    state["hits"] = 43
    assert reg.snapshot()["hits"][0]["value"] == 43


def test_prometheus_text_format():
    reg = MetricsRegistry()
    reg.counter("ops_total", 5, labels={"kind": "move"},
                help_text="operations")
    reg.gauge("depth", 2.5)
    reg.histogram("lat", 0.5, buckets=(1.0,))
    text = reg.to_prometheus()
    assert '# TYPE ops_total counter' in text
    assert '# HELP ops_total operations' in text
    assert 'ops_total{kind="move"} 5' in text
    assert "depth 2.5" in text
    assert 'lat_bucket{le="1.0"} 1' in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert "lat_count 1" in text


def test_json_export_parses():
    reg = MetricsRegistry()
    reg.counter("a", 1)
    assert json.loads(reg.to_json())["a"][0]["value"] == 1


def test_close_takes_a_last_reading_and_drops_collectors():
    reg = MetricsRegistry()
    box = {"n": 1}
    reg.register_collector(lambda r: r.gauge("n", box["n"]))
    box["n"] = 2
    reg.close()
    box["n"] = 3
    assert reg.snapshot()["n"][0]["value"] == 2


def test_clear_keeps_collectors():
    reg = MetricsRegistry()
    reg.register_collector(lambda r: r.gauge("g", 1))
    reg.counter("c")
    reg.clear()
    snap = reg.snapshot()
    assert "c" not in snap and "g" in snap


def test_system_metrics_unify_runtime_counters():
    """After a run, one snapshot covers cache stats, fd pool, array
    pool, trace aggregates and wall stats."""
    system = System(apu_two_level(storage_capacity=8 * MB,
                                  staging_bytes=128 * KB))
    try:
        GemmApp(system, m=96, k=96, n=96, seed=2).run(system)
        snap = system.metrics.snapshot()
        assert snap["trace_intervals"][0]["value"] == \
            len(system.timeline.trace)
        assert snap["virtual_makespan_seconds"][0]["value"] == \
            system.timeline.makespan()
        assert snap["runtime_ops"][0]["value"] == system.runtime_ops
        assert snap["wall_bytes_moved"][0]["value"] == \
            system.wall.bytes_moved
        phases = {tuple(r["labels"].items())[0][1]
                  for r in snap["virtual_busy_seconds"]}
        assert "gpu_compute" in phases and "io_read" in phases
        # Prometheus export of the same registry renders.
        text = system.metrics.to_prometheus()
        assert "virtual_makespan_seconds" in text
    finally:
        system.close()


def test_level_queue_state_counts_exported():
    """The level plans' per-state chunk counts surface as a pull
    collector gauge and in the RunReport table."""
    from repro.apps.hotspot import HotspotApp
    from repro.core.system import System
    from repro.obs.report import RunReport
    from repro.topology.builders import apu_two_level

    system = System(apu_two_level())
    try:
        app = HotspotApp(system, n=128, iterations=2, steps_per_pass=1,
                         force_tile=64, seed=1)
        app.run(system)
        snap = system.metrics.snapshot()
        rows = snap.get("level_queue_state", [])
        assert rows, "no level_queue_state gauges exported"
        for row in rows:
            assert {"node", "level", "state"} <= set(row["labels"])
        done = sum(r["value"] for r in rows
                   if r["labels"]["state"] == "done")
        assert done > 0
        # Every task ended done: no other state carries a count.
        assert all(r["value"] == 0 for r in rows
                   if r["labels"]["state"] != "done")
        tasks = {(r["labels"]["node"], r["labels"]["level"]): r["value"]
                 for r in snap["level_queue_tasks"]}
        assert sum(tasks.values()) == done
        # The default (explicit) cache plans no prefetch.
        assert all(r["value"] == 0
                   for r in snap["level_queue_prefetch_planned"])
        report = RunReport.from_system(system, name="hotspot")
        assert "level-queue task states" in report.table()
        assert "done=" in report.table()
    finally:
        system.close()


def test_level_queue_counts_prefetch_planned_chunks():
    """A level whose hints a full-mode cache planned counts every one
    of its chunks as prefetch-planned."""
    from repro.apps.hotspot import HotspotApp
    from repro.cache.manager import CacheConfig
    from repro.core.system import System
    from repro.topology.builders import apu_two_level

    system = System(apu_two_level(), cache=CacheConfig(mode="full"))
    try:
        HotspotApp(system, n=128, iterations=2, steps_per_pass=1,
                   force_tile=64, seed=1).run(system)
        snap = system.metrics.snapshot()
        tasks = {(r["labels"]["node"], r["labels"]["level"]): r["value"]
                 for r in snap["level_queue_tasks"]}
        planned = {(r["labels"]["node"], r["labels"]["level"]): r["value"]
                   for r in snap["level_queue_prefetch_planned"]}
        assert planned.keys() == tasks.keys()
        assert all(planned[key] in (0, n) for key, n in tasks.items())
        assert any(planned.values())
    finally:
        system.close()
