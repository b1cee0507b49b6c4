"""Critical-path extraction: serial chains, pipelined runs, Figure 11
attribution."""

import pytest

from repro.core.stealing import StealConfig, simulate
from repro.obs.critical import critical_path
from repro.obs.spans import Observer
from repro.sim.trace import Interval, Phase, Trace


def serial_trace():
    """Three back-to-back intervals: load, compute, write."""
    t = Trace()
    t.record(Interval(0.0, 1.0, Phase.IO_READ, "ssd", nbytes=100))
    t.record(Interval(1.0, 3.0, Phase.GPU_COMPUTE, "gpu"))
    t.record(Interval(3.0, 3.5, Phase.IO_WRITE, "ssd", nbytes=50))
    return t


def test_serial_chain_length_equals_makespan():
    cp = critical_path(serial_trace())
    assert len(cp) == 3
    assert cp.busy_seconds == pytest.approx(3.5)
    assert cp.slack_seconds == 0.0
    assert cp.length == cp.makespan == pytest.approx(3.5)
    assert [s.phase for s in cp.steps] == [Phase.IO_READ, Phase.GPU_COMPUTE,
                                           Phase.IO_WRITE]


def test_path_skips_off_path_parallel_work():
    t = serial_trace()
    # A short parallel interval that finishes early: not on the path.
    t.record(Interval(0.0, 0.2, Phase.SETUP, "host"))
    cp = critical_path(t)
    assert len(cp) == 3
    assert Phase.SETUP not in cp.by_phase()


def test_slack_reports_scheduling_gaps():
    t = Trace()
    t.record(Interval(0.0, 1.0, Phase.IO_READ, "ssd"))
    t.record(Interval(1.5, 2.0, Phase.GPU_COMPUTE, "gpu"))  # 0.5s gap
    cp = critical_path(t)
    assert cp.busy_seconds == pytest.approx(1.5)
    assert cp.slack_seconds == pytest.approx(0.5)
    assert cp.length == pytest.approx(2.0)


def test_predecessor_is_latest_ending_eligible():
    t = Trace()
    t.record(Interval(0.0, 0.4, Phase.SETUP, "host"))
    t.record(Interval(0.0, 0.9, Phase.IO_READ, "ssd"))   # latest eligible
    t.record(Interval(1.0, 2.0, Phase.GPU_COMPUTE, "gpu"))
    cp = critical_path(t)
    assert [s.phase for s in cp.steps] == [Phase.IO_READ, Phase.GPU_COMPUTE]


def test_empty_trace():
    cp = critical_path(Trace())
    assert len(cp) == 0
    assert cp.length == 0.0
    assert cp.dominant_phase() is None
    assert "empty" in cp.table()


def test_by_span_and_top_spans():
    t = Trace()
    t.record(Interval(0.0, 1.0, Phase.IO_READ, "ssd", span_id=5))
    t.record(Interval(1.0, 3.0, Phase.GPU_COMPUTE, "gpu", span_id=7))
    cp = critical_path(t)
    assert cp.by_span() == {7: 2.0, 5: 1.0}
    assert cp.top_spans(1) == [(7, 2.0)]


def test_table_renders():
    text = critical_path(serial_trace()).table()
    assert "critical path: 3 steps" in text
    assert "gpu_compute" in text and "io_read" in text


# -- Figure 11 attribution ---------------------------------------------------

def _fig11_cfg(**over):
    base = dict(matrix_dim=512, chunk_dim=256, gpu_queues=32, cpu_threads=4,
                gpu_cells_per_s=2e9, cpu_cells_per_s=4e8,
                ssd_read_bw=2e9, ssd_write_bw=1.5e9, steps_per_chunk=32)
    base.update(over)
    return StealConfig(**base)


def test_balanced_run_attributes_to_compute():
    """Compute-bound configuration: the critical path is dominated by
    the workers' compute phase."""
    obs = Observer()
    stats = simulate(_fig11_cfg(), observer=obs)
    cp = critical_path(obs.trace)
    assert cp.dominant_phase() is Phase.GPU_COMPUTE
    by_phase = cp.by_phase()
    assert by_phase[Phase.GPU_COMPUTE] > \
        by_phase.get(Phase.IO_READ, 0.0) + by_phase.get(Phase.IO_WRITE, 0.0)
    assert stats.makespan == pytest.approx(obs.trace.makespan())


def test_unbalanced_run_attributes_to_slow_edge():
    """Starve the storage edge: the critical path pins the SSD channel."""
    obs = Observer()
    simulate(_fig11_cfg(ssd_read_bw=5e7, ssd_write_bw=5e7), observer=obs)
    cp = critical_path(obs.trace)
    assert cp.dominant_phase() in (Phase.IO_READ, Phase.IO_WRITE)
    by_resource = cp.by_resource()
    assert max(by_resource, key=by_resource.get) == "ssd.ch"


def test_observer_does_not_change_steal_stats():
    cfg = _fig11_cfg()
    plain = simulate(cfg)
    observed = simulate(cfg, observer=Observer())
    assert plain == observed


def test_chunk_spans_recorded():
    obs = Observer()
    cfg = _fig11_cfg()
    simulate(cfg, observer=obs)
    kinds = [s.kind for s in obs.spans[1:]]
    assert kinds.count("chunk") == cfg.num_chunks
    # Writebacks are attributed to their chunk's span.
    wb = [row[6] for row in obs.trace.span_rows()
          if row[2] is Phase.IO_WRITE]
    assert wb and all(sid > 0 for sid in wb)

