"""Unit tests for resource timelines, including overlap semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim.timeline import Timeline
from repro.sim.trace import Phase


def test_resource_serialises_operations():
    tl = Timeline()
    a = tl.charge("gpu", 1.0, Phase.GPU_COMPUTE)
    b = tl.charge("gpu", 2.0, Phase.GPU_COMPUTE)
    assert (a.start, a.end) == (0.0, 1.0)
    assert (b.start, b.end) == (1.0, 3.0)


def test_distinct_resources_overlap():
    tl = Timeline()
    a = tl.charge("gpu", 2.0, Phase.GPU_COMPUTE)
    b = tl.charge("ssd.ch", 2.0, Phase.IO_READ)
    assert a.start == b.start == 0.0
    assert tl.makespan() == pytest.approx(2.0)


def test_ready_time_delays_start():
    tl = Timeline()
    c = tl.charge("gpu", 1.0, Phase.GPU_COMPUTE, ready=5.0)
    assert (c.start, c.end) == (5.0, 6.0)


def test_dependency_chain_models_pipeline():
    # Two chunks: load then compute, loads serialise on storage, computes
    # on the GPU; the second load overlaps the first compute.
    tl = Timeline()
    load1 = tl.charge("ssd.ch", 2.0, Phase.IO_READ)
    load2 = tl.charge("ssd.ch", 2.0, Phase.IO_READ)
    comp1 = tl.charge("gpu", 3.0, Phase.GPU_COMPUTE, ready=load1.end)
    comp2 = tl.charge("gpu", 3.0, Phase.GPU_COMPUTE, ready=load2.end)
    assert comp1.start == pytest.approx(2.0)
    assert load2.start == pytest.approx(2.0)  # overlaps comp1
    assert comp2.start == pytest.approx(5.0)  # gpu busy until then
    assert tl.makespan() == pytest.approx(8.0)


def test_charge_path_holds_all_resources():
    tl = Timeline()
    tl.charge("ssd.ch", 1.0, Phase.IO_READ)
    p = tl.charge_path(["ssd.ch", "membus"], 2.0, Phase.IO_READ)
    # Path transfer waits for the SSD channel even though membus is free.
    assert p.start == pytest.approx(1.0)
    # membus is busy for [1, 3): a long op lands after it...
    nxt = tl.charge("membus", 2.0, Phase.MEM_COPY)
    assert nxt.start == pytest.approx(p.end)
    # ...but a short op backfills into the [0, 1) idle gap.
    gap = tl.charge("membus", 0.5, Phase.MEM_COPY)
    assert gap.start == pytest.approx(0.0)


def test_backfill_into_idle_gap():
    """An operation issued later may start earlier when a gap fits it --
    the mechanism that lets prefetch loads overlap kernels even though
    the program charges operations sequentially."""
    tl = Timeline()
    a = tl.charge("ssd.ch", 1.0, Phase.IO_READ, ready=5.0)   # [5, 6)
    b = tl.charge("ssd.ch", 2.0, Phase.IO_READ, ready=0.0)   # fits [0, 2)
    assert a.start == pytest.approx(5.0)
    assert b.start == pytest.approx(0.0)
    c = tl.charge("ssd.ch", 4.0, Phase.IO_READ, ready=0.0)   # gap too small
    assert c.start == pytest.approx(6.0)
    d = tl.charge("ssd.ch", 3.0, Phase.IO_READ, ready=2.0)   # exact [2, 5) fit
    assert d.start == pytest.approx(2.0)


def test_charge_path_requires_resources():
    tl = Timeline()
    with pytest.raises(SimulationError):
        tl.charge_path([], 1.0, Phase.IO_READ)


def test_negative_duration_rejected():
    tl = Timeline()
    with pytest.raises(SimulationError):
        tl.charge("gpu", -1.0, Phase.GPU_COMPUTE)


def test_resource_identity_is_cached():
    tl = Timeline()
    assert tl.resource("gpu") is tl.resource("gpu")


def test_trace_records_bytes_and_labels():
    tl = Timeline()
    tl.charge("ssd.ch", 1.0, Phase.IO_READ, label="chunk0", nbytes=4096)
    (interval,) = tl.trace.intervals
    assert interval.label == "chunk0"
    assert interval.nbytes == 4096
    assert interval.resource == "ssd.ch"


def test_reset_clears_everything():
    tl = Timeline()
    tl.charge("gpu", 1.0, Phase.GPU_COMPUTE)
    tl.reset()
    assert len(tl.trace) == 0
    assert tl.charge("gpu", 1.0, Phase.GPU_COMPUTE).start == 0.0


def test_charge_path_converges_under_contention():
    """Multi-resource negotiation against resources whose schedules are
    already fragmented must settle on a start feasible for every member
    (the structural-convergence guarantee)."""
    tl = Timeline()
    # Fragment three resources with mutually offset bookings.
    for i in range(12):
        tl.charge("a", 0.5, Phase.IO_READ, ready=i * 1.0)
        tl.charge("b", 0.5, Phase.IO_READ, ready=i * 1.0 + 0.25)
        tl.charge("c", 0.5, Phase.IO_READ, ready=i * 1.0 + 0.5)
    done = tl.charge_path(["a", "b", "c"], 0.75, Phase.DEV_TRANSFER)
    # The negotiated interval must be idle on all three members.
    for name in ("a", "b", "c"):
        res = tl.resource(name)
        assert res.earliest_start(done.start, 0.0) <= done.start + 1e-12
    # And later path charges keep converging as fragmentation grows.
    prev = done
    for _ in range(10):
        nxt = tl.charge_path(["a", "b", "c"], 0.75, Phase.DEV_TRANSFER,
                             ready=prev.start)
        assert nxt.start >= prev.start
        prev = nxt


def test_charge_batch_matches_charge_loop():
    ops = [(0.5, 0.0), (0.25, 3.0, "lbl"), (1.0, 0.2, "x", 64)]
    tl_loop, tl_batch = Timeline(), Timeline()
    loop = [tl_loop.charge("dev", d, Phase.IO_READ, ready=r,
                           label=rest[0] if rest else "",
                           nbytes=rest[1] if len(rest) > 1 else 0)
            for d, r, *rest in ops]
    batch = tl_batch.charge_batch("dev", ops, Phase.IO_READ)
    assert [(c.start, c.end) for c in loop] == \
        [(c.start, c.end) for c in batch]
    assert list(tl_loop.trace.rows()) == list(tl_batch.trace.rows())


def test_charge_path_batch_matches_charge_path_loop():
    ops = [(0.5, 0.0), (0.5, 0.0), (0.25, 0.1, "hop", 128)]
    tl_loop, tl_batch = Timeline(), Timeline()
    loop = [tl_loop.charge_path(["a", "b"], d, Phase.DEV_TRANSFER, ready=r,
                                label=rest[0] if rest else "",
                                nbytes=rest[1] if len(rest) > 1 else 0)
            for d, r, *rest in ops]
    batch = tl_batch.charge_path_batch(["a", "b"], ops, Phase.DEV_TRANSFER)
    assert [(c.start, c.end) for c in loop] == \
        [(c.start, c.end) for c in batch]
    assert list(tl_loop.trace.rows()) == list(tl_batch.trace.rows())


def test_charge_path_batch_rejects_negative_duration():
    tl = Timeline()
    with pytest.raises(SimulationError, match="negative duration"):
        tl.charge_path_batch(["a"], [(1.0, 0.0), (-0.5, 0.0)],
                             Phase.IO_READ)
