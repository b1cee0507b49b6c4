"""Span tracker semantics and span-tree invariants."""

import pytest

from repro.apps import GemmApp
from repro.core.system import System
from repro.memory.units import KB, MB
from repro.obs.spans import (NULL_OBSERVER, Observer, Span, analyze)
from repro.sim.trace import Phase, Trace
from repro.topology.builders import apu_two_level


def test_open_close_maintains_active_span():
    obs = Observer()
    assert obs.trace.active_span == 0
    a = obs.open("run")
    assert obs.trace.active_span == a.span_id
    b = obs.open("divide")
    assert b.parent_id == a.span_id
    assert obs.trace.active_span == b.span_id
    obs.close(b)
    assert obs.trace.active_span == a.span_id
    obs.close(a)
    assert obs.trace.active_span == 0


def test_intervals_attribute_to_open_span():
    obs = Observer()
    t = obs.trace
    t.record_raw(0.0, 1.0, Phase.SETUP, "host")        # before any span
    a = obs.open("run")
    t.record_raw(1.0, 2.0, Phase.IO_READ, "ssd", nbytes=10)
    obs.close(a)
    t.record_raw(2.0, 3.0, Phase.SETUP, "host")        # after
    assert [sid for *_, sid in t.span_rows()] == [0, a.span_id, 0]


def test_explicit_span_id_wins_over_active():
    obs = Observer()
    a = obs.open("run")
    obs.trace.record_raw(0, 1, Phase.IO_WRITE, "ssd", span_id=a.span_id)
    obs.close(a)
    # Recorded after close, but explicitly attributed to the span.
    obs.trace.record_raw(1, 2, Phase.IO_WRITE, "ssd", span_id=a.span_id)
    tree = analyze(obs)
    assert tree.node(a.span_id).n_intervals == 2


def test_out_of_order_close_unwinds_descendants():
    obs = Observer()
    a = obs.open("run")
    obs.open("divide")
    obs.open("move_down")
    obs.close(a)  # closes the descendants too (exception unwinding)
    assert obs.trace.active_span == 0


def test_count_annotates_current_span():
    obs = Observer()
    s = obs.open("run")
    obs.count("cache_hits")
    obs.count("cache_hits", 2)
    obs.close(s)
    obs.count("cache_hits")  # no span open: dropped, no error
    assert s.attrs == {"cache_hits": 3}


def test_reset_forgets_spans():
    obs = Observer()
    obs.open("run")
    obs.reset()
    assert len(obs) == 0
    assert obs.trace.active_span == 0


def test_null_observer_allocates_no_spans():
    before = Span.allocated
    s = NULL_OBSERVER.open("run", "label", 7)
    NULL_OBSERVER.count("x")
    s.annotate("k", 1)
    s.count("k")
    NULL_OBSERVER.close(s)
    assert Span.allocated == before
    assert not NULL_OBSERVER.enabled
    assert len(NULL_OBSERVER) == 0


def test_trace_clear_resets_active_span():
    obs = Observer()
    obs.open("run")
    obs.trace.clear()
    assert obs.trace.active_span == 0


# -- tree invariants on a real run -------------------------------------------


@pytest.fixture(scope="module")
def gemm_run():
    system = System(apu_two_level(storage_capacity=8 * MB,
                                  staging_bytes=128 * KB))
    GemmApp(system, m=96, k=96, n=96, seed=2).run(system)
    yield system
    system.close()


def test_every_in_run_interval_reachable_from_root(gemm_run):
    """Every interval recorded during run() carries a span id whose
    chain of parents reaches the root 'run' span."""
    obs = gemm_run.obs
    spans = obs.spans
    root_ids = {s.span_id for s in spans[1:] if s.parent_id == 0}
    assert len(root_ids) == 1  # exactly one run() happened

    def root_of(sid):
        while spans[sid].parent_id:
            sid = spans[sid].parent_id
        return sid

    attributed = 0
    for *_rest, sid in gemm_run.timeline.trace.span_rows():
        if sid:
            assert root_of(sid) in root_ids
            attributed += 1
    assert attributed > 0


def test_children_nest_inside_parent_envelope(gemm_run):
    tree = analyze(gemm_run.obs, gemm_run.timeline.trace)
    checked = 0

    def walk(st):
        nonlocal checked
        for child in st.children:
            if child.has_extent:
                assert st.start <= child.start
                assert child.end <= st.end
                checked += 1
            walk(child)

    for root in tree.roots:
        walk(root)
    assert checked > 5


def test_root_span_envelope_covers_run(gemm_run):
    tree = analyze(gemm_run.obs, gemm_run.timeline.trace)
    root = tree.roots[0]
    assert root.span.kind == "run"
    assert root.span.label == "GemmApp"
    # The run span's envelope ends at the trace makespan (the last
    # charged interval happened inside the run).
    assert root.end == gemm_run.timeline.trace.makespan()


def test_recursion_kinds_present(gemm_run):
    kinds = analyze(gemm_run.obs).by_kind()
    for kind in ("run", "divide", "setup", "move_down", "compute",
                 "move_up", "combine"):
        assert kind in kinds, kind
    count, secs = kinds["compute"]
    assert count > 1 and secs > 0


def test_observe_off_is_bit_identical():
    def run(observe):
        system = System(apu_two_level(storage_capacity=8 * MB,
                                      staging_bytes=128 * KB),
                        observe=observe)
        try:
            GemmApp(system, m=96, k=96, n=96, seed=2).run(system)
            return system.makespan(), list(system.timeline.trace.rows())
        finally:
            system.close()

    ms_on, rows_on = run(True)
    before = Span.allocated
    ms_off, rows_off = run(False)
    assert Span.allocated == before  # disabled path allocates no spans
    assert ms_on == ms_off
    assert rows_on == rows_off


def test_analyze_empty_observer():
    tree = analyze(Observer())
    assert len(tree) == 0
    assert tree.roots == []
    assert tree.table() == "(no spans)"


def test_unattributed_intervals_counted():
    obs = Observer()
    obs.trace.record_raw(0, 1, Phase.SETUP, "host")
    tree = analyze(obs)
    assert tree.unattributed == 1
