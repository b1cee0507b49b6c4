"""Lowering-contract tests: Listing 3 -> task graph, faithfully."""

import pytest

from repro.apps.gemm import GemmApp
from repro.apps.hotspot import HotspotApp
from repro.core.program import drive
from repro.core.scheduler import InOrderScheduler, PipelinedScheduler
from repro.core.system import System
from repro.plan.graph import (CHAIN, COMBINE, COMPUTE, MOVE_DOWN, MOVE_UP,
                              QUEUE, SETUP, WINDOW)
from repro.topology.builders import apu_two_level


@pytest.fixture
def hotspot_plans():
    system = System(apu_two_level())
    try:
        app = HotspotApp(system, n=128, iterations=2, steps_per_pass=1,
                         force_tile=64, seed=1)
        sched = InOrderScheduler(keep_plans=True)
        app.run(system, scheduler=sched)
        yield system, sched.plans
    finally:
        system.close()


def test_every_stage_becomes_a_typed_node(hotspot_plans):
    _system, plans = hotspot_plans
    assert plans, "no levels were lowered"
    for plan in plans:
        kinds = plan.graph.by_kind()
        chunks = kinds[COMPUTE]
        for kind in (SETUP, MOVE_DOWN, MOVE_UP, COMBINE):
            assert kinds[kind] == chunks, (
                f"{kind} nodes != {chunks} chunks in level "
                f"{plan.graph.level}")
        assert plan.graph.edges_by_kind()[CHAIN] == 4 * chunks


def test_executed_graph_is_complete_and_topological(hotspot_plans):
    _system, plans = hotspot_plans
    for plan in plans:
        g = plan.graph
        assert g.complete
        g.validate_topological(g.nodes)     # program order respects edges


def test_nodes_map_one_to_one_onto_spans(hotspot_plans):
    system, plans = hotspot_plans
    for plan in plans:
        span_ids = [n.span_id for n in plan.graph.nodes]
        assert all(s is not None for s in span_ids)
        assert len(set(span_ids)) == len(span_ids), "span reused"
        for node in plan.graph.nodes:
            span = system.obs.spans[node.span_id]
            assert span.kind == node.kind
        # interval windows nest inside the trace
        n_rows = len(system.timeline.trace)
        for node in plan.graph.nodes:
            assert 0 <= node.first_interval <= node.end_interval <= n_rows


def test_queue_edges_serialise_setups_and_combines(hotspot_plans):
    _system, plans = hotspot_plans
    for plan in plans:
        g = plan.graph
        by_kind = {}
        for src, dst, kind in g.edges():
            by_kind.setdefault(kind, []).append((src, dst))
        chunks = g.by_kind()[COMPUTE]
        if chunks < 2:
            continue
        setup_chain = [(s, d) for s, d in by_kind.get(QUEUE, ())
                       if s.kind == SETUP and d.kind == SETUP]
        combine_chain = [(s, d) for s, d in by_kind.get(QUEUE, ())
                         if s.kind == COMBINE and d.kind == COMBINE]
        assert len(setup_chain) == chunks - 1
        assert len(combine_chain) == chunks - 1
        for s, d in setup_chain + combine_chain:
            assert s.chunk_index + 1 == d.chunk_index


def test_window_edges_cap_chunks_in_flight():
    system = System(apu_two_level())
    try:
        app = HotspotApp(system, n=128, iterations=2, steps_per_pass=2,
                         force_tile=64, pipeline_depth=2, seed=1)
        sched = PipelinedScheduler(keep_plans=True)
        app.run(system, scheduler=sched)
        deep = [p for p in sched.plans
                if p.graph.by_kind()[COMPUTE] > p.graph.meta["window"]]
        assert deep, "expected a level with more chunks than the window"
        for plan in deep:
            g = plan.graph
            w = g.meta["window"]
            assert w >= 2
            window_edges = [(s, d) for s, d, k in g.edges() if k == WINDOW]
            assert window_edges
            for s, d in window_edges:
                assert s.kind == COMBINE and d.kind == SETUP
                assert d.chunk_index - s.chunk_index == w
    finally:
        system.close()


def test_gemm_pins_a_serial_window():
    """GEMM's C block accumulates across the k loop; its declared
    pipeline window must stay 1 so no scheduler reorders the chunks."""
    system = System(apu_two_level())
    try:
        app = GemmApp(system, m=96, k=96, n=96, seed=2)
        sched = PipelinedScheduler(keep_plans=True)
        app.run(system, scheduler=sched)
        assert sched.plans
        assert all(p.graph.meta["window"] == 1 for p in sched.plans)
    finally:
        system.close()


def test_buffer_edges_come_only_from_chunks_still_holding_buffers():
    """A chunk's move_down waits for exactly the earlier chunks whose
    windows it overlaps *and* whose combine has not run yet -- the set
    the setup thunk tracks instead of re-walking every earlier chunk."""
    from repro.core.context import root_context
    from repro.core.program import NorthupProgram
    from repro.plan.graph import BUFFER
    from repro.plan.lower import lower_level

    class Pooled(NorthupProgram):
        """Five chunks rotating over two preallocated leaf buffers."""

        def __init__(self, system):
            leaf = system.tree.root.children[0]
            self.pool = [system.alloc(64, leaf, label=f"pool{i}")
                         for i in range(2)]

        def decompose(self, ctx):
            return list(range(5))

        def setup_buffers(self, ctx, child, chunk):
            return {"buf": self.pool[chunk % 2]}

        def data_down(self, ctx, child_ctx, chunk):
            pass

        def compute_task(self, ctx):
            pass

        def data_up(self, ctx, child_ctx, chunk):
            pass

        def teardown_buffers(self, ctx, child_ctx, chunk):
            pass

    system = System(apu_two_level())
    try:
        plan = lower_level(Pooled(system), root_context(system), window=5)

        def run(chunk, *kinds):
            for kind in kinds:
                drive(plan.execute(plan.records[chunk].nodes[kind]))

        run(0, SETUP)
        run(1, SETUP)
        run(2, SETUP)                   # shares pool[0] with chunk 0
        run(0, MOVE_DOWN, COMPUTE, MOVE_UP, COMBINE)
        run(3, SETUP)                   # shares pool[1] with chunk 1
        run(4, SETUP)                   # pool[0]: chunk 0 is done, 2 is not
        edges = [(s.kind, s.chunk_index, d.kind, d.chunk_index)
                 for s, d, k in plan.graph.edges() if k == BUFFER]
        assert edges == [(COMBINE, 0, MOVE_DOWN, 2),
                         (COMBINE, 1, MOVE_DOWN, 3),
                         (COMBINE, 2, MOVE_DOWN, 4)]
        plan.close()
    finally:
        system.close()
