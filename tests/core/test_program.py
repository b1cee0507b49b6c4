"""Unit tests for the recursive program template (Listing 3)."""

import numpy as np
import pytest

from repro.apps import GemmApp, HotspotApp, ReduceApp, SortApp, SpmvApp
from repro.compute.processor import KernelCost, ProcessorKind
from repro.core.program import WRITE, NorthupProgram, Window
from repro.core.system import System
from repro.exec.base import Binding, kernel_spec
from repro.errors import SchedulerError
from repro.memory.units import KB, MB
from repro.obs.spans import analyze
from repro.sim.trace import Phase
from repro.topology.builders import apu_two_level, figure2_asymmetric
from repro.workloads.sparse import uniform_random
from tests.exec import kernels


class DoublingProgram(NorthupProgram):
    """Test program: doubles a byte vector chunk by chunk through the
    staging level, following Listing 3's structure exactly."""

    def __init__(self, system, n, chunks):
        self.n, self.num_chunks = n, chunks
        root = system.tree.root
        self.input = system.alloc(n, root, label="in")
        self.output = system.alloc(n, root, label="out")
        system.preload(self.input, (np.arange(n) % 100).astype(np.uint8))
        self.calls = {"decompose": 0, "access": 0, "child": 0,
                      "compute": 0}

    def decompose(self, ctx):
        self.calls["decompose"] += 1
        size = self.n // self.num_chunks
        return [(i, i * size, size) for i in range(self.num_chunks)]

    def access(self, ctx, chunk):
        self.calls["access"] += 1
        _i, off, size = chunk
        return [Window.span("in", self.input, off, size),
                Window.span("out", self.output, off, size, WRITE)]

    def child_problem(self, ctx, chunk, bufs):
        self.calls["child"] += 1
        return bufs

    def compute_task(self, ctx):
        self.calls["compute"] += 1
        sys_ = ctx.system
        bufs = ctx.payload
        gpu = ctx.get_device(ProcessorKind.GPU)

        sys_.launch(gpu, KernelCost(flops=1e6, bytes_read=bufs["in"].nbytes),
                    reads=(bufs["in"],), writes=(bufs["out"],),
                    kernel=kernel_spec(
                        kernels.double,
                        Binding.read("data", bufs["in"], np.uint8),
                        Binding.update("out", bufs["out"], np.uint8)))


@pytest.fixture
def apu_system():
    sys_ = System(apu_two_level(storage_capacity=64 * MB,
                                staging_bytes=1 * MB))
    yield sys_
    sys_.close()


def test_program_computes_correct_result(apu_system):
    prog = DoublingProgram(apu_system, n=4096, chunks=4)
    prog.run(apu_system)
    expected = ((np.arange(4096) % 100) * 2 % 256).astype(np.uint8)
    np.testing.assert_array_equal(apu_system.fetch(prog.output, np.uint8),
                                  expected)


def test_program_hook_call_counts(apu_system):
    prog = DoublingProgram(apu_system, n=4096, chunks=4)
    prog.run(apu_system)
    assert prog.calls == {"decompose": 1, "access": 4, "child": 4,
                          "compute": 4}


def test_program_releases_chunk_buffers(apu_system):
    prog = DoublingProgram(apu_system, n=4096, chunks=4)
    prog.run(apu_system)
    # Only the two root buffers remain live.
    assert apu_system.registry.live_count == 2


def test_program_charges_all_phases(apu_system):
    prog = DoublingProgram(apu_system, n=4096, chunks=4)
    prog.run(apu_system)
    bd = apu_system.breakdown()
    assert bd.gpu > 0 and bd.by_phase[Phase.SETUP] > 0 and bd.io > 0
    assert bd.runtime > 0


def test_bad_select_child_rejected(apu_system):
    class Bad(DoublingProgram):
        def select_child(self, ctx, chunk):
            return ctx.node  # not a child

    prog = Bad(apu_system, n=1024, chunks=1)
    with pytest.raises(SchedulerError):
        prog.run(apu_system)


def test_multi_branch_select_child():
    """Chunks can be spread over sibling subtrees (Figure 2, node 3)."""
    sys_ = System(figure2_asymmetric())
    try:
        seen_children = []

        class Spread(NorthupProgram):
            def decompose(self, ctx):
                if ctx.node.node_id == 3:
                    return [0, 1, 2, 3]
                return [0]

            def select_child(self, ctx, chunk):
                kids = ctx.node.children
                choice = kids[chunk % len(kids)] if isinstance(chunk, int) else kids[0]
                if ctx.node.node_id == 3:
                    seen_children.append(choice.node_id)
                return choice

            def compute_task(self, ctx):
                pass

        class Only3(Spread):
            # Route the root's single chunk into the node-3 subtree.
            def select_child(self, ctx, chunk):
                if ctx.node.node_id == 0:
                    return ctx.node.children[0]  # node 1
                if ctx.node.node_id == 1:
                    return ctx.node.children[0]  # node 3
                return super().select_child(ctx, chunk)

        Only3().run(sys_)
        assert seen_children == [6, 7, 6, 7]
    finally:
        sys_.close()


def test_level_queue_tracks_chunk_progress(apu_system):
    """Listing 1's work queues: n chunks -> n chunk chains in the
    level's plan, read as moving/resident/... and all done at the end."""
    observed = {}

    class Watcher(DoublingProgram):
        def child_problem(self, ctx, chunk, bufs):
            counts = ctx.node.plan.state_counts()
            observed.setdefault("during_down", []).append(counts["moving"])
            return super().child_problem(ctx, chunk, bufs)

        def compute_task(self, ctx):
            counts = ctx.parent_ctx.node.plan.state_counts()
            observed.setdefault("during_compute", []).append(
                counts["resident"])
            super().compute_task(ctx)

    prog = Watcher(apu_system, n=4096, chunks=4)
    prog.run(apu_system)
    # Exactly one chunk moving while its data moves down, one resident
    # while its leaf computes.
    assert observed["during_down"] == [1, 1, 1, 1]
    assert observed["during_compute"] == [1, 1, 1, 1]
    # The plan is anchored at the root node and fully drained.
    assert apu_system.tree.root.plan.state_counts() == {
        "queued": 0, "moving": 0, "resident": 0, "computed": 0, "done": 4}


_APPS = {
    "gemm": lambda s: GemmApp(s, m=96, k=96, n=96, seed=1),
    "hotspot": lambda s: HotspotApp(s, n=64, iterations=2, seed=1),
    "spmv": lambda s: SpmvApp(s, matrix=uniform_random(
        2000, 2000, nnz_per_row=6, seed=1), iterations=2),
    "sort": lambda s: SortApp(s, n=40_000, seed=1),
    "reduce": lambda s: ReduceApp(s, n=40_000, seed=1),
}


@pytest.mark.parametrize("name", sorted(_APPS))
def test_every_app_runs_under_one_root_span(name):
    """One driver for every app: phase loops (sort's merge, HotSpot's
    passes, SpMV's sweeps) run inside the base driver's ``run`` span,
    so the span tree has exactly one root and every interval the run
    charged is attributed to a span under it."""
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=64 * KB))
    try:
        app = _APPS[name](sys_)
        trace = sys_.timeline.trace
        built = len(list(trace.span_rows()))    # the root allocations
        app.run(sys_)
        roots = analyze(sys_.obs, trace).roots
        assert [r.span.kind for r in roots] == ["run"]
        assert roots[0].span.label == type(app).__name__
        sids = [sid for *_rest, sid in trace.span_rows()][built:]
        assert sids and all(sids)
    finally:
        sys_.close()
