"""Failure injection: errors must surface cleanly and leave the system
in a usable, accountable state."""

import numpy as np
import pytest

from repro.apps.gemm import GemmApp
from repro.core.program import NorthupProgram, Window
from repro.core.system import System
from repro.errors import (AllocationError, CapacityError, NorthupError,
                          TransferError)
from repro.memory.units import KB, MB
from repro.topology.builders import apu_two_level


@pytest.fixture
def system():
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=64 * KB))
    yield sys_
    sys_.close()


def test_impossible_decomposition_raises_capacity_error():
    # Staging too small for x + any SpMV shard.
    from repro.apps.spmv import SpmvApp
    from repro.workloads.sparse import uniform_random
    sys_ = System(apu_two_level(storage_capacity=64 * MB,
                                staging_bytes=1 * KB))
    try:
        matrix = uniform_random(2000, 2000, nnz_per_row=8, seed=1)
        app = SpmvApp(sys_, matrix=matrix)
        with pytest.raises(NorthupError):
            app.run(sys_)
    finally:
        sys_.close()


def test_system_usable_after_failed_run(system):
    """A failed program leaves allocator invariants intact and the
    system able to serve new work."""

    class Exploding(NorthupProgram):
        def __init__(self):
            self.src = system.alloc(1024, system.tree.root)

        def decompose(self, ctx):
            return [0]

        def access(self, ctx, chunk):
            return [Window.span("buf", self.src, 0, 1024)]

        def child_problem(self, ctx, chunk, bufs):
            raise RuntimeError("injected fault")

        def compute_task(self, ctx):
            pass

    with pytest.raises(RuntimeError, match="injected fault"):
        Exploding().run(system)

    # Invariants hold and new allocations work.
    leaf = system.tree.leaves()[0]
    leaf.device.allocator.check_invariants()
    h = system.alloc(2048, leaf)
    system.preload(h, np.zeros(2048, dtype=np.uint8))
    system.release(h)


def test_failed_run_leaves_level_queue_evidence(system):
    """The per-level task queue records how far each chunk got --
    exactly the progress information Section III-C's queues exist for."""

    class FailsOnSecond(NorthupProgram):
        def decompose(self, ctx):
            return [0, 1, 2]

        def child_problem(self, ctx, chunk, bufs):
            if chunk == 1:
                raise RuntimeError("boom")

        def compute_task(self, ctx):
            pass

    with pytest.raises(RuntimeError):
        FailsOnSecond().run(system)
    counts = system.tree.root.plan.state_counts()
    assert counts["done"] == 1
    assert counts["moving"] == 1    # the chunk that died
    assert counts["queued"] == 1    # never started


def test_use_after_release_rejected_everywhere(system):
    root, leaf = system.tree.root, system.tree.leaves()[0]
    a = system.alloc(64, root)
    b = system.alloc(64, leaf)
    system.release(a)
    with pytest.raises(AllocationError):
        system.move_down(b, a, 64)
    with pytest.raises(AllocationError):
        system.preload(a, np.zeros(64, dtype=np.uint8))
    with pytest.raises(AllocationError):
        system.fetch(a, np.uint8)
    with pytest.raises(AllocationError):
        system.release(a)


def test_capacity_error_reports_sizes(system):
    leaf = system.tree.leaves()[0]
    with pytest.raises(CapacityError) as exc:
        system.alloc(1 * MB, leaf)
    assert exc.value.requested >= 1 * MB
    assert exc.value.available <= 64 * KB


def test_oversized_single_tile_fails_loudly(system):
    """A problem whose smallest decomposition cannot fit the staging
    buffer raises rather than silently thrashing."""
    app = GemmApp(system, m=8, k=8, n=8, seed=1,
                  force_tiles=None)
    # Force tiles larger than the 64 KB staging buffer.
    from repro.apps.gemm import GemmTiles
    app.force_tiles = GemmTiles(tm=8, tn=8, tk=8)
    app.run(system)  # 8x8 fits; now inject an absurd tile on a big problem
    app.release_root_buffers()

    big = GemmApp(system, m=512, k=512, n=512, seed=1,
                  force_tiles=GemmTiles(tm=512, tn=512, tk=512))
    with pytest.raises(CapacityError):
        big.run(system)


def test_cross_system_handles_rejected():
    s1 = System(apu_two_level(storage_capacity=8 * MB,
                              staging_bytes=64 * KB))
    s2 = System(apu_two_level(storage_capacity=8 * MB,
                              staging_bytes=64 * KB))
    try:
        h1 = s1.alloc(64, s1.tree.root)
        h2 = s2.alloc(64, s2.tree.root)
        with pytest.raises(AllocationError):
            s2.move(h2, h1, 64)
    finally:
        s1.close()
        s2.close()


def test_negative_and_oob_transfers_rejected(system):
    root, leaf = system.tree.root, system.tree.leaves()[0]
    a = system.alloc(64, root)
    b = system.alloc(64, leaf)
    for bad in [
        lambda: system.move(b, a, -5),
        lambda: system.move(b, a, 32, src_offset=40),
        lambda: system.move_2d(b, a, rows=2, row_bytes=40, src_offset=0,
                               src_stride=40, dst_offset=0, dst_stride=40),
    ]:
        with pytest.raises(TransferError):
            bad()
