"""``System.move_down_batch``: batched chunk sweeps vs the move loop."""

import numpy as np
import pytest

from repro.cache.manager import CacheConfig
from repro.core.system import BatchMove, System
from repro.errors import TransferError
from repro.memory.units import KB, MB
from repro.sim.trace import Phase
from repro.topology.builders import apu_two_level, discrete_gpu_three_level


@pytest.fixture
def apu():
    system = System(apu_two_level(storage_capacity=64 * MB,
                                  staging_bytes=16 * MB))
    yield system
    system.close()


def _non_runtime_rows(system):
    return [row for row in system.timeline.trace.rows()
            if row[2] is not Phase.RUNTIME]


def _sweep(system, n, nbytes):
    root, leaf = system.tree.root, system.tree.leaves()[0]
    src = system.alloc(n * nbytes, root, label="staging")
    dsts = [system.alloc(nbytes, leaf, label=f"chunk{i}")
            for i in range(n)]
    for i in range(n):
        system.preload(src, np.full(nbytes, i % 251, dtype=np.uint8),
                       offset=i * nbytes)
    system.reset_time()
    return src, dsts


def test_batch_matches_sequential_loop(apu):
    """Same placements as a loop of move_down calls: identical transfer
    intervals, identical total runtime charge, identical results."""
    n, nbytes = 16, 8 * KB
    src, dsts = _sweep(apu, n, nbytes)
    loop = [apu.move_down(d, src, nbytes, src_offset=i * nbytes)
            for i, d in enumerate(dsts)]
    loop_rows = _non_runtime_rows(apu)
    loop_runtime = apu.timeline.trace.by_phase()[Phase.RUNTIME]
    loop_ops = apu.runtime_ops

    batch_sys = System(apu_two_level(storage_capacity=64 * MB,
                                     staging_bytes=16 * MB))
    try:
        src2, dsts2 = _sweep(batch_sys, n, nbytes)
        batch = batch_sys.move_down_batch(
            [BatchMove(d, src2, nbytes, src_offset=i * nbytes)
             for i, d in enumerate(dsts2)])
        assert [(r.start, r.end, r.nbytes, r.hops) for r in batch] == \
            [(r.start, r.end, r.nbytes, r.hops) for r in loop]
        assert _non_runtime_rows(batch_sys) == loop_rows
        # Runtime bookkeeping: same total ops and busy seconds, charged
        # as one aggregate interval instead of one per move.
        assert batch_sys.runtime_ops == loop_ops
        assert batch_sys.timeline.trace.by_phase()[Phase.RUNTIME] == \
            pytest.approx(loop_runtime)
        # The bytes really moved.
        for i, d in enumerate(dsts2):
            assert np.all(batch_sys.fetch(d, np.uint8) == i % 251)
    finally:
        batch_sys.close()


def test_batch_threads_dependency_chains():
    """A move reading a buffer an earlier move writes must see that
    move's completion in its ready time (run is split, not reordered)."""
    system = System(discrete_gpu_three_level(storage_capacity=64 * MB,
                                             staging_bytes=16 * MB,
                                             gpu_mem_bytes=8 * MB))
    try:
        root = system.tree.root
        dram = root.children[0]
        gpu = dram.children[0]
        src = system.alloc(8 * KB, root)
        mid = system.alloc(8 * KB, dram)
        dst = system.alloc(8 * KB, gpu)
        system.preload(src, np.arange(8 * KB, dtype=np.uint8))
        system.reset_time()
        first, second = system.move_down_batch([
            BatchMove(mid, src, 8 * KB),
            BatchMove(dst, mid, 8 * KB),   # reads what the first wrote
        ])
        assert second.start >= first.end
        assert np.array_equal(system.fetch(dst, np.uint8),
                              np.arange(8 * KB, dtype=np.uint8))
    finally:
        system.close()


def test_batch_validates_like_move(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    src = apu.alloc(8 * KB, root)
    dst = apu.alloc(8 * KB, leaf)
    with pytest.raises(TransferError):
        apu.move_down_batch([BatchMove(dst, src, -1)])
    with pytest.raises(TransferError):
        apu.move_down_batch([BatchMove(dst, src, 8 * KB, src_offset=1)])
    with pytest.raises(TransferError):  # wrong direction
        apu.move_down_batch([BatchMove(src, dst, 8 * KB)])
    assert apu.move_down_batch([]) == []


def test_batch_full_cache_mode_falls_back(apu):
    """In "full" mode the sweep must behave like per-move move_down:
    cache consults happen per move (second identical fetch hits)."""
    system = System(apu_two_level(storage_capacity=64 * MB,
                                  staging_bytes=16 * MB),
                    cache=CacheConfig(mode="full", lookahead=0))
    try:
        root, leaf = system.tree.root, system.tree.leaves()[0]
        src = system.alloc(8 * KB, root)
        d1 = system.alloc(8 * KB, leaf)
        d2 = system.alloc(8 * KB, leaf)
        system.move_down_batch([BatchMove(d1, src, 8 * KB),
                                BatchMove(d2, src, 8 * KB)])
        stats = system.cache.total_stats()
        assert stats.hits == 1 and stats.misses == 1
    finally:
        system.close()
