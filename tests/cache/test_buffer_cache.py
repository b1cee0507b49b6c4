"""Core buffer-cache behaviour: hit/miss accounting, capacity
interplay with the allocator, pinning, invalidation, and MemBackend /
FileBackend parity."""

import numpy as np
import pytest

from repro.cache.manager import CacheConfig
from repro.core.system import System
from repro.errors import CacheError, ConfigError
from repro.memory.backends import FileBackend
from repro.memory.units import KB, MB
from repro.sim.trace import Phase
from repro.topology.builders import apu_two_level


def make_system(cache=None, *, staging=256 * KB, capacity=8 * MB, **tree_kw):
    tree = apu_two_level(storage_capacity=capacity, staging_bytes=staging,
                         **tree_kw)
    return System(tree, cache=cache)


def fill_root(system, nbytes, seed=0):
    rng = np.random.default_rng(seed)
    handle = system.alloc(nbytes, system.tree.root, label="src")
    system.preload(handle, rng.integers(0, 255, nbytes, dtype=np.uint8))
    return handle


# -- configuration -------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        CacheConfig(mode="sideways")
    with pytest.raises(ConfigError):
        CacheConfig(policy="clairvoyant")
    with pytest.raises(ConfigError):
        CacheConfig(lookahead=-1)
    with pytest.raises(ConfigError):
        CacheConfig(capacity_fraction=1.5)
    with pytest.raises(TypeError):   # up-moves are always write-through
        CacheConfig(write_policy="back")
    assert CacheConfig.disabled().mode == "off"


# -- hit/miss accounting -------------------------------------------------

def test_fetch_down_hit_miss_accounting():
    sys_ = make_system(CacheConfig(lookahead=0))
    try:
        src = fill_root(sys_, 64 * KB, seed=1)
        child = sys_.tree.root.children[0]
        h1 = sys_.fetch_down(child, src, nbytes=16 * KB, src_offset=4 * KB)
        sys_.fetch_release(h1)
        h2 = sys_.fetch_down(child, src, nbytes=16 * KB, src_offset=4 * KB)
        sys_.fetch_release(h2)
        st = sys_.cache.total_stats()
        assert (st.misses, st.hits) == (1, 1)
        assert st.miss_bytes == st.hit_bytes == 16 * KB
        # The hit cost only bookkeeping: one Phase.CACHE interval with
        # the served bytes, no second transfer.
        cache_ivs = [iv for iv in sys_.timeline.trace
                     if iv.phase is Phase.CACHE]
        assert len(cache_ivs) == 1 and cache_ivs[0].nbytes == 16 * KB
        transfers = [iv for iv in sys_.timeline.trace
                     if iv.phase is Phase.IO_READ]
        assert len(transfers) == 1
    finally:
        sys_.close()


def test_fetch_down_serves_correct_bytes():
    sys_ = make_system(CacheConfig(lookahead=0))
    try:
        rng = np.random.default_rng(3)
        data = rng.integers(0, 255, (64, 256), dtype=np.uint8)
        src = sys_.alloc(data.nbytes, sys_.tree.root, label="grid")
        sys_.preload(src, data)
        child = sys_.tree.root.children[0]
        # A strided 2-D window, fetched twice (miss then hit): both
        # leases must carry the packed window bytes.
        for _ in range(2):
            h = sys_.fetch_down(child, src, rows=8, row_bytes=32,
                                src_offset=2 * 256 + 16, src_stride=256)
            got = sys_.fetch(h, np.uint8, count=8 * 32).reshape(8, 32)
            np.testing.assert_array_equal(got, data[2:10, 16:48])
            sys_.fetch_release(h)
        st = sys_.cache.total_stats()
        assert (st.misses, st.hits) == (1, 1)
    finally:
        sys_.close()


def test_dense_window_is_one_block_whatever_its_shape():
    """The same bytes fetched as a contiguous range, a one-row window and
    a dense 4-row window are one cache block (the read-ahead's window
    identity), and a hit still lands in the shape that was asked for."""
    sys_ = make_system(CacheConfig(lookahead=0))
    try:
        src = fill_root(sys_, 4 * KB, seed=7)
        want = sys_.fetch(src, np.uint8, offset=1024, count=512)
        child = sys_.tree.root.children[0]
        for shape in (dict(nbytes=512),
                      dict(rows=1, row_bytes=512, src_stride=999),
                      dict(rows=4, row_bytes=128, src_stride=128)):
            h = sys_.fetch_down(child, src, src_offset=1024, **shape)
            np.testing.assert_array_equal(
                sys_.fetch(h, np.uint8, count=512), want)
            sys_.fetch_release(h)
        st = sys_.cache.total_stats()
        assert (st.misses, st.hits) == (1, 2)
    finally:
        sys_.close()
    sys_ = make_system(CacheConfig(mode="full", lookahead=0))
    try:
        src = fill_root(sys_, 4 * KB, seed=7)
        want = sys_.fetch(src, np.uint8, offset=1024, count=512)
        child = sys_.tree.root.children[0]
        a = sys_.alloc(512, child)
        b = sys_.alloc(1024, child)
        sys_.move(a, src, 512, src_offset=1024)
        sys_.move_2d(b, src, rows=4, row_bytes=128, src_offset=1024,
                     src_stride=128, dst_offset=0, dst_stride=256)
        got = sys_.fetch(b, np.uint8, count=1024).reshape(4, 256)
        np.testing.assert_array_equal(got[:, :128], want.reshape(4, 128))
        assert not got[:, 128:].any()
        st = sys_.cache.total_stats()
        assert (st.misses, st.hits) == (1, 1)
    finally:
        sys_.close()


def test_cache_off_degenerates_to_plain_staging():
    sys_ = make_system(CacheConfig.disabled())
    try:
        src = fill_root(sys_, 32 * KB)
        child = sys_.tree.root.children[0]
        before = sys_.registry.live_count
        h = sys_.fetch_down(child, src, nbytes=8 * KB)
        assert sys_.registry.live_count == before + 1
        sys_.fetch_release(h)
        assert sys_.registry.live_count == before
        assert h.released
        st = sys_.cache.total_stats()
        assert st.lookups == 0
    finally:
        sys_.close()


def test_transparent_mode_serves_moves_from_cache():
    """In "full" mode a repeated ancestor->descendant move is a hit:
    same bytes, no second transfer charged."""
    cached = make_system(CacheConfig(mode="full", lookahead=0))
    plain = make_system(CacheConfig.disabled())
    try:
        results = {}
        for name, sys_ in (("cached", cached), ("plain", plain)):
            src = fill_root(sys_, 64 * KB, seed=5)
            child = sys_.tree.root.children[0]
            a = sys_.alloc(16 * KB, child, label="a")
            b = sys_.alloc(16 * KB, child, label="b")
            sys_.move(a, src, 16 * KB, src_offset=8 * KB)
            sys_.move(b, src, 16 * KB, src_offset=8 * KB)
            results[name] = (sys_.fetch(a, np.uint8, count=16 * KB),
                             sys_.fetch(b, np.uint8, count=16 * KB))
        np.testing.assert_array_equal(*results["cached"])
        np.testing.assert_array_equal(results["cached"][1],
                                      results["plain"][1])
        st = cached.cache.total_stats()
        assert (st.misses, st.hits) == (1, 1)
        assert len([iv for iv in cached.timeline.trace
                    if iv.phase is Phase.IO_READ]) == 1
        assert cached.makespan() < plain.makespan()
    finally:
        cached.close()
        plain.close()


def test_explicit_mode_leaves_moves_alone():
    """The default mode never touches raw move/move_2d timing."""
    sys_ = make_system(CacheConfig())  # explicit
    try:
        src = fill_root(sys_, 64 * KB)
        child = sys_.tree.root.children[0]
        a = sys_.alloc(16 * KB, child, label="a")
        sys_.move(a, src, 16 * KB)
        sys_.move(a, src, 16 * KB)
        assert sys_.cache.total_stats().lookups == 0
        assert len([iv for iv in sys_.timeline.trace
                    if iv.phase is Phase.IO_READ]) == 2
    finally:
        sys_.close()


def test_source_rewrite_invalidates_cached_block():
    sys_ = make_system(CacheConfig(mode="full", lookahead=0))
    try:
        src = fill_root(sys_, 32 * KB, seed=7)
        child = sys_.tree.root.children[0]
        a = sys_.alloc(8 * KB, child, label="a")
        sys_.move(a, src, 8 * KB)
        rng = np.random.default_rng(8)
        fresh = rng.integers(0, 255, 32 * KB, dtype=np.uint8)
        sys_.preload(src, fresh)  # bumps the content version
        sys_.move(a, src, 8 * KB)
        st = sys_.cache.total_stats()
        assert (st.misses, st.hits) == (2, 0)
        np.testing.assert_array_equal(
            sys_.fetch(a, np.uint8, count=8 * KB), fresh[:8 * KB])
    finally:
        sys_.close()


def test_source_release_invalidates_cached_blocks():
    sys_ = make_system(CacheConfig(lookahead=0))
    try:
        src = fill_root(sys_, 32 * KB)
        child = sys_.tree.root.children[0]
        sys_.fetch_release(sys_.fetch_down(child, src, nbytes=8 * KB))
        cache = sys_.cache.node_cache(child)
        assert len(cache) == 1
        sys_.release(src)
        assert len(cache) == 0
    finally:
        sys_.close()


# -- pinning -------------------------------------------------------------

def test_pinned_blocks_refuse_eviction():
    # Cache budget fits two 8K blocks (and no third).
    sys_ = make_system(CacheConfig(lookahead=0, capacity_fraction=0.08),
                       staging=256 * KB)
    try:
        src = fill_root(sys_, 64 * KB)
        child = sys_.tree.root.children[0]
        budget = sys_.cache.node_cache(child).max_bytes
        assert 2 * 8 * KB <= budget < 3 * 8 * KB
        h1 = sys_.fetch_down(child, src, nbytes=8 * KB, src_offset=0)
        h2 = sys_.fetch_down(child, src, nbytes=8 * KB, src_offset=8 * KB)
        # Both leases still pinned: a third fetch cannot evict, so it
        # falls back to a plain (uncached) staging copy.
        h3 = sys_.fetch_down(child, src, nbytes=8 * KB, src_offset=16 * KB)
        st = sys_.cache.total_stats()
        assert st.evictions == 0 and st.misses == 3
        for h in (h1, h2):
            sys_.fetch_release(h)
        sys_.fetch_release(h3)  # plain lease: releases the buffer
        # Unpinned now; the same regions hit.
        for off in (0, 8 * KB):
            h = sys_.fetch_down(child, src, nbytes=8 * KB, src_offset=off)
            sys_.fetch_release(h)
        assert sys_.cache.total_stats().hits == 2
    finally:
        sys_.close()


def test_cache_backed_lease_rejects_plain_release():
    sys_ = make_system(CacheConfig(lookahead=0))
    try:
        src = fill_root(sys_, 32 * KB)
        child = sys_.tree.root.children[0]
        h = sys_.fetch_down(child, src, nbytes=8 * KB)
        with pytest.raises(CacheError):
            sys_.release(h)
        sys_.fetch_release(h)
    finally:
        sys_.close()


def test_fetch_release_of_unknown_handle_raises():
    sys_ = make_system(CacheConfig(lookahead=0))
    try:
        h = sys_.alloc(1 * KB, sys_.tree.root.children[0])
        with pytest.raises(CacheError):
            sys_.fetch_release(h)
    finally:
        sys_.close()


# -- capacity interplay --------------------------------------------------

def test_allocation_reclaims_cached_bytes():
    """Cached bytes genuinely occupy the node's allocator, and yield to
    application allocations on demand."""
    sys_ = make_system(CacheConfig(lookahead=0, capacity_fraction=0.5),
                       staging=64 * KB)
    try:
        src = fill_root(sys_, 64 * KB)
        child = sys_.tree.root.children[0]
        for off in (0, 16 * KB):
            sys_.fetch_release(
                sys_.fetch_down(child, src, nbytes=16 * KB, src_offset=off))
        assert child.used >= 32 * KB  # cache occupancy is real
        assert not child.device.allocator.can_fit(48 * KB)
        # The application allocation wins: blocks are evicted to fit.
        big = sys_.alloc(48 * KB, child, label="app")
        assert sys_.cache.total_stats().evictions == 2
        assert sys_.cache.node_cache(child).cached_bytes == 0
        sys_.release(big)
    finally:
        sys_.close()


def test_free_for_planning_counts_reclaimable():
    sys_ = make_system(CacheConfig(lookahead=0), staging=64 * KB)
    try:
        src = fill_root(sys_, 32 * KB)
        child = sys_.tree.root.children[0]
        base = sys_.free_for_planning(child)
        assert base == child.free
        sys_.fetch_release(
            sys_.fetch_down(child, src, nbytes=8 * KB))
        assert child.free == base - 8 * KB
        assert sys_.free_for_planning(child) == base
    finally:
        sys_.close()


def test_pinned_blocks_do_not_count_as_free():
    sys_ = make_system(CacheConfig(lookahead=0), staging=64 * KB)
    try:
        src = fill_root(sys_, 32 * KB)
        child = sys_.tree.root.children[0]
        base = sys_.free_for_planning(child)
        h = sys_.fetch_down(child, src, nbytes=8 * KB)  # stays pinned
        assert sys_.free_for_planning(child) == base - 8 * KB
        sys_.fetch_release(h)
    finally:
        sys_.close()


# -- end-of-run census ---------------------------------------------------

def test_end_run_restores_buffer_census():
    sys_ = make_system(CacheConfig(lookahead=0))
    try:
        src = fill_root(sys_, 32 * KB)
        child = sys_.tree.root.children[0]
        before = (sys_.registry.live_count, child.used)
        sys_.fetch_down(child, src, nbytes=8 * KB)   # lease left open
        sys_.fetch_down(child, src, nbytes=4 * KB, src_offset=16 * KB)
        sys_.cache.end_run()
        assert (sys_.registry.live_count, child.used) == before
        assert len(sys_.cache.node_cache(child)) == 0
    finally:
        sys_.close()


# -- profiler / trace integration ----------------------------------------

def test_hits_surface_in_breakdown_and_trace():
    sys_ = make_system(CacheConfig(mode="full", lookahead=0))
    try:
        src = fill_root(sys_, 64 * KB)
        child = sys_.tree.root.children[0]
        a = sys_.alloc(16 * KB, child, label="a")
        sys_.move(a, src, 16 * KB)
        sys_.move(a, src, 16 * KB)
        bd = sys_.breakdown()
        assert bd.by_phase[Phase.CACHE] > 0.0
        assert "cache" in bd.shares()
        assert any(iv.phase is Phase.CACHE and "cache-hit" in iv.label
                   for iv in sys_.timeline.trace)
        assert bd.bytes_by_phase[Phase.CACHE] == 16 * KB
    finally:
        sys_.close()


# -- backend parity ------------------------------------------------------

def test_filebackend_parity(tmp_path):
    """The cache is backend-agnostic: identical virtual timing, counters
    and served bytes whether the root's bytes live in RAM or files."""

    def run(backend=None):
        kw = {"storage": "ssd", "storage_backend": backend} if backend \
            else {}
        sys_ = make_system(CacheConfig(mode="full", lookahead=0),
                           staging=128 * KB, **kw)
        try:
            rng = np.random.default_rng(11)
            data = rng.integers(0, 255, 64 * KB, dtype=np.uint8)
            src = sys_.alloc(data.nbytes, sys_.tree.root, label="src")
            sys_.preload(src, data)
            child = sys_.tree.root.children[0]
            a = sys_.alloc(16 * KB, child, label="a")
            sys_.move(a, src, 16 * KB, src_offset=4 * KB)
            sys_.move(a, src, 16 * KB, src_offset=4 * KB)
            h = sys_.fetch_down(child, src, nbytes=16 * KB,
                                src_offset=4 * KB)
            got = sys_.fetch(h, np.uint8, count=16 * KB)
            sys_.fetch_release(h)
            st = sys_.cache.total_stats()
            return (sys_.makespan(), st.hits, st.misses, st.hit_bytes,
                    got, data[4 * KB:20 * KB])
        finally:
            sys_.close()

    mem = run()
    fil = run(FileBackend(str(tmp_path / "storage")))
    assert mem[:4] == fil[:4]
    assert mem[1] == 2 and mem[2] == 1  # move hit + fetch_down hit
    np.testing.assert_array_equal(mem[4], mem[5])
    np.testing.assert_array_equal(fil[4], fil[5])


def test_describe_reports_config_and_nodes():
    sys_ = make_system(CacheConfig(lookahead=0))
    try:
        src = fill_root(sys_, 32 * KB)
        child = sys_.tree.root.children[0]
        sys_.fetch_release(sys_.fetch_down(child, src, nbytes=8 * KB))
        text = sys_.cache.describe()
        assert "mode=explicit" in text and "policy=lru" in text
        assert f"node {child.node_id}" in text
        assert "hits=0 misses=1" in text
    finally:
        sys_.close()
