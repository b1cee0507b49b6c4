"""Eviction-policy ordering, the prefetch engine, and ``move_up``'s
write-through charge."""

import numpy as np
import pytest

from repro.cache.manager import CacheConfig
from repro.cache.spec import FetchSpec
from repro.core.system import System
from repro.memory.units import KB, MB
from repro.sim.trace import Phase
from repro.topology.builders import apu_two_level


def make_system(cache, *, staging=256 * KB):
    tree = apu_two_level(storage_capacity=8 * MB, staging_bytes=staging)
    return System(tree, cache=cache)


def fill_root(system, nbytes, seed=0):
    rng = np.random.default_rng(seed)
    handle = system.alloc(nbytes, system.tree.root, label="src")
    system.preload(handle, rng.integers(0, 255, nbytes, dtype=np.uint8))
    return handle


def fetch(sys_, src, off, nbytes=8 * KB):
    """One unpinned demand access to a region."""
    child = sys_.tree.root.children[0]
    sys_.fetch_release(
        sys_.fetch_down(child, src, nbytes=nbytes, src_offset=off))


# -- eviction order per policy ------------------------------------------

def two_block_system(policy):
    # capacity_fraction 0.08 of 256K staging = 20480 B: two 8 KB blocks
    # fit, a third must evict.
    return make_system(CacheConfig(policy=policy, lookahead=0,
                                   capacity_fraction=0.08))


def resident_offsets(sys_):
    child = sys_.tree.root.children[0]
    return sorted(b.spec.offset for b in
                  sys_.cache.node_cache(child).blocks())


A, B, C = 0, 8 * KB, 16 * KB


def test_lru_evicts_least_recently_used():
    sys_ = two_block_system("lru")
    try:
        src = fill_root(sys_, 64 * KB)
        fetch(sys_, src, A)
        fetch(sys_, src, B)
        fetch(sys_, src, A)          # A now more recent than B
        fetch(sys_, src, C)          # must evict B
        assert resident_offsets(sys_) == [A, C]
        st = sys_.cache.total_stats()
        assert (st.hits, st.misses, st.evictions) == (1, 3, 1)
    finally:
        sys_.close()


def test_lfu_evicts_least_frequently_used():
    sys_ = two_block_system("lfu")
    try:
        src = fill_root(sys_, 64 * KB)
        fetch(sys_, src, A)
        fetch(sys_, src, B)
        fetch(sys_, src, B)          # B: 2 uses, A: 1 use
        fetch(sys_, src, C)          # must evict A
        assert resident_offsets(sys_) == [B, C]
    finally:
        sys_.close()


def test_cost_aware_evicts_cheapest_refetch():
    sys_ = make_system(CacheConfig(policy="cost", lookahead=0,
                                   capacity_fraction=0.08))
    try:
        src = fill_root(sys_, 64 * KB)
        fetch(sys_, src, 0, nbytes=10 * KB)      # big: expensive refetch
        fetch(sys_, src, 10 * KB, nbytes=5 * KB)  # small: cheap refetch
        fetch(sys_, src, 16 * KB, nbytes=9 * KB)  # needs one eviction
        # LRU would evict the big block (older); cost keeps it.
        assert resident_offsets(sys_) == [0, 16 * KB]
    finally:
        sys_.close()


def test_oracle_bypasses_instead_of_churning():
    """On a reuse pattern, forced admission is a loss: the Belady policy
    refuses to displace a sooner-reused block with a never-reused one,
    which plain LRU cannot know to do."""

    def run(policy):
        sys_ = two_block_system(policy)
        try:
            src = fill_root(sys_, 64 * KB)
            child = sys_.tree.root.children[0]
            plan = [FetchSpec.contiguous(src, off, 8 * KB)
                    for off in (A, B, C, A, B)]
            sys_.cache.engine.plan_level(sys_.tree.root,
                                         [(child, s) for s in plan])
            for off in (A, B, C, A, B):
                fetch(sys_, src, off)
            return sys_.cache.total_stats()
        finally:
            sys_.close()

    lru = run("lru")
    oracle = run("oracle")
    # LRU admits C (evicting A), then A (evicting B), then B (evicting
    # C): five transfers, zero hits.
    assert lru.hits == 0 and lru.evictions == 3
    # The oracle bypasses C -- never reused -- and serves A and B.
    assert oracle.hits == 2 and oracle.evictions == 0
    assert oracle.misses == 3
    assert lru.miss_bytes - oracle.miss_bytes == 2 * 8 * KB


# -- prefetch engine -----------------------------------------------------

def test_plan_level_and_future_distance():
    sys_ = make_system(CacheConfig(lookahead=0))
    try:
        src = fill_root(sys_, 64 * KB)
        root = sys_.tree.root
        child = root.children[0]
        engine = sys_.cache.engine
        specs = [FetchSpec.contiguous(src, off, 8 * KB)
                 for off in (A, B, A)]
        assert engine.plan_level(root, [(child, s) for s in specs]) == 3
        assert engine.future_distance(child.node_id, specs[0].key) == 0.0
        assert engine.future_distance(child.node_id, specs[1].key) == 1.0
        missing = FetchSpec.contiguous(src, C, 8 * KB)
        assert engine.future_distance(child.node_id, missing.key) \
            == float("inf")
        engine.consume(child.node_id, specs[0].key)
        # First A entry gone; the repeat at the tail remains.
        assert engine.future_distance(child.node_id, specs[0].key) == 1.0
        # replace=True supersedes; replace=False appends.
        engine.plan_level(root, [(child, specs[1])])
        assert len(engine.pending(child.node_id)) == 1
        engine.plan_level(root, [(child, specs[2])], replace=False)
        assert len(engine.pending(child.node_id)) == 2
    finally:
        sys_.close()


def test_lookahead_prefetch_turns_misses_into_hits():
    sys_ = make_system(CacheConfig(lookahead=2))
    try:
        src = fill_root(sys_, 64 * KB)
        root = sys_.tree.root
        child = root.children[0]
        plan = [FetchSpec.contiguous(src, off, 8 * KB) for off in (A, B, C)]
        sys_.cache.engine.plan_level(root, [(child, s) for s in plan])
        fetch(sys_, src, A)   # miss; prefetches B and C behind it
        st = sys_.cache.total_stats()
        assert st.prefetch_issued == 2
        fetch(sys_, src, B)
        fetch(sys_, src, C)
        st = sys_.cache.total_stats()
        assert (st.hits, st.misses) == (2, 1)
        assert st.prefetch_used == 2 and st.prefetch_wasted == 0
        # Exactly three transfers happened in total (one per region).
        reads = [iv for iv in sys_.timeline.trace
                 if iv.phase is Phase.IO_READ]
        assert len(reads) == 3
    finally:
        sys_.close()


def test_prefetch_never_evicts():
    sys_ = make_system(CacheConfig(lookahead=4, capacity_fraction=0.08))
    try:
        src = fill_root(sys_, 64 * KB)
        root = sys_.tree.root
        child = root.children[0]
        plan = [FetchSpec.contiguous(src, off, 8 * KB)
                for off in (A, B, C, 24 * KB)]
        sys_.cache.engine.plan_level(root, [(child, s) for s in plan])
        fetch(sys_, src, A)   # miss + prefetch: only B fits alongside A
        st = sys_.cache.total_stats()
        assert st.evictions == 0
        assert st.prefetch_issued == 1
        assert resident_offsets(sys_) == [A, B]
    finally:
        sys_.close()


# -- move_up ---------------------------------------------------------------

def up_pair(sys_, nbytes=8 * KB, seed=4):
    """A child staging buffer with known bytes, and a root destination."""
    rng = np.random.default_rng(seed)
    child = sys_.tree.root.children[0]
    src = sys_.alloc(nbytes, child, label="child")
    sys_.preload(src, rng.integers(0, 255, nbytes, dtype=np.uint8))
    dst = sys_.alloc(4 * nbytes, sys_.tree.root, label="root")
    return src, dst


def transfer_count(sys_):
    return len([iv for iv in sys_.timeline.trace
                if iv.phase in (Phase.IO_WRITE, Phase.DEV_TRANSFER,
                                Phase.MEM_COPY)])


def test_write_through_charges_immediately():
    sys_ = make_system(CacheConfig(lookahead=0))
    try:
        src, dst = up_pair(sys_)
        before = transfer_count(sys_)
        sys_.move_up(dst, src, 8 * KB)
        assert transfer_count(sys_) == before + 1
    finally:
        sys_.close()


def test_move_up_lands_bytes():
    sys_ = make_system(CacheConfig(lookahead=0))
    try:
        src, dst = up_pair(sys_, seed=9)
        sys_.move_up(dst, src, 8 * KB, dst_offset=4 * KB)
        got = sys_.fetch(dst, np.uint8, count=32 * KB)
        expected = sys_.fetch(src, np.uint8, count=8 * KB)
        np.testing.assert_array_equal(got[4 * KB:12 * KB], expected)
    finally:
        sys_.close()
