"""Unit and property tests for the free-list allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, CapacityError
from repro.memory.allocator import FreeListAllocator


def test_basic_allocate_free_cycle():
    a = FreeListAllocator(1024, alignment=64)
    i = a.allocate(100)
    assert a.used_bytes == 128  # padded to alignment
    assert a.lookup(i).size == 128
    a.free(i)
    assert a.used_bytes == 0
    assert a.largest_free_block() == 1024


def test_capacity_enforced():
    a = FreeListAllocator(256)
    a.allocate(200)
    with pytest.raises(CapacityError) as exc:
        a.allocate(200)
    assert exc.value.requested == 256  # padded
    assert exc.value.available == a.free_bytes


def test_fragmentation_error_distinguished():
    a = FreeListAllocator(256, alignment=1)
    left = a.allocate(96)
    mid = a.allocate(64)
    right = a.allocate(96)
    a.free(left)
    a.free(right)
    # 192 bytes free but in two 96-byte blocks.
    assert a.free_bytes == 192
    with pytest.raises(CapacityError, match="fragmented"):
        a.allocate(128)
    assert a.largest_free_block() == 96
    a.free(mid)
    assert a.largest_free_block() == a.free_bytes == 256
    assert a.allocate(256) > 0


def test_compact_makes_fragmented_bytes_contiguous():
    a = FreeListAllocator(256, alignment=1)
    left = a.allocate(96)
    mid = a.allocate(64)
    right = a.allocate(96)
    a.free(left)
    a.free(right)
    # 192 bytes free in two 96-byte holes: 128 doesn't fit as-is.
    assert not a.can_fit(128)
    assert a.would_fit_compacted(128)
    assert a.compact() == 1        # only `mid` needs to move
    a.check_invariants()
    assert a.lookup(mid).offset == 0
    assert a.largest_free_block() == 192
    assert a.used_bytes == 64      # accounting untouched
    assert a.allocate(128) > 0


def test_compact_is_a_noop_on_a_packed_arena():
    a = FreeListAllocator(1024, alignment=64)
    ids = [a.allocate(100) for _ in range(3)]
    assert a.compact() == 0
    a.check_invariants()
    assert [a.lookup(i).offset for i in ids] == [0, 128, 256]
    assert not a.would_fit_compacted(1024)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=512)),
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("compact"), st.just(0)),
), max_size=60))
def test_compact_preserves_live_set_and_accounting(ops):
    """Compaction at arbitrary points keeps sizes, ids, and byte
    accounting intact and always leaves one contiguous free block."""
    a = FreeListAllocator(4096, alignment=16)
    live: dict[int, int] = {}
    for op, arg in ops:
        if op == "alloc":
            try:
                live[a.allocate(arg)] = a._padded(arg)
            except CapacityError:
                pass
        elif op == "free" and live:
            key = list(live)[arg % len(live)]
            del live[key]
            a.free(key)
        elif op == "compact":
            a.compact()
            assert a.largest_free_block() == a.free_bytes
        a.check_invariants()
        assert {i: a.lookup(i).size for i in live} == live


def test_coalescing_merges_neighbours():
    a = FreeListAllocator(300, alignment=1)
    ids = [a.allocate(100) for _ in range(3)]
    a.free(ids[0])
    a.free(ids[2])
    assert a.largest_free_block() == 100
    a.free(ids[1])  # merges with both neighbours
    assert a.largest_free_block() == 300


def test_double_free_rejected():
    a = FreeListAllocator(128)
    i = a.allocate(10)
    a.free(i)
    with pytest.raises(AllocationError):
        a.free(i)


def test_zero_and_negative_size_rejected():
    a = FreeListAllocator(128)
    for bad in (0, -5):
        with pytest.raises(AllocationError):
            a.allocate(bad)


def test_peak_tracks_high_water_mark():
    a = FreeListAllocator(1024, alignment=1)
    i = a.allocate(600)
    a.free(i)
    a.allocate(100)
    assert a.peak_bytes == 600
    assert a.used_bytes == 100


def test_bad_construction():
    with pytest.raises(ValueError):
        FreeListAllocator(0)
    with pytest.raises(ValueError):
        FreeListAllocator(100, alignment=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=512)),
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=40)),
), max_size=60))
def test_invariants_under_random_workload(ops):
    """Alloc/free in arbitrary order never corrupts the free list."""
    a = FreeListAllocator(4096, alignment=16)
    live: list[int] = []
    for op, arg in ops:
        if op == "alloc":
            try:
                live.append(a.allocate(arg))
            except CapacityError:
                pass
        elif live:
            idx = arg % len(live)
            a.free(live.pop(idx))
        a.check_invariants()
    # Draining everything restores a pristine allocator.
    for i in live:
        a.free(i)
    a.check_invariants()
    assert a.used_bytes == 0
    assert a.largest_free_block() == 4096


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=20))
def test_allocations_disjoint(sizes):
    a = FreeListAllocator(16384, alignment=32)
    ids = []
    for s in sizes:
        try:
            ids.append(a.allocate(s))
        except CapacityError:
            break
    spans = sorted((a.lookup(i).offset, a.lookup(i).end) for i in ids)
    for (s1, e1), (s2, _) in zip(spans, spans[1:]):
        assert e1 <= s2
    assert a.used_bytes == sum(a.lookup(i).size for i in ids)
