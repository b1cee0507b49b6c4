"""First-fit free-list allocator with coalescing.

Each memory node in the Northup tree enforces its capacity through one of
these allocators.  The allocator manages a *virtual* address range -- data
bytes are materialised separately by the node's backend -- so a simulated
500 GB disk costs nothing until buffers are actually written.

The offset bookkeeping is not decorative: the runtime's capacity-driven
decomposition (Section III-C: "the number of chunks depends on the current
available capacity of level i+1") reads :attr:`free_bytes` and
:meth:`largest_free_block`, and fragmentation from repeated chunk
alloc/free cycles is exactly what makes those two numbers diverge.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import NamedTuple

from repro.errors import AllocationError, CapacityError

_offset = itemgetter(0)


class Allocation(NamedTuple):
    """One live allocation: its virtual offset and size."""

    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size


class FreeListAllocator:
    """First-fit allocator over ``[0, capacity)`` with free-block coalescing.

    Alignment is applied to every allocation start (default 64 bytes, a
    cache line); the padded size is what counts against capacity, matching
    how real allocators behave.
    """

    def __init__(self, capacity: int, *, alignment: int = 64) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise ValueError(f"alignment must be a positive power of two, got {alignment}")
        self.capacity = capacity
        self.alignment = alignment
        # Sorted, disjoint, coalesced list of (offset, size) free blocks.
        self._free: list[tuple[int, int]] = [(0, capacity)]
        self._live: dict[int, Allocation] = {}
        self._next_id = 1
        self._used = 0
        self._peak = 0

    # -- queries ---------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated (including alignment padding)."""
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._used

    @property
    def peak_bytes(self) -> int:
        """High-water mark of :attr:`used_bytes`."""
        return self._peak

    def largest_free_block(self) -> int:
        """Size of the largest contiguous free block (0 when full)."""
        return max((size for _off, size in self._free), default=0)

    def can_fit(self, size: int) -> bool:
        """True when :meth:`allocate` of ``size`` bytes would succeed now.

        First-fit succeeds exactly when some free block holds the aligned
        request, i.e. when the largest free block does.  The buffer cache
        uses this to decide between admitting a block and evicting first.
        """
        if size <= 0:
            return False
        return self._padded(size) <= self.largest_free_block()

    def lookup(self, alloc_id: int) -> Allocation:
        try:
            return self._live[alloc_id]
        except KeyError:
            raise AllocationError(f"unknown or freed allocation id {alloc_id}") from None

    # -- mutation ---------------------------------------------------------

    def _padded(self, size: int) -> int:
        mask = self.alignment - 1
        return (size + mask) & ~mask

    def allocate(self, size: int) -> int:
        """Reserve ``size`` bytes; returns an allocation id.

        Raises
        ------
        CapacityError
            When no free block can hold the (aligned) request.  The error
            distinguishes "out of capacity" from "fragmented": callers like
            the decomposition logic may retry with a smaller chunk.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        padded = self._padded(size)
        free = self._free
        for i, (off, block) in enumerate(free):
            if block >= padded:
                if block == padded:
                    del free[i]
                else:
                    free[i] = (off + padded, block - padded)
                alloc_id = self._next_id
                self._next_id += 1
                self._live[alloc_id] = Allocation(off, padded)
                self._used += padded
                if self._used > self._peak:
                    self._peak = self._used
                return alloc_id
        if padded <= self.free_bytes:
            raise CapacityError(
                f"free space is fragmented: need {padded} contiguous bytes, "
                f"largest block is {self.largest_free_block()}",
                requested=padded, available=self.largest_free_block())
        raise CapacityError(
            f"out of capacity: need {padded} bytes, {self.free_bytes} free "
            f"of {self.capacity}",
            requested=padded, available=self.free_bytes)

    def free(self, alloc_id: int) -> None:
        """Release an allocation, coalescing with adjacent free blocks."""
        alloc = self._live.pop(alloc_id, None)
        if alloc is None:
            raise AllocationError(f"double free or unknown allocation id {alloc_id}")
        self._used -= alloc.size
        self._insert_free(alloc.offset, alloc.size)

    def _insert_free(self, offset: int, size: int) -> None:
        free = self._free
        lo = bisect_left(free, offset, key=_offset)
        # Coalesce with successor, then predecessor.
        if lo < len(free) and free[lo][0] == offset + size:
            size += free.pop(lo)[1]
        if lo and (prev := free[lo - 1])[0] + prev[1] == offset:
            free[lo - 1] = (prev[0], prev[1] + size)
        else:
            free.insert(lo, (offset, size))

    def would_fit_compacted(self, size: int) -> bool:
        """True when ``size`` would fit after :meth:`compact`: the free
        bytes exist, they just aren't contiguous."""
        return size > 0 and self._padded(size) <= self.free_bytes

    def compact(self) -> int:
        """Slide live allocations to the bottom of the arena, leaving
        one contiguous free block at the top; returns how many
        allocations were relocated.

        This is pure bookkeeping: data bytes live in the node's backend
        keyed by allocation id, not address, so moving the virtual
        offsets copies nothing.  The handle indirection of the Table I
        data model -- programs hold opaque handles, never raw
        addresses -- is what makes a relocating allocator legal here.
        """
        cursor = 0
        moved = 0
        for alloc_id, alloc in sorted(self._live.items(),
                                      key=lambda item: item[1].offset):
            if alloc.offset != cursor:
                self._live[alloc_id] = Allocation(offset=cursor,
                                                  size=alloc.size)
                moved += 1
            cursor += alloc.size  # sizes are padded, so offsets stay aligned
        if cursor < self.capacity:
            self._free = [(cursor, self.capacity - cursor)]
        else:
            self._free = []
        return moved

    def check_invariants(self) -> None:
        """Assert internal consistency; used by property tests."""
        prev_end = -1
        total_free = 0
        for off, size in self._free:
            assert size > 0, "empty free block"
            # Strict inequality also catches uncoalesced adjacent blocks.
            assert off > prev_end, "free list unsorted, overlapping, or uncoalesced"
            prev_end = off + size
            total_free += size
        assert prev_end <= self.capacity, "free block past capacity"
        assert total_free == self.free_bytes, "free byte accounting drifted"
        # Live allocations must be disjoint from free blocks and each other.
        spans = sorted((a.offset, a.end) for a in self._live.values())
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2, "overlapping live allocations"
