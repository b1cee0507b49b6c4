"""Opaque buffer handles.

Table I's interface returns ``void *`` from ``alloc`` and threads those
pointers through every data-movement call; "the runtime system determines
the appropriate operations to perform based on the levels and types of
tree nodes involved".  A :class:`BufferHandle` is that opaque pointer:
applications never see file descriptors, array objects, or ``cl_mem`` --
only the handle, which the :class:`BufferRegistry` resolves.

Handles also carry the two pieces of virtual-time state the pipeline
model needs (held in a :class:`BufferTimes` that *aliases of the same
storage share*):

* ``ready_at`` -- when the buffer's current contents became valid (the
  completion of the last write into it);
* ``last_read_end`` -- when the last operation that *read* the buffer
  finished.  Overwriting a buffer (the double-buffering reuse pattern)
  must wait for this, which is exactly what bounds prefetch depth to the
  number of buffer sets.

A handle may be a **mapped region** of another handle (Section III-D:
``data_down/up()`` "can be implemented with memory mapping functions
too"): same node, same underlying allocation, a byte-range window.
Mapped handles are created by :meth:`repro.core.system.System.map_region`
and cost nothing to create or release beyond runtime bookkeeping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AllocationError, TransferError


class ArrayPool:
    """Size-bucketed free list of uint8 staging arrays.

    Chunked programs allocate and release identically-sized staging
    buffers thousands of times per run; ``np.zeros`` per cycle pays an
    allocator round-trip and a fresh set of first-touch page faults
    every time.  The pool recycles the arrays instead: ``take`` returns
    a zero-filled array of exactly ``nbytes`` (reusing a retired one
    when a same-size bucket holds one), ``give`` retires an array back
    into its bucket.

    Retention is bounded twice over -- at most ``max_per_size`` arrays
    per distinct size and ``max_bytes`` held overall -- so a pathological
    size sweep degrades to plain allocation instead of hoarding memory.

    An array handed back with ``give`` must no longer be referenced by
    the caller: the next ``take`` of that size may hand out the same
    storage.  (This is the same contract a ``free``/``malloc`` pair has;
    the backends honour it by only retiring buffers on ``destroy``.)

    Take/give are thread-safe (bucket mutation happens under a lock):
    the dist executor's sender threads recycle staging arrays
    off-thread.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024,
                 max_per_size: int = 4) -> None:
        self.max_bytes = max_bytes
        self.max_per_size = max_per_size
        self._free: dict[int, list[np.ndarray]] = {}
        self._lock = threading.Lock()
        self._held_bytes = 0
        self.reuses = 0
        self.fresh = 0
        self.retired = 0
        self.dropped = 0

    @property
    def held_bytes(self) -> int:
        """Bytes currently parked in the pool's buckets."""
        return self._held_bytes

    def take(self, nbytes: int, *, zero: bool = True) -> np.ndarray:
        """A 1-D uint8 array of exactly ``nbytes`` (zero-filled unless
        ``zero=False``, for scratch space that is fully overwritten)."""
        with self._lock:
            bucket = self._free.get(nbytes)
            arr = bucket.pop() if bucket else None
            if arr is not None:
                self._held_bytes -= nbytes
                self.reuses += 1
            else:
                self.fresh += 1
        if arr is not None:
            if zero:
                arr.fill(0)
            return arr
        return (np.zeros if zero else np.empty)(nbytes, dtype=np.uint8)

    def give(self, arr: np.ndarray) -> None:
        """Retire ``arr`` into the pool (dropped when over budget)."""
        nbytes = arr.size
        with self._lock:
            bucket = self._free.setdefault(nbytes, [])
            if (nbytes == 0 or len(bucket) >= self.max_per_size
                    or self._held_bytes + nbytes > self.max_bytes):
                self.dropped += 1
                return
            bucket.append(arr)
            self._held_bytes += nbytes
            self.retired += 1

    def clear(self) -> None:
        """Drop every retained array (backend teardown)."""
        with self._lock:
            self._free.clear()
            self._held_bytes = 0


@dataclass
class BufferTimes:
    """Virtual-time state shared by every view of one allocation.

    ``version`` is a whole-buffer content counter: every write into any
    view of the allocation bumps it.  The buffer cache records the
    version it copied from and treats a mismatch as staleness, so a
    rewritten source (e.g. a restaged HotSpot grid) can never serve a
    stale hit.  Coarse (whole-buffer) invalidation is conservative but
    always correct.  It is also the slab's *write generation*: ``fill``
    is the file window the bytes were last packed from, valid while
    both sides' versions are the ones it records
    (:meth:`repro.core.system.System._describe`).
    """

    ready_at: float = 0.0
    last_read_end: float = 0.0
    version: int = 0
    fill: tuple | None = None

    def reset(self) -> None:
        # A time reset is not a content change: ``version`` survives so
        # cached copies stay valid across measured phases.
        self.ready_at = 0.0
        self.last_read_end = 0.0


@dataclass
class BufferHandle:
    """One live allocation (or mapped window) on one tree node.

    Attributes
    ----------
    buffer_id:
        Registry-unique id.
    node_id:
        The tree node whose device holds the bytes.
    nbytes:
        Buffer (window) size.
    alloc_id:
        The device-level allocation id (private to the runtime).
    base_offset:
        Byte offset of this window inside the device allocation (0 for
        a plain allocation).
    label:
        Free-form annotation for traces and debugging.
    mapped_from:
        The handle this one is a window of (``None`` for allocations).
    """

    buffer_id: int
    node_id: int
    nbytes: int
    alloc_id: int
    base_offset: int = 0
    label: str = ""
    mapped_from: "BufferHandle | None" = field(default=None, repr=False)
    times: BufferTimes = field(default_factory=BufferTimes, repr=False)
    released: bool = field(default=False, repr=False)
    #: Live mapped windows of this handle (kept by the registry).
    windows: int = field(default=0, repr=False)

    @property
    def is_mapped(self) -> bool:
        return self.mapped_from is not None

    @property
    def ready_at(self) -> float:
        return self.times.ready_at

    @property
    def last_read_end(self) -> float:
        return self.times.last_read_end

    @property
    def version(self) -> int:
        return self.times.version

    def note_write(self, end: float) -> None:
        self.times.ready_at = max(self.times.ready_at, end)
        self.times.version += 1

    def bump_version(self) -> None:
        """Mark the contents changed without touching dependency times
        (untimed host writes -- :meth:`repro.core.system.System.preload`)."""
        self.times.version += 1

    def note_read(self, end: float) -> None:
        self.times.last_read_end = max(self.times.last_read_end, end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        window = f"+{self.base_offset}" if self.is_mapped else ""
        return (f"BufferHandle(#{self.buffer_id}@node{self.node_id}{window}, "
                f"{self.nbytes}B{tag})")


class BufferRegistry:
    """Resolves handles and enforces their lifecycle.

    The registry is the runtime's "internal structures ... to implement
    a universal interface" (Section III-D): the paper's example keeps a
    list of created file names and pointers; here it is a table of live
    handles.
    """

    def __init__(self) -> None:
        self._live: dict[int, BufferHandle] = {}
        self._next_id = 1
        self.total_allocated = 0
        self.total_released = 0

    def register(self, node_id: int, nbytes: int, alloc_id: int,
                 label: str = "") -> BufferHandle:
        handle = BufferHandle(buffer_id=self._next_id, node_id=node_id,
                              nbytes=nbytes, alloc_id=alloc_id, label=label)
        self._next_id += 1
        self._live[handle.buffer_id] = handle
        self.total_allocated += 1
        return handle

    def register_mapped(self, parent: BufferHandle, offset: int,
                        nbytes: int, label: str = "") -> BufferHandle:
        """A window ``[offset, offset + nbytes)`` of ``parent``.

        Shares the parent's storage and dependency times; never owns the
        allocation (releasing it frees nothing on the device).
        """
        self.check_live(parent)
        if offset < 0 or nbytes < 1 or offset + nbytes > parent.nbytes:
            raise TransferError(
                f"mapped window [{offset}, {offset + nbytes}) outside "
                f"parent of {parent.nbytes} bytes")
        handle = BufferHandle(buffer_id=self._next_id,
                              node_id=parent.node_id, nbytes=nbytes,
                              alloc_id=parent.alloc_id,
                              base_offset=parent.base_offset + offset,
                              label=label, mapped_from=parent,
                              times=parent.times)
        self._next_id += 1
        self._live[handle.buffer_id] = handle
        parent.windows += 1
        self.total_allocated += 1
        return handle

    def check_live(self, handle: BufferHandle) -> BufferHandle:
        """Validate that ``handle`` is one of ours and not released."""
        found = self._live.get(handle.buffer_id)
        if found is None or found is not handle:
            raise AllocationError(
                f"buffer #{handle.buffer_id} is not registered here "
                f"(released, foreign, or forged)")
        if handle.mapped_from is not None and handle.mapped_from.released:
            raise AllocationError(
                f"buffer #{handle.buffer_id} maps a released parent "
                f"#{handle.mapped_from.buffer_id}")
        return handle

    def unregister(self, handle: BufferHandle) -> None:
        self.check_live(handle)
        if handle.is_mapped:
            handle.mapped_from.windows -= 1
        elif handle.windows:
            raise AllocationError(
                f"buffer #{handle.buffer_id} still has "
                f"{handle.windows} mapped window(s); release them "
                f"first")
        handle.released = True
        del self._live[handle.buffer_id]
        self.total_released += 1

    @property
    def live_count(self) -> int:
        return len(self._live)

    def live_bytes_on_node(self, node_id: int) -> int:
        """Owned (non-mapped) bytes live on a node."""
        return sum(h.nbytes for h in self._live.values()
                   if h.node_id == node_id and not h.is_mapped)

    def live_handles(self):
        return list(self._live.values())

    def leaked(self) -> list[BufferHandle]:
        """Handles never released -- examples assert this is empty."""
        return list(self._live.values())
