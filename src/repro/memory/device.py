"""The Device abstraction: one memory or storage node's hardware.

A :class:`Device` bundles three things:

* a :class:`DeviceSpec` -- the cost model (capacity, read/write bandwidth,
  access latency, channel duplexing), calibrated per technology in the
  sibling modules;
* a :class:`~repro.memory.allocator.FreeListAllocator` enforcing capacity;
* a :class:`~repro.memory.backends.DataBackend` holding the actual bytes.

The Northup tree's memory nodes each own a Device; the unified data API
(:mod:`repro.core.api`) never touches backends directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.memory.allocator import FreeListAllocator
from repro.memory.backends import DataBackend, MemBackend
from repro.memory.units import fmt_bandwidth, fmt_bytes

#: Shared scratch pool for opaque->opaque (file->file) staging; created
#: lazily to keep the module import cycle-free (see MemBackend.__init__).
_SCRATCH_POOL = None


def _scratch_pool():
    global _SCRATCH_POOL
    if _SCRATCH_POOL is None:
        from repro.core.buffers import ArrayPool
        _SCRATCH_POOL = ArrayPool()
    return _SCRATCH_POOL


class StorageKind(enum.Enum):
    """Interface class of a memory/storage node.

    This is the ``storage_type`` of the paper's ``memory_t`` (Listing 1):
    the unified ``move_data`` wrapper dispatches on the (source, dest)
    pair of kinds to pick file I/O, ``memcpy``, or a device DMA
    (Listing 4).
    """

    FILE = "file"            # block storage behind a filesystem (HDD/SSD/NVM-as-storage)
    MEM = "mem"              # load/store host memory (DRAM, HBM, NVM-as-memory)
    GPU_DEVICE = "gpu_dev"   # discrete-accelerator device memory (cl_mem)
    GPU_LOCAL = "gpu_local"  # per-CU scratchpad (OpenCL local / CUDA shared)


@dataclass(frozen=True)
class DeviceSpec:
    """Cost model and identity of one device.

    Attributes
    ----------
    name:
        Model name, e.g. ``"ssd-hyperx-predator"``.
    kind:
        Interface class; see :class:`StorageKind`.
    capacity:
        Usable bytes.
    read_bw, write_bw:
        Sustained sequential bandwidths, bytes/second.
    latency:
        Per-access latency in seconds (seek/queue/submission overhead).
    duplex:
        ``True`` when reads and writes use independent channels and may
        overlap (DRAM, HBM); ``False`` when they serialise on one channel
        (a disk head, a single NVMe queue as configured in the paper).
    """

    name: str
    kind: StorageKind
    capacity: int
    read_bw: float
    write_bw: float
    latency: float = 0.0
    duplex: bool = False

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError(f"{self.name}: capacity must be positive")
        if self.read_bw <= 0 or self.write_bw <= 0:
            raise ConfigError(f"{self.name}: bandwidths must be positive")
        if self.latency < 0:
            raise ConfigError(f"{self.name}: latency must be non-negative")

    def read_cost(self, nbytes: int) -> float:
        """Seconds to read ``nbytes`` (latency + bandwidth term)."""
        return self.latency + nbytes / self.read_bw

    def write_cost(self, nbytes: int) -> float:
        """Seconds to write ``nbytes``."""
        return self.latency + nbytes / self.write_bw

    def scaled(self, *, capacity: int | None = None,
               read_bw: float | None = None,
               write_bw: float | None = None,
               name: str | None = None) -> "DeviceSpec":
        """A copy with some fields replaced (used for input-scaled runs
        and the Figure 9 bandwidth sweep)."""
        return DeviceSpec(
            name=name if name is not None else self.name,
            kind=self.kind,
            capacity=capacity if capacity is not None else self.capacity,
            read_bw=read_bw if read_bw is not None else self.read_bw,
            write_bw=write_bw if write_bw is not None else self.write_bw,
            latency=self.latency,
            duplex=self.duplex,
        )

    def describe(self) -> str:
        return (f"{self.name} [{self.kind.value}] {fmt_bytes(self.capacity)}, "
                f"r={fmt_bandwidth(self.read_bw)} w={fmt_bandwidth(self.write_bw)} "
                f"lat={self.latency * 1e6:.1f}us")


@dataclass
class Device:
    """A capacity-accounted store with a cost model.

    ``read_resource``/``write_resource`` name the virtual timeline
    resources that operations on this device occupy; for half-duplex
    devices both point at the same channel, so concurrent reads and
    writes serialise -- which is what makes the paper's synchronous
    storage writes (``O_SYNC``) stall the pipeline on the disk config.
    """

    spec: DeviceSpec
    backend: DataBackend = field(default_factory=MemBackend)
    instance: str = ""

    def __post_init__(self) -> None:
        self.allocator = FreeListAllocator(self.spec.capacity)
        base = self.instance or self.spec.name
        self.backend.label = base

        if self.spec.duplex:
            self.read_resource = f"{base}.rd"
            self.write_resource = f"{base}.wr"
        else:
            self.read_resource = self.write_resource = f"{base}.ch"

    @property
    def name(self) -> str:
        return self.instance or self.spec.name

    @property
    def kind(self) -> StorageKind:
        return self.spec.kind

    @property
    def capacity(self) -> int:
        return self.spec.capacity

    @property
    def used_bytes(self) -> int:
        return self.allocator.used_bytes

    @property
    def free_bytes(self) -> int:
        return self.allocator.free_bytes

    # -- data plane --------------------------------------------------------

    def allocate(self, nbytes: int) -> int:
        """Reserve and materialise ``nbytes``; returns the allocation id."""
        alloc_id = self.allocator.allocate(nbytes)
        try:
            self.backend.create(alloc_id, nbytes)
        except Exception:
            self.allocator.free(alloc_id)
            raise
        return alloc_id

    def compact(self) -> int:
        """Squeeze fragmentation out of the arena (see
        :meth:`FreeListAllocator.compact`); returns the relocation
        count.  Data is untouched: the backend keys storage by
        allocation id, not address."""
        return self.allocator.compact()

    def release(self, alloc_id: int) -> None:
        self.backend.destroy(alloc_id)
        self.allocator.free(alloc_id)

    def release_capacity(self, alloc_id: int) -> None:
        """Return the allocation's address range to the allocator while
        the backing bytes stay readable (storage is keyed by allocation
        id, not address).  Pairs with :meth:`destroy_storage`: the
        runtime splits a release this way when executor work is still
        pending on the buffer, so capacity queries see the logical
        release immediately."""
        self.allocator.free(alloc_id)

    def destroy_storage(self, alloc_id: int) -> None:
        """Drop the backing bytes of an allocation whose capacity was
        already credited by :meth:`release_capacity`."""
        self.backend.destroy(alloc_id)

    def read(self, alloc_id: int, offset: int, nbytes: int) -> np.ndarray:
        return self.backend.read(alloc_id, offset, nbytes)

    def write(self, alloc_id: int, offset: int, data) -> None:
        self.backend.write(alloc_id, offset, data)

    def try_view(self, alloc_id: int, offset: int,
                 nbytes: int) -> np.ndarray | None:
        """A writable zero-copy window into the allocation, or ``None``
        when the backend cannot expose one (see
        :meth:`~repro.memory.backends.DataBackend.try_view`)."""
        return self.backend.try_view(alloc_id, offset, nbytes)

    def copy_into(self, dst: "Device", src_id: int, src_offset: int,
                  dst_id: int, dst_offset: int, nbytes: int) -> None:
        """Move ``nbytes`` from this device into ``dst`` with the fewest
        copies the two backends allow.

        This is the physical half of Listing 4's dispatch: the runtime
        picks the mechanics from the (source, destination) backend pair
        the way the paper picks POSIX I/O vs ``memcpy`` vs a device DMA
        from the endpoint storage types.

        * view -> view (mem->mem): one ``np.copyto``.
        * opaque -> view (file->mem): one positioned read straight into
          the destination window.
        * view -> opaque (mem->file): one positioned write straight from
          the source window.
        * opaque -> opaque (file->file): staged through one pooled
          scratch array (read_into + write).
        """
        if nbytes == 0:
            return
        sb, db = self.backend, dst.backend
        dview = db.try_view(dst_id, dst_offset, nbytes)
        if dview is not None:
            sview = sb.try_view(src_id, src_offset, nbytes)
            if sview is not None:
                np.copyto(dview, sview)
            else:
                sb.read_into(src_id, src_offset, dview)
            return
        sview = sb.try_view(src_id, src_offset, nbytes)
        if sview is not None:
            db.write(dst_id, dst_offset, sview)
            return
        scratch = _scratch_pool().take(nbytes, zero=False)
        try:
            sb.read_into(src_id, src_offset, scratch)
            db.write(dst_id, dst_offset, scratch)
        finally:
            _scratch_pool().give(scratch)

    def copy_into_2d(self, dst: "Device", src_id: int, src_offset: int,
                     src_stride: int, dst_id: int, dst_offset: int,
                     dst_stride: int, *, rows: int, row_bytes: int) -> None:
        """Strided 2-D variant of :meth:`copy_into`: ``rows`` runs of
        ``row_bytes`` with independent endpoint strides move as one
        vectored transfer (a strided NumPy copy, a gathered read, or a
        scattered write) instead of a Python loop of per-row calls."""
        if rows == 0 or row_bytes == 0:
            return
        sb, db = self.backend, dst.backend
        d2 = db.try_view_2d(dst_id, dst_offset, rows, row_bytes, dst_stride)
        s2 = sb.try_view_2d(src_id, src_offset, rows, row_bytes, src_stride)
        if d2 is not None and s2 is not None:
            np.copyto(d2, s2)
        elif d2 is not None:
            sb.gather_2d(src_id, src_offset, rows, row_bytes, src_stride, d2)
        elif s2 is not None:
            db.scatter_2d(dst_id, dst_offset, rows, row_bytes, dst_stride, s2)
        else:
            scratch = _scratch_pool().take(rows * row_bytes, zero=False)
            try:
                out = scratch.reshape(rows, row_bytes)
                sb.gather_2d(src_id, src_offset, rows, row_bytes, src_stride,
                             out)
                db.scatter_2d(dst_id, dst_offset, rows, row_bytes, dst_stride,
                              out)
            finally:
                _scratch_pool().give(scratch)

    def advise(self, windows) -> None:
        """Tell the backend which ``(alloc_id, offset, rows, row_bytes,
        stride)`` windows are about to be read from this device, in
        order (:meth:`~repro.memory.backends.DataBackend.advise`).  A
        wall-clock matter only: no virtual time, no capacity."""
        self.backend.advise(windows)

    def close(self) -> None:
        self.backend.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Device({self.name!r}, {self.spec.kind.value}, "
                f"{fmt_bytes(self.used_bytes)}/{fmt_bytes(self.capacity)} used)")
