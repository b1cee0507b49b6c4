"""The System: a topology tree bound to a virtual timeline.

This is where Table I's unified data-management interface lives.  The
runtime examines the source and destination tree nodes of every request
and picks the right mechanics (file I/O vs. memory copy vs. device DMA,
Listing 4), charges the cost to the right virtual resources, and moves
the actual bytes between backends.  Applications only ever hold opaque
:class:`~repro.core.buffers.BufferHandle` objects.

Time accounting
---------------
Every timed operation threads two dependency times through handles:
``ready_at`` (content valid) and ``last_read_end`` (safe to overwrite).
Together with per-resource serialisation this reproduces the paper's
pipelining: allocate two staging buffer sets and chunk ``k+1``'s load
overlaps chunk ``k``'s kernel automatically.

Untimed host-side access (:meth:`System.preload` / :meth:`System.fetch`)
exists for workload preparation and result verification -- the paper
likewise excludes input preprocessing from measured time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cache.manager import CacheConfig, CacheManager
from repro.cache.spec import FetchSpec
from repro.compute.processor import KernelCost, Processor
from repro.core.buffers import BufferHandle, BufferRegistry
from repro.core.profiler import Breakdown, profile_trace
from repro.errors import CacheError, CapacityError, TransferError
from repro.exec.base import Executor, KernelSpec, effective_cpu_count, \
    make_executor, resolve_kernel
from repro.exec.inline import InlineExecutor
from repro.exec.ledger import MergeTarget, PendingLedger
from repro.memory.device import StorageKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_OBSERVER, Observer
from repro.sim.timeline import Completion, Timeline
from repro.sim.trace import Phase
from repro.topology.node import TreeNode
from repro.topology.tree import TopologyTree

#: Per-operation runtime bookkeeping cost (a handful of tree lookups and
#: queue operations).  Section V-B measures total runtime overhead below
#: 1% of execution; this constant is what that bench checks.
RUNTIME_OP_COST = 0.5e-6

#: Buffer-setup cost by storage kind: opening/creating a file, a
#: clCreateBuffer-style driver call, or a plain allocation.
SETUP_COST = {
    StorageKind.FILE: 120e-6,
    StorageKind.GPU_DEVICE: 30e-6,
    StorageKind.GPU_LOCAL: 2e-6,
    StorageKind.MEM: 5e-6,
}


def _check_window(src: BufferHandle, src_offset: int, dst: BufferHandle,
                  dst_offset: int, nbytes: int) -> None:
    """Bounds of one contiguous transfer, shared by every 1-D move entry
    point.  A mapped window's handle addresses its parent's storage, so
    an offset below zero would reach the parent's bytes outside it."""
    if nbytes < 0:
        raise TransferError(f"negative transfer size {nbytes}")
    if src_offset < 0 or src_offset + nbytes > src.nbytes:
        raise TransferError(
            f"read [{src_offset}, {src_offset + nbytes}) out of bounds "
            f"for {src!r}")
    if dst_offset < 0 or dst_offset + nbytes > dst.nbytes:
        raise TransferError(
            f"write [{dst_offset}, {dst_offset + nbytes}) out of bounds "
            f"for {dst!r}")


def _transfer_phase(src: StorageKind, dst: StorageKind) -> Phase:
    """Listing 4's dispatch: pick the operation class from the endpoint
    storage types."""
    if dst is StorageKind.FILE:
        return Phase.IO_WRITE
    if src is StorageKind.FILE:
        return Phase.IO_READ
    gpu_kinds = (StorageKind.GPU_DEVICE, StorageKind.GPU_LOCAL)
    if src in gpu_kinds or dst in gpu_kinds:
        return Phase.DEV_TRANSFER
    return Phase.MEM_COPY


@dataclass
class WallStats:
    """Wall-clock accounting of *physical* byte movement.

    Virtual time is the experiment's clock; these numbers measure the
    real work the host did moving bytes between backends.  With the
    in-memory backend they cover array copies; with the file backend
    they cover genuine filesystem I/O -- the out-of-core fidelity
    evidence the file-backed integration tests assert on.
    """

    physical_seconds: float = 0.0
    ops: int = 0
    bytes_moved: int = 0

    def note(self, seconds: float, nbytes: int) -> None:
        self.physical_seconds += seconds
        self.ops += 1
        self.bytes_moved += nbytes


@dataclass
class MoveResult:
    """Timing of one (possibly multi-hop) data movement."""

    start: float
    end: float
    nbytes: int
    hops: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class BatchMove:
    """One element of a :meth:`System.move_down_batch` sweep."""

    dst: BufferHandle
    src: BufferHandle
    nbytes: int
    dst_offset: int = 0
    src_offset: int = 0
    label: str = ""


class System:
    """A machine: topology + timeline + buffer registry.

    Parameters
    ----------
    tree:
        A validated topology tree.  The system takes ownership; use
        :meth:`close` to release device backends.
    cache:
        Optional :class:`~repro.cache.manager.CacheConfig`.  The default
        runs the cache in "explicit" mode: only :meth:`fetch_down` goes
        through it, so programs that never call it behave exactly as
        before.  Pass ``CacheConfig(mode="full", ...)`` to make every
        parent->child ``move``/``move_2d`` consult the cache and to
        enable the prefetch engine, or ``CacheConfig.disabled()`` to
        turn caching off entirely.
    observe:
        Record causal spans (:mod:`repro.obs.spans`) as the program
        recurses (default on).  ``observe=False`` installs the shared
        null observer: the instrumented code path is identical, but no
        span objects are allocated and the trace's span column stays 0.
        Virtual time is bit-identical either way.
    executor:
        Compute backend for :meth:`launch` kernel specs
        (:mod:`repro.exec`): an :class:`~repro.exec.base.Executor`
        instance, a backend name (``"inline"``, ``"threaded"``,
        ``"shm"``, ``"dist"``), or ``None`` for the default in-process
        :class:`~repro.exec.inline.InlineExecutor` (behaviour-identical
        to the pre-executor runtime).  Virtual time is charged on the
        simulator thread under every backend, so makespans and traces
        are bit-identical; asynchronous backends snapshot operands and
        merge results in submission order, so buffer bytes are
        byte-identical too.  Backends the system constructed itself
        (name or ``None``) are shut down by :meth:`close`; an instance
        the caller passed stays the caller's to close.
    """

    def __init__(self, tree: TopologyTree, *,
                 cache: CacheConfig | None = None,
                 observe: bool = True,
                 executor: "Executor | str | None" = None,
                 telemetry: bool = False) -> None:
        self.tree = tree
        self.timeline = Timeline()
        self.registry = BufferRegistry()
        self.runtime_ops = 0
        self.wall = WallStats()
        #: Multi-tenant serving ambiance, duck-typed so the core never
        #: imports :mod:`repro.serve`.  ``tenant_quotas`` is a ledger
        #: with ``check``/``on_alloc``/``on_release``/
        #: ``cache_reservation``; ``current_tenant`` tags allocations
        #: and cache admissions with the job being executed;
        #: ``serve_scope`` limits :meth:`CacheManager.end_run` teardown
        #: to one job's leases.  All three are inert at their defaults.
        self.tenant_quotas = None
        self.current_tenant = ""
        self.serve_scope = None
        #: Causal span tracker (:mod:`repro.obs.spans`).  Spans are pure
        #: metadata over the trace -- virtual results are bit-identical
        #: with observability on or off.  ``observe=False`` installs the
        #: shared null observer: zero span allocations, same code path.
        self.obs = Observer(self.timeline.trace) if observe \
            else NULL_OBSERVER
        #: Unified metrics registry.  Hot-path counters stay where they
        #: are; pull-collectors bridge them in at snapshot time.
        self.metrics = MetricsRegistry()
        self.metrics.register_collector(self._collect_metrics)
        #: Pending physical effects of asynchronous compute dispatch
        #: (:mod:`repro.exec.ledger`).  Inert (and near-free to consult)
        #: under the default inline executor.
        self._ledger = PendingLedger()
        self._own_executor = executor is None or isinstance(executor, str)
        if executor is None:
            executor = InlineExecutor()
        elif isinstance(executor, str):
            # Telemetry must be decided before the backend forks its
            # worker pool (the worker side buffers only when told at
            # spawn), so it rides into the factory.
            executor = make_executor(executor, telemetry=telemetry)
        #: The compute backend kernel specs dispatch through.
        self.executor: Executor = executor
        if telemetry:
            # Physical telemetry plane (:mod:`repro.obs.phys`): wall
            # timing only -- virtual results stay bit-identical.
            self.executor.enable_telemetry()
        self.cache = CacheManager(self, cache or CacheConfig())
        #: Memoized per-edge charging recipes; the topology is immutable
        #: after validation, so these never need invalidating.
        self._edge_plans: dict[tuple[int, int],
                               tuple[tuple[str, ...], Phase, float, float]] = {}
        self._proc_node: dict[str, TreeNode] = {}
        for node in tree.nodes():
            for proc in node.processors:
                self._proc_node[proc.name] = node

    # -- helpers -----------------------------------------------------------

    def _node(self, node: TreeNode | int) -> TreeNode:
        return self.tree.node(node) if isinstance(node, int) else node

    def node_of(self, handle: BufferHandle) -> TreeNode:
        """The tree node whose device holds ``handle``."""
        return self.tree.node(handle.node_id)

    def processor_node(self, proc: Processor) -> TreeNode:
        """The tree node ``proc`` is attached to."""
        try:
            return self._proc_node[proc.name]
        except KeyError:
            raise TransferError(
                f"processor {proc.name!r} is not attached to this tree") from None

    def charge_runtime(self, ops: int = 1, *, label: str = "") -> None:
        """Account framework bookkeeping (tree lookups, task control)."""
        self.runtime_ops += ops
        self.timeline.charge("host", ops * RUNTIME_OP_COST, Phase.RUNTIME,
                             label=label)

    # -- physical byte movement (the data plane) ---------------------------

    def _transfer(self, src_node: TreeNode, src: BufferHandle, src_offset: int,
                  dst_node: TreeNode, dst: BufferHandle, dst_offset: int,
                  nbytes: int) -> None:
        """Move ``nbytes`` between two handles' backends, charging wall
        time.  Virtual time is the caller's business; this is Listing
        4's physical half, dispatched on the endpoint backend pair by
        :meth:`~repro.memory.device.Device.copy_into`.

        When the transfer conflicts with pending executor work (it
        reads a slab an async kernel will merge into, or touches a slab
        a deferred copy still needs), it is deferred behind those ops
        instead of draining them -- that deferral is what keeps several
        chunk chains in flight across workers."""
        if self._ledger.active:
            sslab = (src_node.node_id, src.alloc_id)
            dslab = (dst_node.node_id, dst.alloc_id)
            deps = self._ledger.conflicting(reads=(sslab,), writes=(dslab,))
            if deps:
                self._ledger.defer_copy(
                    lambda: self._transfer_now(src_node, src, src_offset,
                                               dst_node, dst, dst_offset,
                                               nbytes),
                    reads=(sslab,), writes=(dslab,), deps=deps)
                return
        self._transfer_now(src_node, src, src_offset, dst_node, dst,
                           dst_offset, nbytes)

    def _transfer_now(self, src_node: TreeNode, src: BufferHandle,
                      src_offset: int, dst_node: TreeNode, dst: BufferHandle,
                      dst_offset: int, nbytes: int) -> None:
        t0 = time.perf_counter()
        src_node.device.copy_into(
            dst_node.device, src.alloc_id, src.base_offset + src_offset,
            dst.alloc_id, dst.base_offset + dst_offset, nbytes)
        self.wall.note(time.perf_counter() - t0, nbytes)

    def _transfer_2d(self, src_node: TreeNode, src: BufferHandle,
                     src_offset: int, src_stride: int, dst_node: TreeNode,
                     dst: BufferHandle, dst_offset: int, dst_stride: int, *,
                     rows: int, row_bytes: int) -> None:
        """Strided 2-D variant of :meth:`_transfer`: one vectored
        gathered transfer instead of a per-row Python loop (same
        pending-conflict deferral)."""
        if self._ledger.active:
            sslab = (src_node.node_id, src.alloc_id)
            dslab = (dst_node.node_id, dst.alloc_id)
            deps = self._ledger.conflicting(reads=(sslab,), writes=(dslab,))
            if deps:
                self._ledger.defer_copy(
                    lambda: self._transfer_2d_now(
                        src_node, src, src_offset, src_stride, dst_node, dst,
                        dst_offset, dst_stride, rows=rows,
                        row_bytes=row_bytes),
                    reads=(sslab,), writes=(dslab,), deps=deps)
                return
        self._transfer_2d_now(src_node, src, src_offset, src_stride,
                              dst_node, dst, dst_offset, dst_stride,
                              rows=rows, row_bytes=row_bytes)

    def _transfer_2d_now(self, src_node: TreeNode, src: BufferHandle,
                         src_offset: int, src_stride: int,
                         dst_node: TreeNode, dst: BufferHandle,
                         dst_offset: int, dst_stride: int, *,
                         rows: int, row_bytes: int) -> None:
        t0 = time.perf_counter()
        src_node.device.copy_into_2d(
            dst_node.device, src.alloc_id, src.base_offset + src_offset,
            src_stride, dst.alloc_id, dst.base_offset + dst_offset,
            dst_stride, rows=rows, row_bytes=row_bytes)
        self.wall.note(time.perf_counter() - t0, rows * row_bytes)

    # -- Table I: unified data management ------------------------------------

    def alloc(self, nbytes: int, node: TreeNode | int, *,
              label: str = "") -> BufferHandle:
        """``alloc(size, tree_node)``: reserve space on a memory or
        storage node and return an opaque handle.

        Charges buffer-setup time (Figures 7/8's "setup" category); on a
        file node this is the create/open path, on a GPU node the driver
        allocation.  When the node is full but its buffer cache holds
        unpinned blocks, those are evicted first: application buffers
        always win over cached copies.
        """
        n = self._node(node)
        if self.tenant_quotas is not None:
            self.tenant_quotas.check(self.current_tenant, nbytes)
        try:
            alloc_id = n.device.allocate(nbytes)
        except CapacityError:
            # Zombie slabs already credited their capacity at release
            # time, so this retry only matters as a safety net (e.g. a
            # backend with true physical arenas); settling them is
            # still cheaper than evicting cached bytes the program may
            # want.
            alloc_id = None
            if self._ledger.active and self._ledger.drain_zombies(n.node_id):
                try:
                    alloc_id = n.device.allocate(nbytes)
                except CapacityError:
                    alloc_id = None
            if alloc_id is None:
                if not self.cache.reclaim(n, nbytes):
                    # Eviction alone cannot make room.  When the bytes
                    # exist but live buffers checkerboard the arena,
                    # compact it as a last resort: handles address
                    # storage by allocation id, so relocation is pure
                    # offset bookkeeping and no data moves.
                    if not n.device.allocator.would_fit_compacted(nbytes):
                        raise
                    self.charge_runtime(n.device.compact())
                alloc_id = n.device.allocate(nbytes)
        handle = self.registry.register(node_id=n.node_id, nbytes=nbytes,
                                        alloc_id=alloc_id, label=label)
        if self.tenant_quotas is not None:
            self.tenant_quotas.on_alloc(self.current_tenant, handle)
        done = self.timeline.charge("host", SETUP_COST[n.device.kind],
                                    Phase.SETUP, label=label or f"alloc@{n.node_id}")
        handle.note_write(done.end)  # zero-initialised content is valid
        self.charge_runtime(1)
        return handle

    def free_for_planning(self, node: TreeNode | int) -> int:
        """Bytes an application can count on allocating at ``node``:
        genuinely free space plus cached bytes that would be reclaimed
        on demand.  Decomposition budgets use this instead of
        ``node.free`` so cache residency never changes tile choices --
        a repeated pass picks the same tiles and therefore hits."""
        n = self._node(node)
        return n.free + self.cache.reclaimable(n)

    def release(self, handle: BufferHandle) -> None:
        """``release(ptr)``: free the storage behind a handle."""
        self.registry.check_live(handle)
        if self.cache.owns(handle):
            raise CacheError(
                f"buffer #{handle.buffer_id} backs a cache block; release "
                f"fetch leases with fetch_release instead")
        self.cache.on_release(handle)
        if self.tenant_quotas is not None:
            self.tenant_quotas.on_release(handle)
        node = self.node_of(handle)
        self.registry.unregister(handle)
        if not handle.is_mapped:
            slab = (node.node_id, handle.alloc_id)
            if self._ledger.active and self._ledger.has_pending(slab):
                # Zombie: capacity is credited now (so free-space
                # queries and later allocations see the logical release
                # exactly as the inline path would), but the backing
                # bytes survive until the slab's pending executor work
                # retires.
                alloc_id = handle.alloc_id
                node.device.release_capacity(alloc_id)
                self._ledger.defer_free(
                    slab, lambda: node.device.destroy_storage(alloc_id))
            else:
                node.device.release(handle.alloc_id)
        self.charge_runtime(1)

    def release_cache_block(self, node: TreeNode, handle: BufferHandle) -> None:
        """Release a cache block's storage, honouring pending executor
        work on its slab (the cache's eviction hook): capacity is
        credited immediately, the bytes survive until any deferred copy
        still reading them retires."""
        slab = (node.node_id, handle.alloc_id)
        if self._ledger.active and self._ledger.has_pending(slab):
            alloc_id = handle.alloc_id
            node.device.release_capacity(alloc_id)
            self._ledger.defer_free(
                slab, lambda: node.device.destroy_storage(alloc_id))
        else:
            node.device.release(handle.alloc_id)

    def move(self, dst: BufferHandle, src: BufferHandle, nbytes: int, *,
             dst_offset: int = 0, src_offset: int = 0,
             label: str = "", cache: bool = True) -> MoveResult:
        """``move_data(dst, src, size, offset, dst_node, src_node)``.

        Endpoints may be anywhere in the tree; a transfer between
        non-adjacent nodes walks the tree edge by edge (the runtime "may
        walk up and down the tree"), charging each hop.  Bytes are moved
        between backends once.

        With the cache in "full" mode, an ancestor->descendant move
        consults the destination node's buffer cache: a hit replaces the
        transfer with a bookkeeping charge, a miss performs the transfer
        and admits the region.  ``cache=False`` opts a single move out.
        """
        self.registry.check_live(src)
        self.registry.check_live(dst)
        self.cache.flush_handle(src)
        self.cache.flush_handle(dst)
        _check_window(src, src_offset, dst, dst_offset, nbytes)
        src_node, dst_node = self.node_of(src), self.node_of(dst)

        spec = ncache = None
        if cache and nbytes >= 1 and self._cacheable_down(src_node, dst_node):
            spec = FetchSpec.contiguous(src, src_offset, nbytes)
            served, ncache = self._cache_consult(dst, spec,
                                                 dst_offset=dst_offset,
                                                 dst_stride=None, label=label)
            if served is not None:
                return served

        start, end, hops = self._charge_move(
            src_node, dst_node, nbytes,
            max(src.ready_at, dst.last_read_end), label)

        # Physical byte movement (eager; virtual time already charged).
        self._transfer(src_node, src, src_offset, dst_node, dst, dst_offset,
                       nbytes)

        src.note_read(end)
        dst.note_write(end)
        self.charge_runtime(2)
        if ncache is not None:
            self._cache_admit(ncache, spec, dst, dst_offset=dst_offset,
                              dst_stride=None, end=end)
        return MoveResult(start=start, end=end, nbytes=nbytes, hops=hops)

    def move_2d(self, dst: BufferHandle, src: BufferHandle, *, rows: int,
                row_bytes: int, src_offset: int, src_stride: int,
                dst_offset: int, dst_stride: int,
                label: str = "", cache: bool = True) -> MoveResult:
        """A 2-D block transfer (Listing 2's ``dCopyBlockH2D``/``D2H``).

        Moves ``rows`` runs of ``row_bytes`` with independent source and
        destination strides.  Charged as *one* operation of
        ``rows * row_bytes`` payload -- the 2-D DMA / pre-chunked-file
        model; the paper preprocesses inputs precisely so chunk I/O is
        bulk rather than per-row (Section V-B).
        """
        self.registry.check_live(src)
        self.registry.check_live(dst)
        self.cache.flush_handle(src)
        self.cache.flush_handle(dst)
        if rows < 0 or row_bytes < 0:
            raise TransferError(f"negative rows/row_bytes ({rows}, {row_bytes})")
        if rows and row_bytes:
            last_src = src_offset + (rows - 1) * src_stride + row_bytes
            last_dst = dst_offset + (rows - 1) * dst_stride + row_bytes
            if src_offset < 0 or last_src > src.nbytes:
                raise TransferError(
                    f"2-D read [{src_offset}..{last_src}) out of bounds for {src!r}")
            if dst_offset < 0 or last_dst > dst.nbytes:
                raise TransferError(
                    f"2-D write [{dst_offset}..{last_dst}) out of bounds for {dst!r}")
            if src_stride < row_bytes or dst_stride < row_bytes:
                raise TransferError(
                    f"strides ({src_stride}, {dst_stride}) smaller than the "
                    f"row payload {row_bytes}: rows would overlap")
        nbytes = rows * row_bytes
        src_node, dst_node = self.node_of(src), self.node_of(dst)

        spec = ncache = None
        if cache and nbytes >= 1 and self._cacheable_down(src_node, dst_node):
            spec = FetchSpec.strided(src, offset=src_offset, rows=rows,
                                     row_bytes=row_bytes, stride=src_stride)
            served, ncache = self._cache_consult(dst, spec,
                                                 dst_offset=dst_offset,
                                                 dst_stride=dst_stride,
                                                 label=label)
            if served is not None:
                return served

        start, end, hops = self._charge_move(
            src_node, dst_node, nbytes,
            max(src.ready_at, dst.last_read_end), label)

        self._transfer_2d(src_node, src, src_offset, src_stride, dst_node,
                          dst, dst_offset, dst_stride, rows=rows,
                          row_bytes=row_bytes)
        src.note_read(end)
        dst.note_write(end)
        self.charge_runtime(2)
        if ncache is not None:
            self._cache_admit(ncache, spec, dst, dst_offset=dst_offset,
                              dst_stride=dst_stride, end=end)
        return MoveResult(start=start, end=end, nbytes=nbytes, hops=hops)

    def _charge_move(self, src_node: TreeNode, dst_node: TreeNode,
                     nbytes: int, ready: float,
                     label: str) -> tuple[float, float, int]:
        """Charge one transfer's virtual path -- a local copy on one
        device, or each tree edge between the nodes in turn -- and
        return ``(start, end, hops)``."""
        if src_node is dst_node:
            dev = src_node.device
            duration = dev.spec.latency + nbytes / min(dev.spec.read_bw,
                                                       dev.spec.write_bw)
            done = self.timeline.charge_path(
                [dev.read_resource] if dev.read_resource == dev.write_resource
                else [dev.read_resource, dev.write_resource],
                duration, Phase.MEM_COPY, ready=ready, label=label,
                nbytes=nbytes)
            return done.start, done.end, 1
        start, end, hops = None, ready, 0
        for edge_src, edge_dst in self._edge_path(src_node, dst_node):
            done = self._charge_edge(edge_src, edge_dst, nbytes,
                                     ready=end, label=label)
            if start is None:
                start = done.start
            end = done.end
            hops += 1
        assert start is not None
        return start, end, hops

    def map_region(self, handle: BufferHandle, offset: int, nbytes: int, *,
                   label: str = "") -> BufferHandle:
        """Map a window of an existing buffer (Section III-D: data
        movement "can be implemented with memory mapping functions too").

        The returned handle shares the parent's storage and dependency
        times: no bytes move, no capacity is consumed, and creating or
        releasing it costs only runtime bookkeeping.  Useful for treating
        a chunk of a parent-level buffer as a first-class buffer without
        a copy (e.g. when two tree levels share a physical memory).
        """
        self.registry.check_live(handle)
        mapped = self.registry.register_mapped(handle, offset, nbytes,
                                               label=label)
        self.charge_runtime(1, label="mmap")
        return mapped

    def move_transformed(self, dst: BufferHandle, src: BufferHandle,
                         nbytes: int, transform, *, dst_offset: int = 0,
                         src_offset: int = 0,
                         label: str = "") -> MoveResult:
        """The "special version of move_data()" of Section VI: move a
        chunk while rewriting its layout (row<->column major, AoS<->SoA).

        The transport cost is the ordinary move; the rewrite is charged
        as an additional pass over the bytes on the destination node
        (where the converted copy is materialised), so the trade-off the
        paper describes -- transformation pays off only with enough
        reuse -- is visible in the timing.
        """
        transform.check(nbytes)
        result = self.move(dst, src, nbytes, dst_offset=dst_offset,
                           src_offset=src_offset,
                           label=label or f"move+{type(transform).__name__}")
        # The in-place rewrite reads and rewrites the destination bytes
        # directly: the move above may have been deferred behind
        # pending executor work, so settle the slab first.
        self._exec_settle(dst, for_write=True)
        dst_node = self.node_of(dst)
        payload = dst_node.device.read(dst.alloc_id,
                                       dst.base_offset + dst_offset, nbytes)
        dst_node.device.write(dst.alloc_id, dst.base_offset + dst_offset,
                              transform.apply(payload))
        if transform.cost_factor > 0:
            dev = dst_node.device.spec
            duration = (dev.latency + transform.cost_factor * nbytes
                        / min(dev.read_bw, dev.write_bw))
            resources = [dst_node.device.read_resource]
            if dst_node.device.write_resource != dst_node.device.read_resource:
                resources.append(dst_node.device.write_resource)
            done = self.timeline.charge_path(
                resources, duration, Phase.MEM_COPY, ready=result.end,
                label=f"layout:{type(transform).__name__}", nbytes=nbytes)
            dst.note_write(done.end)
            return MoveResult(start=result.start, end=done.end,
                              nbytes=nbytes, hops=result.hops)
        return result

    def move_down(self, dst: BufferHandle, src: BufferHandle, nbytes: int, *,
                  dst_offset: int = 0, src_offset: int = 0,
                  label: str = "", cache: bool = True) -> MoveResult:
        """``move_data_down``: parent -> child, asserting the direction."""
        self._assert_adjacent(self.node_of(src), self.node_of(dst),
                              expect_down=True)
        return self.move(dst, src, nbytes, dst_offset=dst_offset,
                         src_offset=src_offset, label=label, cache=cache)

    def move_down_batch(self, moves: Sequence[BatchMove]) -> list[MoveResult]:
        """``move_data_down`` for a whole pre-planned chunk sweep.

        Runs of moves sharing one tree edge are charged through a single
        :meth:`~repro.sim.timeline.Timeline.charge_path_batch` call, so a
        pipelined sweep pays one resolution/dispatch round-trip per run
        instead of one per chunk.  Placements are exactly those of the
        equivalent loop of :meth:`move_down` calls, with two deliberate
        differences: runtime bookkeeping is charged as one aggregate
        interval at the end (same total ops, fewer trace rows), and the
        sweep never consults the transparent cache -- with the cache in
        "full" mode it degenerates to sequential :meth:`move_down` calls,
        because per-move hit/miss decisions cannot be batched.

        A move that reads a buffer a pending move writes, or overwrites
        one a pending move reads, closes the current run first, so
        ``ready`` times thread through exactly as in the sequential
        loop.
        """
        if not moves:
            return []
        if self.cache.transparent:
            return [self.move_down(m.dst, m.src, m.nbytes,
                                   dst_offset=m.dst_offset,
                                   src_offset=m.src_offset, label=m.label)
                    for m in moves]
        results: list[MoveResult] = []
        pending: list[BatchMove] = []
        pending_nodes: tuple[TreeNode, TreeNode] | None = None
        # id() of the BufferTimes pending moves read (sources) and write
        # (destinations); stamped only at flush, so a later move that
        # reads a pending write (RAW) or overwrites a pending read (WAR)
        # must close the run first.  Shared sources (one staging buffer
        # fanned to many chunks) and repeated writes to one destination
        # need no flush: neither changes any later move's ready time.
        pending_read: set[int] = set()
        pending_written: set[int] = set()

        def flush_run() -> None:
            nonlocal pending_nodes
            if not pending:
                return
            src_node, dst_node = pending_nodes
            resources, phase, latency, bw = self._edge_plan(src_node, dst_node)
            ops = [(latency + m.nbytes / bw,
                    max(m.src.ready_at, m.dst.last_read_end),
                    m.label, m.nbytes) for m in pending]
            done = self.timeline.charge_path_batch(resources, ops, phase)
            for m, c in zip(pending, done):
                self._transfer(src_node, m.src, m.src_offset, dst_node,
                               m.dst, m.dst_offset, m.nbytes)
                m.src.note_read(c.end)
                m.dst.note_write(c.end)
                results.append(MoveResult(start=c.start, end=c.end,
                                          nbytes=m.nbytes, hops=1))
            pending.clear()
            pending_nodes = None
            pending_read.clear()
            pending_written.clear()

        for m in moves:
            self.registry.check_live(m.src)
            self.registry.check_live(m.dst)
            self.cache.flush_handle(m.src)
            self.cache.flush_handle(m.dst)
            _check_window(m.src, m.src_offset, m.dst, m.dst_offset, m.nbytes)
            src_node, dst_node = self.node_of(m.src), self.node_of(m.dst)
            self._assert_adjacent(src_node, dst_node, expect_down=True)
            if pending and (pending_nodes != (src_node, dst_node)
                            or id(m.src.times) in pending_written
                            or id(m.dst.times) in pending_read):
                flush_run()
            pending.append(m)
            pending_nodes = (src_node, dst_node)
            pending_read.add(id(m.src.times))
            pending_written.add(id(m.dst.times))
        flush_run()
        self.charge_runtime(2 * len(moves), label="move_down_batch")
        return results

    def move_up(self, dst: BufferHandle, src: BufferHandle, nbytes: int, *,
                dst_offset: int = 0, src_offset: int = 0,
                label: str = "") -> MoveResult:
        """``move_data_up``: child -> parent, asserting the direction.

        Under ``CacheConfig(write_policy="back")`` the virtual charge is
        deferred to the write-back ledger: bytes move now, the transfer
        is charged when either endpoint is next read or released, and a
        re-dirty of the same destination region before that absorbs the
        earlier transfer entirely.
        """
        self._assert_adjacent(self.node_of(dst), self.node_of(src),
                              expect_down=True)
        if self.cache.writeback:
            self.registry.check_live(src)
            self.registry.check_live(dst)
            _check_window(src, src_offset, dst, dst_offset, nbytes)
            return self.cache.defer_up(dst, src, nbytes,
                                       dst_offset=dst_offset,
                                       src_offset=src_offset, label=label)
        return self.move(dst, src, nbytes, dst_offset=dst_offset,
                         src_offset=src_offset, label=label)

    # -- the buffer cache ---------------------------------------------------

    def fetch_down(self, node: TreeNode | int, src: BufferHandle, *,
                   nbytes: int | None = None, src_offset: int = 0,
                   rows: int | None = None, row_bytes: int | None = None,
                   src_stride: int | None = None,
                   label: str = "") -> BufferHandle:
        """Pin a parent-level region on ``node`` and return a handle to
        it, caching the bytes across fetches.

        This is the cache-aware complement of :meth:`move_down` for
        *read-only* inputs: the same region fetched again (same source
        buffer, offset and shape) hits the node's cache and costs only
        bookkeeping instead of a transfer.  The returned handle is
        pinned -- eviction will not touch it -- until
        :meth:`fetch_release`; do not write through it or pass it to
        :meth:`release`.

        Pass ``nbytes``/``src_offset`` for a contiguous range, or
        ``rows``/``row_bytes``/``src_stride`` (+ ``src_offset``) for a
        2-D window, which lands packed row-major in the returned buffer.
        With the cache off this degenerates to allocate + move, released
        by ``fetch_release``.
        """
        n = self._node(node)
        self.registry.check_live(src)
        src_node = self.node_of(src)
        self._assert_adjacent(src_node, n, expect_down=True)
        if rows is not None:
            if row_bytes is None or src_stride is None:
                raise TransferError(
                    "strided fetch_down needs rows, row_bytes and src_stride")
            spec = FetchSpec.strided(src, offset=src_offset, rows=rows,
                                     row_bytes=row_bytes, stride=src_stride)
        elif nbytes is not None:
            spec = FetchSpec.contiguous(src, src_offset, nbytes)
        else:
            raise TransferError(
                "fetch_down needs nbytes or rows/row_bytes/src_stride")
        cache = self.cache.node_cache(n)
        if cache is not None:
            block = cache.lookup(spec)
            if block is not None:
                self.cache.count_hit(cache, spec.nbytes)
                cache.touch(block)
                self.timeline.charge(
                    "host", self.cache.config.hit_cost, Phase.CACHE,
                    label=f"cache-hit:{label or src.label or src.buffer_id}",
                    nbytes=spec.nbytes)
                self.charge_runtime(1)
                self.cache.engine.notify_access(n, spec)
                return self.cache.lease_block(cache, block)
            self.cache.count_miss(cache, spec.nbytes)
            # Consume this access's plan entry before admission so the
            # policy ranks the incoming block by its next use.
            self.cache.engine.consume(n.node_id, spec.key)
            block = self.cache.fetch_into_cache(n, spec, label=label)
            if block is not None:
                cache.touch(block)  # demand admission is an access
                self.cache.engine.issue(n)
                return self.cache.lease_block(cache, block)
        # No cache (or no room even after eviction): plain staging copy,
        # torn down again by fetch_release.
        handle = self.alloc(spec.nbytes, n,
                            label=label or f"fetch:{src.label or src.buffer_id}")
        if spec.is_strided:
            self.move_2d(handle, src, rows=spec.rows,
                         row_bytes=spec.row_bytes, src_offset=spec.offset,
                         src_stride=spec.stride, dst_offset=0,
                         dst_stride=spec.row_bytes, label=label, cache=False)
        else:
            self.move(handle, src, spec.nbytes, src_offset=spec.offset,
                      label=label, cache=False)
        return self.cache.lease_plain(handle)

    def will_need(self, hints) -> None:
        """Physical read-ahead advice for a level's upcoming fetches.

        ``hints`` are the ``(child_node, FetchSpec)`` pairs of
        :meth:`NorthupProgram.prefetch_hints`, in program order; each
        source device's backend is told the windows it is about to be
        read from (:meth:`~repro.memory.backends.DataBackend.advise`),
        so a file backend can read chunk k+1 while chunk k computes --
        the paper's transfer/compute overlap in wall-clock time.
        Nothing is charged and nothing modeled changes.

        Only with a core to spare for the reader thread: an
        asynchronous executor's workers already overlap the
        coordinator's reads with their kernels, and on a 2-core host a
        third busy thread made both 2-worker pools slower.
        """
        ex = self.executor
        if effective_cpu_count() - 1 \
                - (ex.workers if ex.asynchronous else 0) < 1:
            return
        by_node: dict[int, list[tuple]] = {}
        for _child, spec in hints:
            src = spec.src
            rows, row_bytes, stride = \
                (spec.rows, spec.row_bytes, spec.stride) if spec.is_strided \
                else (1, spec.nbytes, spec.nbytes)
            by_node.setdefault(src.node_id, []).append(
                (src.alloc_id, src.base_offset + spec.offset, rows,
                 row_bytes, stride))
        for node_id, windows in by_node.items():
            self.tree.node(node_id).device.advise(windows)

    def fetch_release(self, handle: BufferHandle) -> None:
        """End a :meth:`fetch_down` lease.  The block stays cached for
        future hits (it is merely unpinned); an uncached staging buffer
        is released."""
        self.cache.release_lease(handle)
        self.charge_runtime(1)

    def _cacheable_down(self, src_node: TreeNode, dst_node: TreeNode) -> bool:
        """Transparent consults apply to ancestor->descendant moves in
        "full" mode only."""
        return (self.cache.transparent and src_node is not dst_node
                and src_node in dst_node.path_to_root())

    def _cache_consult(self, dst: BufferHandle, spec: FetchSpec, *,
                       dst_offset: int, dst_stride: int | None, label: str):
        """Try to serve a down-move from the destination node's cache.

        Returns ``(MoveResult, None)`` on a hit; ``(None, cache)`` on a
        miss (the caller performs the transfer, then admits via
        :meth:`_cache_admit`); ``(None, None)`` when the node has no
        cache.
        """
        dst_node = self.node_of(dst)
        cache = self.cache.node_cache(dst_node)
        if cache is None:
            return None, None
        block = cache.lookup(spec)
        if block is None:
            self.cache.count_miss(cache, spec.nbytes)
            return None, cache
        self.cache.count_hit(cache, spec.nbytes)
        cache.touch(block)
        src = spec.src
        ready = max(block.handle.ready_at, dst.last_read_end)
        done = self.timeline.charge(
            "host", self.cache.config.hit_cost, Phase.CACHE, ready=ready,
            label=f"cache-hit:{label or src.label or src.buffer_id}",
            nbytes=spec.nbytes)
        # Local copy block -> destination region; no edge is crossed.
        bh = block.handle
        if spec.is_strided:
            self._transfer_2d(dst_node, bh, 0, spec.row_bytes, dst_node, dst,
                              dst_offset, dst_stride, rows=spec.rows,
                              row_bytes=spec.row_bytes)
        else:
            self._transfer(dst_node, bh, 0, dst_node, dst, dst_offset,
                           spec.nbytes)
        bh.note_read(done.end)
        dst.note_write(done.end)
        self.charge_runtime(1)
        self.cache.engine.notify_access(dst_node, spec)
        return MoveResult(start=done.start, end=done.end,
                          nbytes=spec.nbytes, hops=0), None

    def _cache_admit(self, cache, spec: FetchSpec, dst: BufferHandle, *,
                     dst_offset: int, dst_stride: int | None,
                     end: float) -> None:
        """After a transparent miss moved the bytes into ``dst``, admit
        the region by copying it (locally) into a cache block."""
        dst_node = self.node_of(dst)
        # Consume this access's plan entry first: admission policies
        # rank the incoming block by its *next* use.
        self.cache.engine.consume(dst_node.node_id, spec.key)
        block = cache.admit(spec)
        if block is not None:
            cache.touch(block)  # demand admission is an access
            self.timeline.charge(
                "host", SETUP_COST[dst_node.device.kind], Phase.SETUP,
                label=f"cache-alloc@{dst_node.node_id}")
            bh = block.handle
            if spec.is_strided:
                self._transfer_2d(dst_node, dst, dst_offset, dst_stride,
                                  dst_node, bh, 0, spec.row_bytes,
                                  rows=spec.rows, row_bytes=spec.row_bytes)
            else:
                self._transfer(dst_node, dst, dst_offset, dst_node, bh, 0,
                               spec.nbytes)
            bh.note_write(end)
        self.cache.engine.issue(dst_node)

    def _assert_adjacent(self, parent: TreeNode, child: TreeNode, *,
                         expect_down: bool) -> None:
        if child.parent is not parent:
            direction = "move_down" if expect_down else "move_up"
            raise TransferError(
                f"{direction}: nodes {parent.node_id} and {child.node_id} "
                f"are not a parent/child pair")

    def _edge_path(self, src: TreeNode,
                   dst: TreeNode) -> list[tuple[TreeNode, TreeNode]]:
        """Consecutive (from, to) node pairs along the tree path."""
        lca = self.tree.lowest_common_ancestor(src, dst)
        up = []
        cur = src
        while cur is not lca:
            up.append((cur, cur.parent))
            cur = cur.parent
        down_nodes = []
        cur = dst
        while cur is not lca:
            down_nodes.append(cur)
            cur = cur.parent
        down = [(b.parent, b) for b in reversed(down_nodes)]
        return up + down

    def _edge_plan(self, src: TreeNode,
                   dst: TreeNode) -> tuple[tuple[str, ...], Phase, float, float]:
        """The charging recipe of one parent<->child hop, memoized:
        ``(resource names, phase, latency sum, bottleneck bandwidth)``."""
        key = (src.node_id, dst.node_id)
        plan = self._edge_plans.get(key)
        if plan is None:
            child = dst if dst.parent is src else src
            direction = "down" if child is dst else "up"
            link = child.uplink
            assert link is not None, "validated trees always carry edge links"
            bw = min(src.device.spec.read_bw, link.bandwidth,
                     dst.device.spec.write_bw)
            latency = (src.device.spec.latency + link.latency
                       + dst.device.spec.latency)
            phase = _transfer_phase(src.device.kind, dst.device.kind)
            resources = [src.device.read_resource,
                         link.resource_name(direction),
                         dst.device.write_resource]
            # A device's read and write side may be one physical channel;
            # do not list the same resource twice for one operation.
            plan = (tuple(dict.fromkeys(resources)), phase, latency, bw)
            self._edge_plans[key] = plan
        return plan

    def _charge_edge(self, src: TreeNode, dst: TreeNode, nbytes: int, *,
                     ready: float, label: str) -> Completion:
        """Charge one parent<->child hop on its physical resources."""
        resources, phase, latency, bw = self._edge_plan(src, dst)
        return self.timeline.charge_path(resources, latency + nbytes / bw,
                                         phase, ready=ready, label=label,
                                         nbytes=nbytes)

    # -- compute -----------------------------------------------------------

    def launch(self, proc: Processor, cost: KernelCost, *,
               reads: tuple[BufferHandle, ...] = (),
               writes: tuple[BufferHandle, ...] = (),
               fn=None, kernel: KernelSpec | None = None, label: str = "",
               extra_duration: float = 0.0) -> Completion:
        """Launch a kernel on a processor (Section III-E).

        The real computation is either ``fn`` -- a closure run
        immediately on the simulator thread, the historical path -- or
        ``kernel``, a picklable :class:`~repro.exec.base.KernelSpec`
        dispatched through the system's compute backend
        (:mod:`repro.exec`): inline backends run it in place over
        buffer views, asynchronous ones snapshot the bindings and merge
        results later in submission order.  Duration always comes from
        the processor's roofline on ``cost``, charged here on the
        simulator thread -- virtual time is backend-independent.  The
        launch waits for its input buffers to be ready and for its
        output buffers to be safe to overwrite.
        """
        node = self.processor_node(proc)
        for h in (*reads, *writes):
            self.registry.check_live(h)
            self.cache.flush_handle(h)
            if self.node_of(h) is not node:
                raise TransferError(
                    f"kernel on {proc.name!r} (node {node.node_id}) cannot "
                    f"touch buffer #{h.buffer_id} on node {h.node_id}; move "
                    f"the data first")
        ready = 0.0
        for h in reads:
            ready = max(ready, h.ready_at)
        for h in writes:
            ready = max(ready, h.last_read_end, h.ready_at)
        if kernel is not None:
            if fn is not None:
                raise TransferError("launch takes fn or kernel, not both")
            self._dispatch_kernel(kernel)
        elif fn is not None:
            fn()
        duration = proc.exec_time(cost) + extra_duration
        done = self.timeline.charge(proc.resource, duration, proc.phase,
                                    ready=ready, label=label or proc.name)
        for h in reads:
            h.note_read(done.end)
        for h in writes:
            h.note_write(done.end)
        self.charge_runtime(1)
        return done

    def _dispatch_kernel(self, spec: KernelSpec) -> None:
        """Route a kernel spec to the compute backend.

        Inline backends execute in place over buffer views, exactly as
        the historical closures did.  Asynchronous backends snapshot
        every binding's current bytes (outputs included: an ``inout``
        accumulator needs its prior contents, and untouched window
        bytes must merge back unchanged), submit, and register the
        pending merge with the ledger keyed on the output slabs."""
        ex = self.executor
        led = self._ledger
        if ex.telemetry is not None:
            # Bind the ambient virtual span: merged physical traces
            # join kernel records back to it (0 = no active span).
            ex.telemetry.current_span = self.obs.current.span_id
        if not ex.asynchronous:
            if led.active:
                slabs = [(b.handle.node_id, b.handle.alloc_id)
                         for b in spec.bindings]
                led.complete_writers(slabs)
                led.complete_all([s for b, s in zip(spec.bindings, slabs)
                                  if b.writable])
            self._run_kernel_inline(spec)
            return
        t0 = time.perf_counter()
        slabs = [(b.handle.node_id, b.handle.alloc_id)
                 for b in spec.bindings]
        if led.active:
            # The snapshot must capture the bytes the inline path would
            # have seen: settle pending writers of every binding first.
            led.complete_writers(slabs)
        arrays = []
        merges = []
        write_slabs = set()
        for b, slab in zip(spec.bindings, slabs):
            arr = self._snapshot_binding(b, ex)
            arrays.append((b.name, arr, b.writable))
            if b.writable:
                # The version bumps *now*, where the inline path's
                # writable view would have bumped it: any cached copy
                # is stale from this virtual instant, and host reads
                # between submit and merge settle through the ledger.
                b.handle.bump_version()
                write_slabs.add(slab)
                merges.append(MergeTarget(
                    name=b.name, node=self.node_of(b.handle),
                    alloc_id=b.handle.alloc_id,
                    offset=b.handle.base_offset + b.offset,
                    nbytes=arr.nbytes))
        # Remaining pending ops on the output slabs (deferred copies
        # that still read or write them) must retire before this
        # kernel's merge lands.
        deps = led.conflicting(writes=write_slabs)
        ticket = ex.submit(spec.fn_ref, arrays, spec.kwargs,
                           label=spec.label)
        led.add_kernel(executor=ex, ticket=ticket, writes=write_slabs,
                       merges=merges, deps=deps, label=spec.label)
        ex.stats.dispatch_seconds += time.perf_counter() - t0

    def _snapshot_binding(self, b, ex: Executor) -> np.ndarray:
        """An owned, writable copy of a binding's current bytes, built
        in a staging buffer of the executor."""
        view = self.view_array(b.handle, b.dtype, b.shape, b.offset, b.count)
        if view is None:
            return self.fetch(b.handle, b.dtype, b.shape, b.offset, b.count)
        arr = ex.stage(view.nbytes).view(view.dtype).reshape(view.shape)
        np.copyto(arr, view)
        return arr

    def _run_kernel_inline(self, spec: KernelSpec) -> None:
        """In-place execution over buffer views -- behaviour-identical
        to the historical per-app closures (fetch/preload round trip on
        view-less backends)."""
        ex = self.executor
        t0 = time.perf_counter()
        args = {}
        writebacks = []
        for b in spec.bindings:
            arr, is_view = self.host_array(b.handle, b.dtype, b.shape,
                                           b.offset, b.count,
                                           writable=b.writable)
            args[b.name] = arr
            if b.writable and not is_view:
                writebacks.append((b, arr))
        fn = resolve_kernel(spec.fn_ref)
        ex.stats.submitted += 1
        ex.stats.dispatch_seconds += time.perf_counter() - t0
        tel = ex.telemetry
        if tel is None:
            t1 = time.perf_counter()
            fn(**args, **spec.kwargs)
            ex.stats.note_done("main", time.perf_counter() - t1)
        else:
            k0 = time.perf_counter_ns()
            fn(**args, **spec.kwargs)
            k1 = time.perf_counter_ns()
            ex.stats.note_done("main", (k1 - k0) / 1e9)
            tel.note_inline("main", "kernel", k0, k1,
                            nbytes=sum(a.nbytes for a in args.values()))
        for b, arr in writebacks:
            self.preload(b.handle, arr, b.offset)

    def drain_exec(self) -> None:
        """Settle every pending executor effect: deferred copies run,
        kernel results merge (submission order), zombie slabs free."""
        self._ledger.drain_all()

    def end_run(self) -> None:
        """End-of-run teardown: pending executor work settles, then the
        cache drops leases and pays write-back IOUs.  Programs call this
        (via :meth:`NorthupProgram.run`'s finally); the serve layer
        calls it per job with ``serve_scope`` set.  Read-ahead advice
        (:meth:`will_need`) not yet used is cancelled, also when the
        run failed."""
        try:
            self.drain_exec()
            self.cache.end_run()
        finally:
            for node in self.tree.nodes():
                node.device.advise(())

    def _exec_settle(self, handle: BufferHandle, *,
                     for_write: bool = False) -> None:
        """Order an untimed host access behind pending executor work on
        the handle's slab: reads need pending writers settled, writes
        need pending readers too."""
        if not self._ledger.active:
            return
        slab = (handle.node_id, handle.alloc_id)
        if for_write:
            self._ledger.complete_all((slab,))
        else:
            self._ledger.complete_writers((slab,))

    # -- untimed host access -------------------------------------------------

    def preload(self, handle: BufferHandle, arr: np.ndarray,
                offset: int = 0) -> None:
        """Write workload data into a buffer without charging time
        (input preprocessing is excluded from measurement, Section V-B)."""
        self.registry.check_live(handle)
        self._exec_settle(handle, for_write=True)
        arr = np.ascontiguousarray(arr)
        if offset < 0 or offset + arr.nbytes > handle.nbytes:
            raise TransferError(
                f"preload of {arr.nbytes} bytes at offset {offset} "
                f"overflows {handle!r}")
        node = self.node_of(handle)
        node.device.write(handle.alloc_id, handle.base_offset + offset, arr)
        handle.bump_version()  # cached copies of the old contents are stale

    def fetch(self, handle: BufferHandle, dtype, shape=None,
              offset: int = 0, count: int | None = None) -> np.ndarray:
        """Read a buffer's contents as a typed array without charging
        time (result verification)."""
        self.registry.check_live(handle)
        self._exec_settle(handle)
        node = self.node_of(handle)
        count = self._host_window(handle, dtype, shape, offset, count)
        raw = node.device.read(handle.alloc_id, handle.base_offset + offset,
                               count)
        arr = raw.view(dtype)
        return arr.reshape(shape) if shape is not None else arr

    def _host_window(self, handle: BufferHandle, dtype, shape, offset: int,
                     count: int | None) -> int:
        """Shared fetch/view argument math: bytes of the typed window."""
        itemsize = np.dtype(dtype).itemsize
        if count is None:
            if shape is not None:
                count = int(np.prod(shape)) * itemsize
            else:
                count = handle.nbytes - offset
        if offset < 0 or offset + count > handle.nbytes:
            raise TransferError(
                f"access of {count} bytes at offset {offset} overflows "
                f"{handle!r}")
        return count

    def view_array(self, handle: BufferHandle, dtype, shape=None,
                   offset: int = 0, count: int | None = None, *,
                   writable: bool = False) -> np.ndarray | None:
        """A zero-copy typed view of a buffer's bytes, or ``None`` when
        the node's backend cannot expose one (plain file storage).

        Untimed host access like :meth:`fetch`/:meth:`preload`, but
        without the round-trip copies: kernels read inputs in place and
        write results straight into the backing store.  ``writable=True``
        marks the contents changed (cache staleness) and returns a
        writable view; otherwise the view is marked read-only so a
        caller cannot mutate backend state by accident.  The view is
        only valid while the handle is live.
        """
        self.registry.check_live(handle)
        self._exec_settle(handle, for_write=writable)
        count = self._host_window(handle, dtype, shape, offset, count)
        node = self.node_of(handle)
        raw = node.device.try_view(handle.alloc_id,
                                   handle.base_offset + offset, count)
        if raw is None:
            return None
        if writable:
            handle.bump_version()  # cached copies of old contents are stale
        else:
            raw = raw.view()
            raw.flags.writeable = False
        arr = raw.view(dtype)
        return arr.reshape(shape) if shape is not None else arr

    def host_array(self, handle: BufferHandle, dtype, shape=None,
                   offset: int = 0, count: int | None = None, *,
                   writable: bool = False) -> tuple[np.ndarray, bool]:
        """``(array, is_view)``: a zero-copy view when the backend
        supports one, else a :meth:`fetch` copy.  When ``is_view`` is
        False and the caller mutates the array, it must write it back
        with :meth:`preload`; when True, mutations (only allowed with
        ``writable=True``) already landed in the buffer."""
        view = self.view_array(handle, dtype, shape, offset, count,
                               writable=writable)
        if view is not None:
            return view, True
        return self.fetch(handle, dtype, shape, offset, count), False

    # -- reporting -----------------------------------------------------------

    def _collect_metrics(self, reg: MetricsRegistry) -> None:
        """Pull-collector bridging the runtime's scattered counters into
        the metrics registry (cache stats, fd pools, array pools, level
        queues, wall stats, trace aggregates)."""
        reg.gauge("runtime_ops", self.runtime_ops,
                  help_text="framework bookkeeping operations charged")
        reg.gauge("wall_physical_seconds", self.wall.physical_seconds,
                  help_text="wall-clock seconds spent moving bytes")
        reg.gauge("wall_bytes_moved", self.wall.bytes_moved)
        reg.gauge("wall_ops", self.wall.ops)
        ex = self.executor
        xlabels = {"backend": ex.name}
        reg.gauge("exec_workers", ex.workers, labels=xlabels)
        reg.gauge("exec_tasks_submitted", ex.stats.submitted, labels=xlabels)
        reg.gauge("exec_tasks_completed", ex.stats.completed, labels=xlabels)
        reg.gauge("exec_dispatch_seconds", ex.stats.dispatch_seconds,
                  labels=xlabels,
                  help_text="submit-side snapshot/packing/queueing wall time")
        reg.gauge("exec_merge_seconds", ex.stats.merge_seconds,
                  labels=xlabels,
                  help_text="result read-back wall time (async backends)")
        reg.gauge("exec_bytes_in", ex.stats.bytes_in, labels=xlabels)
        reg.gauge("exec_bytes_out", ex.stats.bytes_out, labels=xlabels)
        for worker in sorted(ex.stats.worker_busy):
            wlabels = dict(xlabels, worker=worker)
            reg.gauge("exec_worker_busy_seconds",
                      ex.stats.worker_busy[worker], labels=wlabels,
                      help_text="kernel wall seconds per pool worker")
            reg.gauge("exec_worker_tasks", ex.stats.worker_tasks[worker],
                      labels=wlabels)
        reg.gauge("exec_deferred_copies", self._ledger.deferred_copies,
                  labels=xlabels,
                  help_text="transfers deferred behind pending async work")
        reg.gauge("exec_zombie_frees", self._ledger.zombie_frees,
                  labels=xlabels,
                  help_text="releases whose physical free was deferred")
        trace = self.timeline.trace
        reg.gauge("trace_intervals", len(trace))
        reg.gauge("virtual_makespan_seconds", self.timeline.makespan())
        for phase, secs in trace.by_phase().items():
            reg.gauge("virtual_busy_seconds", secs,
                      labels={"phase": phase.value})
        for phase, nbytes in trace.bytes_by_phase().items():
            reg.gauge("virtual_bytes_moved", nbytes,
                      labels={"phase": phase.value})
        for nid, stats in self.cache.stats_by_node().items():
            labels = {"node": str(nid)}
            reg.gauge("cache_hits", stats.hits, labels=labels)
            reg.gauge("cache_misses", stats.misses, labels=labels)
            reg.gauge("cache_hit_bytes", stats.hit_bytes, labels=labels)
            reg.gauge("cache_miss_bytes", stats.miss_bytes, labels=labels)
            reg.gauge("cache_evictions", stats.evictions, labels=labels)
            reg.gauge("cache_admissions", stats.admissions, labels=labels)
            reg.gauge("cache_prefetch_issued", stats.prefetch_issued,
                      labels=labels)
            reg.gauge("cache_prefetch_used", stats.prefetch_used,
                      labels=labels)
            reg.gauge("cache_prefetch_wasted", stats.prefetch_wasted,
                      labels=labels)
            reg.gauge("cache_writebacks_deferred", stats.writebacks_deferred,
                      labels=labels)
        for node in self.tree.nodes():
            labels = {"node": str(node.node_id)}
            backend = node.device.backend
            fds = getattr(backend, "_fds", None)
            if fds is not None and hasattr(fds, "opens"):
                reg.gauge("fd_pool_opens", fds.opens, labels=labels)
                reg.gauge("fd_pool_hits", fds.hits, labels=labels)
                reg.gauge("fd_pool_evictions", fds.evictions, labels=labels)
            ahead = getattr(backend, "readahead", None)
            if ahead is not None:
                for outcome, count in ahead.counts.items():
                    reg.gauge("readahead_windows", count,
                              labels=dict(labels, outcome=outcome),
                              help_text="advised file windows by fate")
                reg.gauge("readahead_bytes", ahead.bytes, labels=labels,
                          help_text="bytes served from read-ahead buffers")
                reg.gauge("readahead_wait_seconds", ahead.wait_seconds,
                          labels=labels,
                          help_text="coordinator blocked on an in-flight "
                                    "window")
            pool = getattr(backend, "pool", None)
            if pool is not None and hasattr(pool, "reuses"):
                reg.gauge("array_pool_reuses", pool.reuses, labels=labels)
                reg.gauge("array_pool_fresh", pool.fresh, labels=labels)
                reg.gauge("array_pool_retired", pool.retired, labels=labels)
                reg.gauge("array_pool_dropped", pool.dropped, labels=labels)
                reg.gauge("array_pool_held_bytes", pool.held_bytes,
                          labels=labels)
            for queue in node.work_queues:
                qlabels = {"node": str(node.node_id)}
                if hasattr(queue, "pushes"):          # WorkQueue
                    qlabels["queue"] = queue.name
                    reg.gauge("queue_pushes", queue.pushes, labels=qlabels)
                    reg.gauge("queue_pops", queue.pops, labels=qlabels)
                    reg.gauge("queue_steals_suffered",
                              queue.steals_suffered, labels=qlabels)
                elif hasattr(queue, "tasks"):         # LevelQueue
                    qlabels["level"] = str(queue.level)
                    reg.gauge("level_queue_tasks", len(queue.tasks),
                              labels=qlabels)
                    reg.gauge("level_queue_prefetch_planned",
                              queue.prefetch_planned, labels=qlabels)
                    for state, count in queue.state_counts().items():
                        reg.gauge("level_queue_state", count,
                                  labels=dict(qlabels, state=state))

    def makespan(self) -> float:
        """End-to-end virtual time of everything charged so far.
        Settles any deferred write-backs first: IOUs are owed time."""
        self.cache.flush_all()
        return self.timeline.makespan()

    def breakdown(self) -> Breakdown:
        """Fold the trace into the per-category breakdown (deferred
        write-backs are settled first)."""
        self.cache.flush_all()
        return profile_trace(self.timeline.trace)

    def reset_time(self) -> None:
        """Clear the timeline between measured phases (buffers keep their
        contents but dependency times restart at zero)."""
        self.timeline.reset()
        self.obs.reset()
        self.runtime_ops = 0
        self.cache.on_reset()
        for h in self.registry.live_handles():
            h.times.reset()

    def close(self) -> None:
        """Release every device backend (tree ownership); pending
        executor work settles first and a system-owned executor pool is
        shut down -- the pool and the backends also when that drain
        raises (a failed kernel ticket)."""
        try:
            self.drain_exec()
        finally:
            try:
                if self._own_executor:
                    self.executor.close()
            finally:
                self.tree.close()

    def __enter__(self) -> "System":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
