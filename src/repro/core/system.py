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

from contextlib import ExitStack
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
    make_executor
from repro.exec.ledger import Dispatch, WallStats
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


def _check_window(src: BufferHandle, src_offset: int, src_stride: int,
                  dst: BufferHandle, dst_offset: int, dst_stride: int,
                  rows: int, row_bytes: int) -> None:
    """Bounds of one transfer window (``rows`` runs of ``row_bytes``; a
    contiguous range is one row), shared by every move entry point and
    checked for empty windows too.  A mapped window's handle addresses
    its parent's storage, so an offset below zero would reach the
    parent's bytes outside it."""
    if rows < 0 or row_bytes < 0:
        raise TransferError(
            f"negative transfer size (rows={rows}, row_bytes={row_bytes})")
    if rows > 1 and (src_stride < row_bytes or dst_stride < row_bytes):
        raise TransferError(
            f"strides ({src_stride}, {dst_stride}) smaller than the row "
            f"payload {row_bytes}: rows would overlap")
    src_end = src_offset + ((rows - 1) * src_stride + row_bytes if rows else 0)
    if src_offset < 0 or src_end > src.nbytes:
        raise TransferError(
            f"read [{src_offset}, {src_end}) out of bounds for {src!r}")
    dst_end = dst_offset + ((rows - 1) * dst_stride + row_bytes if rows else 0)
    if dst_offset < 0 or dst_end > dst.nbytes:
        raise TransferError(
            f"write [{dst_offset}, {dst_end}) out of bounds for {dst!r}")


def _check_bindings(spec: KernelSpec, reads: tuple[BufferHandle, ...],
                    writes: tuple[BufferHandle, ...]) -> None:
    """Raise unless every binding of ``spec`` names a buffer the launch
    declares, so that the node check and the hazard bookkeeping cover
    everything the kernel touches."""
    for b in spec.bindings:
        declared = writes if b.writable else (*reads, *writes)
        if not any(b.handle is h for h in declared):
            raise TransferError(
                f"kernel {spec.fn_ref!r} binds {b.name!r} to buffer "
                f"#{b.handle.buffer_id}, which the launch does not declare "
                f"in {'writes' if b.writable else 'reads or writes'}")


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
        instance, a backend name (``"inline"``, ``"shm"``,
        ``"dist"``), or ``None`` for the default in-process
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
        #: The serving context (``quotas``, ``tenant``, ``scope``; see
        #: :class:`repro.serve.quota.Tenancy`), ``None`` outside serving:
        #: duck-typed, so the core never imports :mod:`repro.serve`.
        self.tenancy = None
        #: Causal span tracker (:mod:`repro.obs.spans`).  Spans are pure
        #: metadata over the trace -- virtual results are bit-identical
        #: with observability on or off.  ``observe=False`` installs the
        #: shared null observer: zero span allocations, same code path.
        self.obs = Observer(self.timeline.trace) if observe \
            else NULL_OBSERVER
        #: Unified metrics registry: each layer's pull-collector reads its
        #: own counters at snapshot time (the tree's: backends, plans).
        self.metrics = MetricsRegistry()
        self.metrics.register_collector(self._collect_metrics)
        self.metrics.register_collector(tree.collect_metrics)
        #: The exec layer's front door (:mod:`repro.exec.ledger`): when
        #: each physical byte lands.
        self.dispatch = Dispatch(self)
        self._own_executor = not isinstance(executor, Executor)
        if self._own_executor:
            # Telemetry must be decided before the backend forks its
            # worker pool (the worker side buffers only when told at
            # spawn), so it rides into the factory.
            executor = make_executor(executor or "inline",
                                     telemetry=telemetry)
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
        quotas = None if self.tenancy is None else self.tenancy.quotas
        if quotas is not None:
            quotas.check(self.tenancy.tenant, nbytes)
        try:
            alloc_id = n.device.allocate(nbytes)
        except CapacityError:
            # Zombie slabs credited their capacity at release, so evict
            # cached blocks.  When that cannot make room but the bytes
            # exist while live buffers checkerboard the arena, compact
            # it as a last resort: handles address storage by
            # allocation id, so relocation is pure offset bookkeeping
            # and no data moves.
            if not self.cache.reclaim(n, nbytes):
                if not n.device.allocator.would_fit_compacted(nbytes):
                    raise
                self.charge_runtime(n.device.compact())
            alloc_id = n.device.allocate(nbytes)
        handle = self.registry.register(node_id=n.node_id, nbytes=nbytes,
                                        alloc_id=alloc_id, label=label)
        if quotas is not None:
            quotas.on_alloc(self.tenancy.tenant, handle)
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
        if self.tenancy is not None and self.tenancy.quotas is not None:
            self.tenancy.quotas.on_release(handle)
        node = self.node_of(handle)
        self.registry.unregister(handle)
        if not handle.is_mapped:
            self.dispatch.release_storage(node, handle)
        self.charge_runtime(1)

    def move(self, dst: BufferHandle, src: BufferHandle, nbytes: int, *,
             dst_offset: int = 0, src_offset: int = 0,
             label: str = "", cache: bool = True) -> MoveResult:
        """``move_data(dst, src, size, offset, dst_node, src_node)``: the
        one-row window of :meth:`move_2d`.

        Endpoints may be anywhere in the tree; a transfer between
        non-adjacent nodes walks the tree edge by edge (the runtime "may
        walk up and down the tree"), charging each hop.  Bytes are moved
        between backends once.

        With the cache in "full" mode, an ancestor->descendant move
        consults the destination node's buffer cache: a hit replaces the
        transfer with a bookkeeping charge, a miss performs the transfer
        and admits the region.  ``cache=False`` opts a single move out.
        """
        return self._move_window(dst, src, src_offset, nbytes, dst_offset,
                                 nbytes, 1, nbytes, label, cache)

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
        return self._move_window(dst, src, src_offset, src_stride,
                                 dst_offset, dst_stride, rows, row_bytes,
                                 label, cache)

    def _move_window(self, dst: BufferHandle, src: BufferHandle,
                     src_offset: int, src_stride: int, dst_offset: int,
                     dst_stride: int, rows: int, row_bytes: int,
                     label: str, cache: bool) -> MoveResult:
        """The one timed transfer behind :meth:`move` and
        :meth:`move_2d`: checks, cache consult, virtual charge, bytes,
        admission."""
        self.registry.check_live(src)
        self.registry.check_live(dst)
        if rows == 1:
            src_stride = dst_stride = row_bytes
        _check_window(src, src_offset, src_stride, dst, dst_offset,
                      dst_stride, rows, row_bytes)
        nbytes = rows * row_bytes
        src_node, dst_node = self.node_of(src), self.node_of(dst)

        spec = miss = None
        if cache and nbytes >= 1 and self.cache.transparent:
            spec = FetchSpec(src, src_offset, rows, row_bytes, src_stride)
            hit, miss = self.cache.consult(src_node, dst_node, dst, spec,
                                           dst_offset, dst_stride, label)
            if hit is not None:
                return MoveResult(start=hit.start, end=hit.end,
                                  nbytes=nbytes, hops=0)

        start, end, hops = self._copy(
            src_node, src, src_offset, src_stride, dst_node, dst, dst_offset,
            dst_stride, rows, row_bytes,
            max(src.ready_at, dst.last_read_end), label)
        self.charge_runtime(2)
        if miss is not None:
            self.cache.admit(miss, spec, dst, dst_offset, dst_stride, end)
        return MoveResult(start=start, end=end, nbytes=nbytes, hops=hops)

    def _copy(self, src_node: TreeNode, src: BufferHandle, src_offset: int,
              src_stride: int, dst_node: TreeNode, dst: BufferHandle,
              dst_offset: int, dst_stride: int, rows: int, row_bytes: int,
              ready: float, label: str) -> tuple[float, float, int]:
        """The one timed copy (Listing 4's ``move_data``) behind every
        move and cache fill: charge the path from ``ready``, stamp both
        handles, then hand the bytes to the exec layer's front door
        (:meth:`~repro.exec.ledger.Dispatch.transfer`).  Returns
        ``(start, end, hops)``."""
        start, end, hops = self._charge_move(src_node, dst_node,
                                             rows * row_bytes, ready, label)
        src.note_read(end)
        dst.note_write(end)
        self.dispatch.transfer(src_node, src, src_offset, src_stride,
                               dst_node, dst, dst_offset, dst_stride, rows,
                               row_bytes, fill=True)
        return start, end, hops

    def _charge_move(self, src_node: TreeNode, dst_node: TreeNode,
                     nbytes: int, ready: float,
                     label: str) -> tuple[float, float, int]:
        """Charge one transfer's virtual path -- a local copy on one
        device, or each tree edge between the nodes in turn -- and
        return ``(start, end, hops)``."""
        if src_node is dst_node:
            done = self._charge_local(src_node, nbytes, nbytes, ready, label)
            return done.start, done.end, 1
        start, end, hops = None, ready, 0
        for edge_src, edge_dst in self._edge_path(src_node, dst_node):
            resources, phase, latency, bw = self._edge_plan(edge_src, edge_dst)
            done = self.timeline.charge_path(resources, latency + nbytes / bw,
                                             phase, ready=end, label=label,
                                             nbytes=nbytes)
            if start is None:
                start = done.start
            end = done.end
            hops += 1
        assert start is not None
        return start, end, hops

    def _charge_local(self, node: TreeNode, work: float, nbytes: int,
                      ready: float, label: str) -> Completion:
        """Charge a pass over ``work`` bytes on one device's read and
        write side: a local copy, or a layout rewrite in place."""
        dev = node.device
        duration = dev.spec.latency + work / min(dev.spec.read_bw,
                                                 dev.spec.write_bw)
        return self.timeline.charge_path(
            [dev.read_resource] if dev.read_resource == dev.write_resource
            else [dev.read_resource, dev.write_resource],
            duration, Phase.MEM_COPY, ready=ready, label=label,
            nbytes=nbytes)

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
        # Untimed host access orders the rewrite behind a deferred move;
        # preload bumps the version (no longer the moved window's bytes).
        payload = self.fetch(dst, np.uint8, offset=dst_offset, count=nbytes)
        self.preload(dst, transform.apply(payload), dst_offset)
        if transform.cost_factor > 0:
            done = self._charge_local(
                self.node_of(dst), transform.cost_factor * nbytes, nbytes,
                result.end, f"layout:{type(transform).__name__}")
            dst.note_write(done.end)
            return MoveResult(start=result.start, end=done.end,
                              nbytes=nbytes, hops=result.hops)
        return result

    def move_down(self, dst: BufferHandle, src: BufferHandle, nbytes: int, *,
                  dst_offset: int = 0, src_offset: int = 0,
                  label: str = "", cache: bool = True) -> MoveResult:
        """``move_data_down``: parent -> child, asserting the direction."""
        self._assert_adjacent(self.node_of(src), self.node_of(dst),
                              "move_down")
        return self.move(dst, src, nbytes, dst_offset=dst_offset,
                         src_offset=src_offset, label=label, cache=cache)

    def move_down_batch(self, moves: Sequence[BatchMove]) -> list[MoveResult]:
        """``move_data_down`` for a pre-planned chunk sweep: a loop of
        :meth:`move_down`, one call per element, in order."""
        return [self.move_down(m.dst, m.src, m.nbytes,
                               dst_offset=m.dst_offset,
                               src_offset=m.src_offset, label=m.label)
                for m in moves]

    def move_up(self, dst: BufferHandle, src: BufferHandle, nbytes: int, *,
                dst_offset: int = 0, src_offset: int = 0,
                label: str = "") -> MoveResult:
        """``move_data_up``: child -> parent, asserting the direction.
        The transfer is charged at once (write-through)."""
        self._assert_adjacent(self.node_of(dst), self.node_of(src),
                              "move_up")
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

        Pass ``nbytes`` (+ ``src_offset``) for a contiguous range, the
        one-row window, or ``rows``/``row_bytes``/``src_stride`` (+
        ``src_offset``) for a 2-D window; either lands packed row-major
        in the returned buffer.  With the cache off this degenerates to
        allocate + move, released by ``fetch_release``.
        """
        n = self._node(node)
        self.registry.check_live(src)
        src_node = self.node_of(src)
        self._assert_adjacent(src_node, n, "fetch_down")
        window = (rows, row_bytes, src_stride)
        if nbytes is not None and window == (None, None, None):
            window = (1, nbytes, nbytes)
        elif nbytes is not None or None in window:
            raise TransferError(
                "fetch_down needs either nbytes or all of rows, row_bytes "
                "and src_stride")
        return self.cache.lease(n, FetchSpec(src, src_offset, *window),
                                label)

    def will_need(self, hints) -> None:
        """Physical read-ahead advice for a level's upcoming fetches.

        ``hints`` are a level's ``(child_node, FetchSpec)`` pairs, in
        program order: its ``read`` and ``cached`` windows, as
        :meth:`NorthupProgram.prefetch_hints` passes them on; each
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
            by_node.setdefault(src.node_id, []).append(
                (src.alloc_id, src.base_offset + spec.offset, spec.rows,
                 spec.row_bytes, spec.stride))
        for node_id, windows in by_node.items():
            self.tree.node(node_id).device.advise(windows)

    def fetch_release(self, handle: BufferHandle) -> None:
        """End a :meth:`fetch_down` lease.  The block stays cached for
        future hits (it is merely unpinned); an uncached staging buffer
        is released."""
        self.cache.release_lease(handle)
        self.charge_runtime(1)

    def _assert_adjacent(self, parent: TreeNode, child: TreeNode,
                         call: str) -> None:
        if child.parent is not parent:
            raise TransferError(
                f"{call}: nodes {parent.node_id} and {child.node_id} "
                f"are not a parent/child pair")

    def _edge_path(self, src: TreeNode,
                   dst: TreeNode) -> list[tuple[TreeNode, TreeNode]]:
        """Consecutive (from, to) node pairs along the tree path: up to
        the lowest common ancestor, then down."""
        up, down = src.path_to_root(), dst.path_to_root()
        while up and down and up[-1] is down[-1]:
            up.pop()
            down.pop()
        return ([(n, n.parent) for n in up]
                + [(n.parent, n) for n in reversed(down)])

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

    # -- compute -----------------------------------------------------------

    def launch(self, proc: Processor, cost: KernelCost, *,
               reads: tuple[BufferHandle, ...] = (),
               writes: tuple[BufferHandle, ...] = (),
               kernel: KernelSpec | None = None,
               label: str = "") -> Completion:
        """Launch a kernel on a processor (Section III-E).

        A launch is cost-only, or its real computation is ``kernel``, a
        picklable :class:`~repro.exec.base.KernelSpec` dispatched
        through the system's compute backend (:mod:`repro.exec`):
        inline backends run it in place over buffer views, asynchronous
        ones snapshot the bindings and merge results later in
        submission order.  Every binding must name a declared buffer: a
        read binding one of ``reads`` or ``writes``, a writable one one
        of ``writes``.  Duration always comes from the processor's
        roofline on ``cost``, charged here on the simulator thread --
        virtual time is backend-independent.  The launch waits for its
        input buffers to be ready and for its output buffers to be safe
        to overwrite.
        """
        node = self.processor_node(proc)
        for h in (*reads, *writes):
            self.registry.check_live(h)
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
            _check_bindings(kernel, reads, writes)
            self.dispatch.launch(kernel)
        done = self.timeline.charge(proc.resource, proc.exec_time(cost),
                                    proc.phase, ready=ready,
                                    label=label or proc.name)
        for h in reads:
            h.note_read(done.end)
        for h in writes:
            h.note_write(done.end)
        self.charge_runtime(1)
        return done

    def drain_exec(self) -> None:
        """Settle pending executor kernels and copies: deferred copies
        run, kernel results merge (submission order), zombie slabs
        free.  Lazy fills nothing has read yet stay pending."""
        self.dispatch.drain()

    def end_run(self) -> None:
        """End-of-run teardown: pending executor work settles, then the
        cache drops its leases and unpinned blocks, dropping the unread
        fills into them (:meth:`~repro.exec.ledger.Dispatch.end_run`).
        Programs call this (via :meth:`NorthupProgram.run`'s finally);
        the serve layer calls it per job, its ``tenancy`` scope set.
        Then every backend writes out what it held back, so each file
        is current.  Read-ahead advice (:meth:`will_need`) not yet used
        is cancelled, also when the run failed."""
        try:
            self.dispatch.end_run()
            for node in self.tree.nodes():
                node.device.backend.flush()
        finally:
            for node in self.tree.nodes():
                node.device.advise(())

    # -- untimed host access -------------------------------------------------

    def preload(self, handle: BufferHandle, arr: np.ndarray,
                offset: int = 0) -> None:
        """Write workload data into a buffer without charging time
        (input preprocessing is excluded from measurement, Section V-B)."""
        self.registry.check_live(handle)
        self.dispatch.host_access(handle, for_write=True)
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
        self.dispatch.host_access(handle)
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
        if count % itemsize:
            raise TransferError(
                f"access of {count} bytes is not a whole number of "
                f"{np.dtype(dtype).name} elements in {handle!r}")
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
        self.dispatch.host_access(handle, for_write=writable)
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
        """Pull-collector of the system's own counters: bookkeeping ops,
        wall stats and the trace's aggregates.  Every other layer
        registers its own."""
        reg.gauge("runtime_ops", self.runtime_ops,
                  help_text="framework bookkeeping operations charged")
        reg.gauge("wall_physical_seconds", self.wall.physical_seconds,
                  help_text="wall-clock seconds spent moving bytes")
        reg.gauge("wall_bytes_moved", self.wall.bytes_moved)
        reg.gauge("wall_ops", self.wall.ops)
        trace = self.timeline.trace
        reg.gauge("trace_intervals", len(trace))
        reg.gauge("virtual_makespan_seconds", self.timeline.makespan())
        for phase, secs in trace.by_phase().items():
            reg.gauge("virtual_busy_seconds", secs,
                      labels={"phase": phase.value})
        for phase, nbytes in trace.bytes_by_phase().items():
            reg.gauge("virtual_bytes_moved", nbytes,
                      labels={"phase": phase.value})

    def makespan(self) -> float:
        """End-to-end virtual time of everything charged so far."""
        return self.timeline.makespan()

    def breakdown(self) -> Breakdown:
        """Fold the trace into the per-category breakdown."""
        return profile_trace(self.timeline.trace)

    def reset_time(self) -> None:
        """Clear the timeline between measured phases (buffers keep their
        contents but dependency times restart at zero)."""
        self.timeline.reset()
        self.obs.reset()
        self.runtime_ops = 0
        for h in self.registry.live_handles():
            h.times.reset()

    def close(self) -> None:
        """Release every device backend (tree ownership); pending
        executor work settles first (unread fills are dropped) and a
        system-owned executor pool is shut down -- the pool and the
        backends also when that drain raises (a failed kernel ticket).
        The metrics keep a last reading; then nothing the system owns
        refers back to it, so reference counting frees it."""
        with ExitStack() as steps:  # run last to first, each one always
            steps.callback(self._let_go)
            steps.callback(self.metrics.close)
            steps.callback(self.tree.close)
            if self._own_executor:
                steps.callback(self.executor.close)
            self.dispatch.close()

    def _let_go(self) -> None:
        """Drop what points back at this system (a plan: its contexts)."""
        self.dispatch.system = self.cache.system = None
        for node in self.tree.nodes():
            node.plan = None

    def __enter__(self) -> "System":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
