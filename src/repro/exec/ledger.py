"""The exec layer's front door and its op book: when physical bytes land.

Virtual time is charged synchronously, but with an asynchronous
executor the *physical* effect of a compute node -- its merged output
bytes -- lands later.  :class:`Dispatch` is the one place that decides
when a physical byte lands: the system's moves, kernel launches,
releases, host accesses and drains each make one call into it.  Its op
book, :class:`PendingLedger`, tracks every pending effect per **slab**
(one device allocation, keyed ``(node_id, alloc_id)``, which also
covers mapped-window aliases) and enforces the discipline that makes
final bytes identical to inline execution:

* a **kernel op** is a dispatched :class:`~repro.exec.base.KernelSpec`
  whose writable snapshots still await merging.  Its snapshotted read
  slabs are settled at submit time (writers drained, bytes copied), so
  only its write slabs stay pending -- and the root slabs it reads
  through file windows, which its worker reads later: a write or
  release of one orders behind the kernel;
* a **copy op** is a transfer the runtime deferred because it conflicts
  with pending work (e.g. ``move_up`` reading a kernel's output slab,
  or overwriting a slab a deferred copy still reads).  Deferring the
  copy -- instead of draining -- is what lets several chunk chains stay
  in flight across workers;
* a **fill op** is a copy op staging a packed root file window, which
  a pool kernel may read from the file instead, deferred although
  nothing conflicts.  A reader of its destination (snapshot, host read,
  move or cache hit out of it, settling write), a writer over its
  source (ordered behind it) or the end of the run runs it; a level
  drain leaves it.  While no pending op reads its destination slab it
  is dropped unrun -- no I/O -- when the slab is released (a cache
  block's at the end of the run), a new fill covers its range, or at
  close;
* a **deferred free** ("zombie") is a released handle whose slab still
  has pending ops: the logical release happened, the physical
  ``device.release`` fires when the slab's last pending op retires.

Ops retire in submission order along every dependency chain (deps are
always earlier ops), so per-slab writes replay exactly as the inline
path would have performed them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.exec.base import resolve_kernel
from repro.exec.pool import FileWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import System
    from repro.obs.metrics import MetricsRegistry

#: One device allocation: ``(tree node id, device alloc id)``.
Slab = tuple[int, int]


class _Op:
    """One pending effect; ``run`` performs it (a kernel op's merges)."""

    __slots__ = ("seq", "reads", "writes", "deps", "done", "run", "fill")

    def __init__(self, seq: int, reads: frozenset, writes: frozenset,
                 deps: list, run: Callable, fill=None) -> None:
        self.seq = seq
        self.reads = reads
        self.writes = writes
        self.deps = deps
        self.done = False
        self.run = run
        self.fill = fill   # a fill op's destination byte range ``(lo, hi)``


class _CopyOp(_Op):
    """A deferred transfer; a fill op when ``fill`` is set."""

    __slots__ = ()


@dataclass
class PendingLedger:
    """Per-slab pending physical operations and deferred frees."""

    _by_slab: dict = field(default_factory=dict)
    _frees: dict = field(default_factory=dict)
    _seq: int = 0
    # counters (metrics collector reads them)
    deferred_copies: int = 0
    fills_deferred: int = 0
    fills_dropped: int = 0
    kernels: int = 0
    merged: int = 0
    zombie_frees: int = 0

    @property
    def active(self) -> bool:
        return bool(self._by_slab) or bool(self._frees)

    def has_pending(self, slab: Slab) -> bool:
        return bool(self._by_slab.get(slab))

    # -- registration ------------------------------------------------------

    def _register(self, op: _Op) -> None:
        for slab in op.reads | op.writes:
            self._by_slab.setdefault(slab, []).append(op)

    def conflicting(self, *, reads=(), writes=()) -> list:
        """Pending ops a new operation must order behind: writers of
        anything it reads, and every pending op on anything it writes."""
        found = {}
        for slab in reads:
            for op in self._by_slab.get(slab, ()):
                if not op.done and slab in op.writes:
                    found[op.seq] = op
        for slab in writes:
            for op in self._by_slab.get(slab, ()):
                if not op.done:
                    found[op.seq] = op
        return [found[s] for s in sorted(found)]

    def add_kernel(self, run: Callable, *, reads, writes, deps) -> None:
        """``run`` waits for the kernel and merges its outputs."""
        self._seq += 1
        self.kernels += 1
        self._register(_Op(self._seq, frozenset(reads), frozenset(writes),
                           list(deps), run))

    def defer_copy(self, run: Callable, *, reads, writes, deps,
                   fill: tuple[int, int] | None = None) -> None:
        """``fill``, the destination byte range, makes a fill op."""
        self._seq += 1
        self.deferred_copies += fill is None
        self.fills_deferred += fill is not None
        self._register(_CopyOp(self._seq, frozenset(reads),
                               frozenset(writes), list(deps), run, fill))

    def drop_fills(self, slabs=None, within=(0, float("inf"))) -> None:
        """Retire unrun the fill ops into ``slabs`` (all when None)
        that lie inside the byte range ``within``, unless a pending op
        reads the slab: nothing could see what they would stage."""
        for slab in list(self._by_slab) if slabs is None else slabs:
            ops = self._by_slab.get(slab, ())
            if not any(slab in op.reads for op in ops):
                for op in [op for op in ops if op.fill and slab in op.writes
                           and within[0] <= op.fill[0]
                           and op.fill[1] <= within[1]]:
                    op.done = True
                    self.fills_dropped += 1
                    self._retire(op)

    def defer_free(self, slab: Slab, release: Callable) -> None:
        """Register a zombie: ``release`` fires when ``slab``'s last
        pending op retires."""
        assert self.has_pending(slab), "defer_free without pending ops"
        assert slab not in self._frees, "slab freed twice"
        self._frees[slab] = release

    # -- completion --------------------------------------------------------

    def complete(self, op: _Op) -> None:
        if op.done:
            return
        op.done = True
        for dep in op.deps:
            self.complete(dep)
        try:
            op.run()
        finally:
            self._retire(op)

    def _retire(self, op: _Op) -> None:
        for slab in op.reads | op.writes:
            ops = self._by_slab.get(slab)
            if ops is None:
                continue
            try:
                ops.remove(op)
            except ValueError:
                pass
            if not ops:
                del self._by_slab[slab]
                release = self._frees.pop(slab, None)
                if release is not None:
                    self.zombie_frees += 1
                    release()

    def settle(self, *, reads=(), writes=()) -> None:
        """Complete what :meth:`conflicting` names: a reader needs
        current bytes, a writer orders behind readers and writers."""
        for op in self.conflicting(reads=reads, writes=writes):
            self.complete(op)

    def drain_all(self, *, fills: bool = True) -> None:
        """Settle everything in submission order; ``fills=False`` leaves
        the fill ops to their first reader, their slab's release or a
        full drain."""
        while True:
            pending = {op.seq: op for ops in self._by_slab.values()
                       for op in ops
                       if not op.done and (fills or op.fill is None)}
            if not pending:
                break
            for seq in sorted(pending):
                self.complete(pending[seq])

def _note_fill(src, src_offset: int, src_stride: int, dst, dst_offset: int,
               dst_stride: int, rows: int, row_bytes: int) -> bool:
    """Provenance for pool dispatch, recorded right after a move's
    version bump: ``dst`` holds the window of ``src`` packed, for as
    long as neither slab's version (its write generation) moves.  A
    contiguous fill continuing the recorded one in both buffers
    extends it.  Returns whether the fill was packed."""
    if rows != 1 and dst_stride != row_bytes:
        return False
    at, base = src.base_offset + src_offset, dst.base_offset + dst_offset
    if rows == 1 or src_stride == row_bytes:   # contiguous: one row
        rows, row_bytes = 1, rows * row_bytes
        if dst.times.fill:
            src0, gen0, at0, _, base0, rows0, n0, ver0 = dst.times.fill
            if rows0 == 1 and src0.times is src.times and (
                    gen0, ver0, at0 + n0, base0 + n0) == (
                    src.version, dst.version - 1, at, base):
                at, base, row_bytes = at0, base0, n0 + row_bytes
    dst.times.fill = (src, src.version, at, src_stride, base, rows,
                      row_bytes, dst.version)
    return True


@dataclass
class WallStats:
    """Wall-clock accounting of *physical* byte movement, which
    :meth:`Dispatch.transfer` notes on ``system.wall``: the host's real
    work (array copies in memory, genuine file I/O on the file backend)
    beside the experiment's virtual clock."""

    physical_seconds: float = 0.0
    ops: int = 0
    bytes_moved: int = 0

    def note(self, seconds: float, nbytes: int) -> None:
        self.physical_seconds += seconds
        self.ops += 1
        self.bytes_moved += nbytes


class Dispatch:
    """The exec layer's front door, one per system: every decision about
    when a physical byte lands, over the op book :attr:`ledger`, and the
    ``exec_*`` metrics.  It reuses the system's host access; under the
    inline executor every call is a pass-through."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self.ledger = PendingLedger()
        system.metrics.register_collector(self._collect_metrics)

    # -- physical byte movement --------------------------------------------

    def transfer(self, src_node, src, src_offset: int, src_stride: int,
                 dst_node, dst, dst_offset: int, dst_stride: int, rows: int,
                 row_bytes: int, *, fill: bool = False) -> None:
        """Move one window -- ``rows`` runs of ``row_bytes``, a
        contiguous range being one row -- between two handles' backends
        as one vectored transfer, charging wall time.  Virtual time is
        the caller's business; this is Listing 4's physical half,
        dispatched on the endpoint backend pair by
        :meth:`~repro.memory.device.Device.copy_into_2d`.

        When the transfer conflicts with pending executor work (it
        reads a slab an async kernel will merge into, or touches a slab
        a deferred copy still needs), it is deferred behind those ops
        instead of draining them -- that deferral is what keeps several
        chunk chains in flight across workers.

        A ``fill`` (the one timed copy) records its provenance under a
        pool executor (:func:`_note_fill`); a packed one from a window
        another process can read in its file is always deferred, as a
        fill op that drops the earlier fills it covers."""
        args = (src_node, src, src_offset, src_stride, dst_node, dst,
                dst_offset, dst_stride, rows, row_bytes)
        span = None
        if fill and self.system.executor.asynchronous and _note_fill(
                src, src_offset, src_stride, dst, dst_offset, dst_stride,
                rows, row_bytes):
            at, lo = src.base_offset + src_offset, dst.base_offset + dst_offset
            end = at + (rows - 1) * src_stride + row_bytes
            if src_node.device.backend.path_of(src.alloc_id, at, end):
                span = (lo, lo + rows * row_bytes)
        led = self.ledger
        if led.active or span:
            sslab = (src_node.node_id, src.alloc_id)
            dslab = (dst_node.node_id, dst.alloc_id)
            if span:
                led.drop_fills((dslab,), within=span)
            deps = led.conflicting(reads=(sslab,), writes=(dslab,))
            if deps or span:
                led.defer_copy(lambda: self._transfer_now(*args),
                               reads=(sslab,), writes=(dslab,), deps=deps,
                               fill=span)
                return
        self._transfer_now(*args)

    def _transfer_now(self, src_node, src, src_offset: int, src_stride: int,
                      dst_node, dst, dst_offset: int, dst_stride: int,
                      rows: int, row_bytes: int) -> None:
        t0 = time.perf_counter()
        src_node.device.copy_into_2d(
            dst_node.device, src.alloc_id, src.base_offset + src_offset,
            src_stride, dst.alloc_id, dst.base_offset + dst_offset,
            dst_stride, rows=rows, row_bytes=row_bytes)
        self.system.wall.note(time.perf_counter() - t0, rows * row_bytes)

    def release_storage(self, node, handle) -> None:
        """Free the storage behind ``handle`` on ``node`` (a release or
        a cache eviction).  Fills into the slab that no pending op reads
        are dropped.  A slab with other pending executor work turns
        zombie: capacity is credited now (so free-space queries and
        later allocations see the logical release exactly as the inline
        path would), but the backing bytes survive until that work
        retires."""
        led = self.ledger
        if led.active:      # else nothing can be pending on the slab
            slab = (node.node_id, handle.alloc_id)
            led.drop_fills((slab,))
            if led.has_pending(slab):
                alloc_id = handle.alloc_id
                node.device.release_capacity(alloc_id)
                led.defer_free(slab,
                               lambda: node.device.destroy_storage(alloc_id))
                return
        node.device.release(handle.alloc_id)

    def host_access(self, handle, *, for_write: bool = False) -> None:
        """Order an untimed host access behind pending executor work on
        the handle's slab: reads need pending writers settled, writes
        need pending readers too."""
        if self.ledger.active:
            slab = ((handle.node_id, handle.alloc_id),)
            self.ledger.settle(reads=slab, writes=slab if for_write else ())

    # -- kernel dispatch ---------------------------------------------------

    def launch(self, spec) -> None:
        """Route a kernel spec to the compute backend.

        Inline backends execute in place over buffer views.
        Asynchronous backends describe what read bindings they can as
        root file windows (:meth:`_describe`), snapshot every other
        binding's current bytes after settling its pending writers
        (outputs included: an ``inout`` accumulator needs its prior
        contents, and untouched window bytes must merge back unchanged;
        a described binding's lazy fill stays pending), submit, and
        register the pending merge with the ledger keyed on the output
        slabs."""
        ex = self.system.executor
        led = self.ledger
        if ex.telemetry is not None:
            # Bind the ambient virtual span: merged physical traces
            # join kernel records back to it (0 = no active span).
            ex.telemetry.current_span = self.system.obs.current.span_id
        if not ex.asynchronous:  # nothing is ever pending then
            self._run_inline(spec, ex)
            return
        t0 = time.perf_counter()
        waited = ex.stats.budget_wait_seconds
        slabs = [(b.handle.node_id, b.handle.alloc_id)
                 for b in spec.bindings]
        windows = [None if b.writable else self._describe(b)
                   for b in spec.bindings]
        if led.active:
            # A snapshot must capture the bytes the inline path would
            # have seen: settle pending writers of its binding first.
            led.settle(reads=[s for s, w in zip(slabs, windows)
                              if w is None])
        arrays = []
        merges = []
        write_slabs = set()
        root_reads = set()
        for b, slab, described in zip(spec.bindings, slabs, windows):
            if described is not None:
                # The worker reads the root window itself: nothing is
                # snapshotted or shipped, and the root slab stays a
                # pending read of this kernel until it retires.
                window, root = described
                arrays.append((b.name, window, False))
                root_reads.add(root)
                ex.stats.described += 1
                continue
            arr = self._snapshot(b, ex)
            arrays.append((b.name, arr, b.writable))
            if b.writable:
                # The version bumps *now*, where the inline path's
                # writable view would have bumped it: any cached copy
                # is stale from this virtual instant, and host reads
                # between submit and merge settle through the ledger.
                b.handle.bump_version()
                write_slabs.add(slab)
                # Registry-free: the handle may be a zombie by merge time.
                merges.append((b.name, self.system.node_of(b.handle).device,
                               b.handle.alloc_id,
                               b.handle.base_offset + b.offset, arr.nbytes))
        # Remaining pending ops on the output slabs (deferred copies
        # that still read or write them) must retire before this
        # kernel's merge lands.
        deps = led.conflicting(writes=write_slabs)
        ticket = ex.submit(spec.fn_ref, arrays, spec.kwargs,
                           label=spec.label)
        led.add_kernel(lambda: self._merge(ex, ticket, merges),
                       reads=root_reads, writes=write_slabs, deps=deps)
        ex.stats.dispatch_seconds += time.perf_counter() - t0 - (
            ex.stats.budget_wait_seconds - waited)

    def _merge(self, ex, ticket: int, merges: list) -> None:
        """A kernel op's effect: wait for the pool kernel, then write
        each output back where its writable snapshot came from."""
        result = ex.wait(ticket)
        t0 = time.perf_counter()
        try:
            for name, dev, alloc_id, offset, nbytes in merges:
                view = dev.try_view(alloc_id, offset, nbytes)
                flat = np.ascontiguousarray(
                    result.outputs[name]).view(np.uint8).reshape(-1)
                if view is not None:
                    np.copyto(view, flat)
                else:
                    dev.write(alloc_id, offset, flat)
        finally:
            ex.release(ticket)
            ex.stats.merge_seconds += time.perf_counter() - t0
        self.ledger.merged += 1

    def _describe(self, b) -> tuple[FileWindow, Slab] | None:
        """A read binding as the root file window its bytes are an
        unmodified copy of, and that file's slab; ``None`` when no such
        window is on record (the bytes are snapshotted then)."""
        h = b.handle
        fill = h.times.fill
        if fill is None:
            return None
        src, src_gen, at, stride, base, rows, row_bytes, gen = fill
        n = b.nbytes
        rel = h.base_offset + b.offset - base
        if h.version != gen or src.version != src_gen or src.released \
                or n <= 0 or rel < 0 or rel + n > rows * row_bytes:
            return None
        if rows == 1:
            window = (at + rel, 1, n, n)
        elif rel % row_bytes or n % row_bytes:
            return None
        else:
            window = (at + rel // row_bytes * stride, n // row_bytes,
                      row_bytes, stride)
        lo, rows, row_bytes, stride = window
        root = (src.node_id, src.alloc_id)
        # Root writes the fill follows land before path_of writes out a
        # dirty band over the window and the worker reads the file.
        self.ledger.settle(reads=(root,))
        path = self.system.node_of(src).device.backend.path_of(
            src.alloc_id, lo, lo + (rows - 1) * stride + row_bytes)
        if path is None:
            return None
        shape = b.shape or (n // np.dtype(b.dtype).itemsize,)
        return FileWindow(path, *window, b.dtype, shape), root

    def _snapshot(self, b, ex) -> np.ndarray:
        """An owned, writable copy of a binding's current bytes, built
        in a staging buffer of the executor."""
        now, _ = self.system.host_array(b.handle, b.dtype, b.shape, b.offset,
                                        b.count)
        arr = ex.stage(now.nbytes).view(now.dtype).reshape(now.shape)
        np.copyto(arr, now)
        return arr

    def _run_inline(self, spec, ex) -> None:
        """In-place execution over views of the launch's checked bindings
        (a fetch/preload round trip on view-less backends)."""
        system = self.system
        t0 = time.perf_counter()
        args = {}
        copies_back = []
        for b in spec.bindings:
            arr = system._view(b.handle, b.dtype, b.shape, b.offset, b.count,
                               b.writable)
            if arr is None:
                arr = system.fetch(b.handle, b.dtype, b.shape, b.offset,
                                   b.count)
                if b.writable:
                    copies_back.append((b, arr))
            args[b.name] = arr
        fn = resolve_kernel(spec.fn_ref)
        ex.stats.submitted += 1
        ex.stats.dispatch_seconds += time.perf_counter() - t0
        k0 = time.perf_counter_ns()
        fn(**args, **spec.kwargs)
        k1 = time.perf_counter_ns()
        ex.stats.note_done("main", (k1 - k0) / 1e9)
        if ex.telemetry is not None:
            ex.telemetry.note_inline(
                "main", "kernel", k0, k1,
                nbytes=sum(a.nbytes for a in args.values()))
        for b, arr in copies_back:
            system.preload(b.handle, arr, b.offset)

    # -- drains ------------------------------------------------------------

    def drain(self) -> None:
        """Settle every pending kernel and copy: deferred copies run,
        kernel results merge (submission order), zombie slabs free.
        Fills stay pending: nothing has read them yet."""
        self.ledger.drain_all(fills=False)

    def end_run(self) -> None:
        """The end of a run: kernels and copies settle, the cache drops
        its leases and unpinned blocks -- whose releases drop the fills
        into them unread -- and then the fills left run."""
        self.drain()
        self.system.cache.end_run()
        self.ledger.drain_all()

    def close(self) -> None:
        """Drop the fills nothing reads, then settle the rest."""
        self.ledger.drop_fills()
        self.ledger.drain_all()

    # -- reporting ---------------------------------------------------------

    def _collect_metrics(self, reg: "MetricsRegistry") -> None:
        """The executor's counters and the op book's, as ``exec_*``
        gauges labelled with the backend."""
        ex = self.system.executor
        xlabels = {"backend": ex.name}
        reg.gauge("exec_workers", ex.workers, labels=xlabels)
        reg.gauge("exec_tasks_submitted", ex.stats.submitted, labels=xlabels)
        reg.gauge("exec_tasks_completed", ex.stats.completed, labels=xlabels)
        reg.gauge("exec_dispatch_seconds", ex.stats.dispatch_seconds,
                  labels=xlabels,
                  help_text="submit-side snapshot/packing/queueing wall time")
        reg.gauge("exec_budget_waits", ex.stats.budget_waits,
                  labels=xlabels,
                  help_text="stagings that waited for in-flight budget")
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
        for name, help_text in (
                ("deferred_copies", "transfers deferred behind pending "
                                    "async work"),
                ("fills_deferred", "lazy staging fills registered"),
                ("fills_dropped", "lazy staging fills dropped unread"),
                ("zombie_frees", "releases whose physical free was "
                                 "deferred")):
            reg.gauge(f"exec_{name}", getattr(self.ledger, name),
                      labels=xlabels, help_text=help_text)
