"""Pending-operation ledger: ordering physical bytes around async kernels.

Virtual time is charged synchronously, but with an asynchronous
executor the *physical* effect of a compute node -- its merged output
bytes -- lands later.  The ledger tracks every such pending effect per
**slab** (one device allocation, keyed ``(node_id, alloc_id)``, which
also covers mapped-window aliases) and enforces the discipline that
makes final bytes identical to inline execution:

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
  source (ordered behind it) or a drain runs it.  While no pending op
  reads its destination slab it is dropped unrun -- no I/O -- when the
  slab is released, a new fill covers its range, or at close;
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
from typing import Callable

import numpy as np

#: One device allocation: ``(tree node id, device alloc id)``.
Slab = tuple[int, int]


@dataclass
class MergeTarget:
    """Where one writable snapshot merges back (registry-free: the
    handle may already be a zombie by merge time)."""

    name: str
    node: object          # TreeNode
    alloc_id: int
    offset: int           # absolute (handle.base_offset folded in)
    nbytes: int

    def write(self, arr: np.ndarray) -> None:
        dev = self.node.device
        view = dev.try_view(self.alloc_id, self.offset, self.nbytes)
        flat = np.ascontiguousarray(arr).view(np.uint8).reshape(-1)
        if view is not None:
            np.copyto(view, flat)
        else:
            dev.write(self.alloc_id, self.offset, flat)


class _Op:
    __slots__ = ("seq", "reads", "writes", "deps", "done")
    fill = None   # a fill op's destination byte range ``(lo, hi)``

    def __init__(self, seq: int, reads: frozenset, writes: frozenset,
                 deps: list) -> None:
        self.seq = seq
        self.reads = reads
        self.writes = writes
        self.deps = deps
        self.done = False


class _KernelOp(_Op):
    __slots__ = ("executor", "ticket", "merges")

    def __init__(self, seq, reads, writes, deps, *, executor, ticket,
                 merges) -> None:
        super().__init__(seq, reads, writes, deps)
        self.executor = executor
        self.ticket = ticket
        self.merges = merges

    def execute(self, ledger: "PendingLedger") -> None:
        ex = self.executor
        result = ex.wait(self.ticket)
        t0 = time.perf_counter()
        try:
            for target in self.merges:
                target.write(result.outputs[target.name])
        finally:
            ex.release(self.ticket)
            ex.stats.merge_seconds += time.perf_counter() - t0
        ledger.merged += 1


class _CopyOp(_Op):
    __slots__ = ("run", "fill")

    def __init__(self, seq, reads, writes, deps, run: Callable,
                 fill=None) -> None:
        super().__init__(seq, reads, writes, deps)
        self.run = run
        self.fill = fill

    def execute(self, ledger: "PendingLedger") -> None:
        self.run()


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

    def add_kernel(self, *, executor, ticket, writes, merges, deps,
                   reads=()) -> None:
        self._seq += 1
        self.kernels += 1
        self._register(_KernelOp(
            self._seq, frozenset(reads), frozenset(writes), list(deps),
            executor=executor, ticket=ticket, merges=merges))

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
            op.execute(self)
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

    def drain_all(self) -> None:
        """Settle everything, in submission order."""
        while self._by_slab:
            pending = {}
            for ops in self._by_slab.values():
                for op in ops:
                    if not op.done:
                        pending[op.seq] = op
            if not pending:  # only retired stragglers left
                break
            for seq in sorted(pending):
                self.complete(pending[seq])
