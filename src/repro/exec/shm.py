"""Shared-memory process-pool executor.

A persistent ``multiprocessing`` pool (fork start method where the
platform offers it) runs independent compute nodes concurrently.
Operands travel through ``multiprocessing.shared_memory`` segments: the
System snapshots each binding straight into a pooled segment it gets
from :meth:`SharedMemExecutor.stage` (one copy), the worker maps the
segment zero-copy, and writable segments are read straight back at
merge (one copy) -- the zero-copy data plane's handoff discipline
applied across the process boundary.

Segment ownership
-----------------
A segment belongs to whoever holds it, in this order: the pool's free
list; the caller of ``stage`` until ``submit`` (which recognises the
staged buffer and adopts its segment without copying); the ticket until
its kernel acks.  On the ack the ticket's *read-only* segments return
to the free list at once -- no one will read them again -- while
writable ones stay with the ticket until ``release`` after the merge.
Operands that did not come from ``stage`` are copied into a segment at
``submit`` and follow the same path from there.

Live segment bytes are bounded by the pools' one in-flight budget,
:data:`~repro.exec.pool.SEGMENT_BUDGET_BYTES`: past it, taking a
segment waits for acks to recycle one instead of creating more.  It
creates past the budget only when no ack can free anything
(the bytes are held by staged-not-yet-submitted buffers, by the ticket
``submit`` is still building, or by writable outputs awaiting their
merge), which is what keeps it deadlock-free; such segments are
unlinked, not pooled, when they come back (and workers let go of
unlinked segments, :mod:`repro.exec.worker`).

Completion
----------
Each worker reports on a pipe of its own: a *claim* before it runs the
kernel -- which assigns the ticket to that worker in the pool core's
book (:mod:`repro.exec.pool`) -- and the reply after, read whenever the
caller touches the executor.  Replies may arrive in any order; the
:class:`~repro.exec.ledger.PendingLedger` merges in submission order.
On top of the core's ``join_timeout``, tickets no live worker claimed
are given up after :data:`LOST_TICKET_TICKS` silent seconds.  At
``close()`` every segment -- pooled, in flight or staged and never
submitted -- is closed *and unlinked*; the :mod:`repro.lifecycle`
``atexit`` guard closes any executor still live at interpreter exit.
"""

from __future__ import annotations

import os
import selectors
import time
from multiprocessing import resource_tracker
from typing import NamedTuple
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.exec import pool as core
from repro.exec.base import ExecError
from repro.exec.pool import CompletionAck, WorkerPool, pool_context, \
    pool_residue
from repro.exec.worker import worker_main

#: Prefix of every segment this process creates; the residue test and
#: the atexit reaper match on it.
SHM_PREFIX = f"repro_exec_{os.getpid()}_"

#: A blocked ``wait``/``stage`` gives up on un-acked tickets after this
#: many consecutive silent seconds with no ticket claimed: an idle
#: worker takes a queued task at once, so the tickets were taken by a
#: worker that died before it could claim them.
LOST_TICKET_TICKS = 10


class _Operand(NamedTuple):
    """One kernel argument of a ticket and the segment it sits in."""

    name: str
    seg: SharedMemory
    shape: tuple
    dtype: str
    writable: bool


class _SegmentPool:
    """Exact-size free lists of shared-memory segments under a byte
    budget."""

    def __init__(self) -> None:
        self._free: dict[int, list[SharedMemory]] = {}
        self._all: dict[str, SharedMemory] = {}
        self._seq = 0
        self.created = 0
        self.reused = 0
        #: Segments unlinked so far; workers watch it (see ``submit``).
        self.unlinked = 0
        #: Bytes of every segment that exists, lent out or free.
        self.live_bytes = 0
        self.peak_bytes = 0
        self.free_bytes = 0
        #: Segments on the free lists, kept as a count so another
        #: thread can read it without walking ``_free``.
        self.free_count = 0

    def fits(self, nbytes: int) -> bool:
        """Can :meth:`take` serve ``nbytes`` inside the budget?"""
        size = max(1, nbytes)
        return bool(self._free.get(size)) or \
            self.live_bytes - self.free_bytes + size \
            <= core.SEGMENT_BUDGET_BYTES

    def take(self, nbytes: int) -> SharedMemory:
        """A segment of ``nbytes``: a free one of that size, else a new
        one once free segments of other sizes made room for it -- past
        the budget when they cannot."""
        size = max(1, nbytes)
        bucket = self._free.get(size)
        if bucket:
            self.reused += 1
            self.free_bytes -= size
            self.free_count -= 1
            return bucket.pop()
        while self.free_bytes and \
                self.live_bytes + size > core.SEGMENT_BUDGET_BYTES:
            victim = next(b for b in self._free.values() if b).pop()
            self.free_bytes -= victim.size
            self.free_count -= 1
            self._unlink(victim)
        self._seq += 1
        self.created += 1
        seg = SharedMemory(create=True, size=size,
                           name=f"{SHM_PREFIX}{self._seq}")
        self._all[seg.name] = seg
        self.live_bytes += seg.size
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        return seg

    def give(self, seg: SharedMemory) -> None:
        if self.live_bytes > core.SEGMENT_BUDGET_BYTES:
            self._unlink(seg)                 # created past the budget
        else:
            self._free.setdefault(seg.size, []).append(seg)
            self.free_bytes += seg.size
            self.free_count += 1

    def _unlink(self, seg: SharedMemory) -> None:
        del self._all[seg.name]
        self.live_bytes -= seg.size
        self.unlinked += 1
        seg.close()
        seg.unlink()

    def close_all(self) -> None:
        for seg in list(self._all.values()):
            try:
                self._unlink(seg)
            except FileNotFoundError:
                pass
        self._free.clear()
        self.free_bytes = 0
        self.free_count = 0


class SharedMemExecutor(WorkerPool):
    """Persistent worker-process pool over shared-memory operands."""

    name = "shm"

    def _open(self) -> None:
        # The resource tracker must predate the workers so they inherit
        # it: a child spawning its *own* tracker would unlink shared
        # segments when that child exits (bpo-39959).
        resource_tracker.ensure_running()
        self._tasks = pool_context().Queue()
        self._start("repro-exec", worker_main,
                    (self._tasks, self.telemetry is not None), duplex=False)
        self._replies = selectors.DefaultSelector()
        for worker, conn in enumerate(self._conns):
            self._replies.register(conn, selectors.EVENT_READ, worker)
        self._pool = _SegmentPool()
        #: id(buffer) -> (buffer, segment) for every ``stage`` buffer
        #: not yet submitted (the strong reference keeps the id unique).
        self._lent: dict[int, tuple[np.ndarray, SharedMemory]] = {}
        self._silent = 0

    # -- segments ----------------------------------------------------------

    def _recyclable(self) -> bool:
        """Whether an ack still to come frees a read-only segment (the
        ticket ``submit`` is building is not in the book yet)."""
        return any(not op.writable for rec in self._book.values()
                   if rec.pending for op in rec.buffers)

    def _take(self, nbytes: int) -> SharedMemory:
        """A pooled segment; past the budget, waits for acks to recycle
        one while any in-flight ticket can still return one."""
        self._await_budget(lambda: self._pool.fits(nbytes), self._recyclable)
        return self._pool.take(nbytes)

    def stage(self, nbytes):
        """A uint8 array over a pooled segment; ``submit`` adopts the
        segment of an operand built in it without copying."""
        if self.closed:
            raise ExecError("executor is closed")
        seg = self._take(nbytes)
        buf = np.ndarray((nbytes,), dtype=np.uint8, buffer=seg.buf)
        self._lent[id(buf)] = (buf, seg)
        return buf

    def _free(self, buffers):
        for op in buffers:
            self._pool.give(op.seg)

    # -- dispatch ----------------------------------------------------------

    def submit(self, ref, arrays, kwargs, label=""):
        self._pump(0)
        rec = self._new_ticket(label)
        for name, arr, writable in arrays:
            # An operand built in a ``stage`` buffer already sits in
            # its segment; anything else (the caller's own array, a
            # slice of a staged buffer) is copied into one.
            lent = self._lent.pop(id(arr), None) or \
                self._lent.pop(id(arr.base), None)
            if lent is not None and arr.flags.c_contiguous \
                    and arr.nbytes == lent[0].nbytes:
                seg = lent[1]
            else:
                seg = self._take(arr.nbytes)
                np.copyto(np.ndarray(arr.shape, dtype=arr.dtype,
                                     buffer=seg.buf), arr, casting="no")
                if lent is not None:
                    self._pool.give(lent[1])
            rec.buffers.append(_Operand(name, seg, arr.shape,
                                        arr.dtype.str, writable))
            self.stats.bytes_in += arr.nbytes
        ticket = self._file(rec)
        if self.telemetry is not None:
            self.telemetry.note_grant_sent(ticket)
        descriptors = [tuple(op._replace(seg=op.seg.name))
                       for op in rec.buffers]
        self._tasks.put((ticket, ref, descriptors, kwargs,
                         self._pool.unlinked))
        return ticket

    # -- completion --------------------------------------------------------

    def _mark_dead(self, worker: int) -> None:
        self._replies.unregister(self._conns[worker])
        super()._mark_dead(worker)

    def _ingest(self, worker: int, msg) -> None:
        if isinstance(msg, int):              # the claim
            self._claim(worker, msg)
            return
        tid, worker, seconds, error, phases, records = msg
        ack = CompletionAck(tid, worker, seconds, error, phases=phases,
                            telemetry=records)
        rec = self._complete(ack, time.perf_counter_ns())
        if rec is None:
            return
        # The read-only segments are free now; the writable ones are
        # the outputs and stay with the ticket until ``release``.
        kept = []
        for op in rec.buffers:
            if op.writable:
                kept.append(op)
                ack.outputs[op.name] = np.ndarray(op.shape, dtype=op.dtype,
                                                  buffer=op.seg.buf)
            else:
                self._pool.give(op.seg)
        rec.buffers = kept

    def _pump(self, timeout: float) -> bool:
        if self.closed:
            return False
        events = self._replies.select(timeout)
        if not events:
            return False
        self._silent = 0
        while events:
            for key, _mask in events:
                try:
                    msg = key.fileobj.recv()
                except (EOFError, OSError):
                    self._mark_dead(key.data)
                else:
                    self._ingest(key.data, msg)
            events = self._replies.select(0)
        return True

    def _idle(self) -> None:
        """Give up on un-acked tickets that nothing alive is working on
        (:data:`LOST_TICKET_TICKS`)."""
        self._silent += 1
        unacked = self._unacked()
        if self._silent >= LOST_TICKET_TICKS and \
                not any(self._book[t].worker >= 0 for t in unacked):
            for ticket in unacked:
                self._fail(ticket,
                           f"shm {self._book[ticket].describe()} was lost: "
                           f"no live worker claimed it (dead: "
                           f"{self._obituary() or 'none'})")

    # -- lifecycle ---------------------------------------------------------

    def _stop(self) -> None:
        for _ in self._procs:
            self._tasks.put(None)

    def _close_transport(self) -> None:
        self._replies.close()
        # Grants nobody will read may have filled the pipe: the feeder
        # thread is told to finish, not waited for.
        self._tasks.close()
        self._tasks.cancel_join_thread()
        self._lent.clear()
        self._pool.close_all()

    def pool_stats(self) -> dict:
        """Segment-pool counters (plain integers: any thread may read)."""
        pool = self._pool
        return {"segments": pool.created, "reused": pool.reused,
                "free": pool.free_count}

    def describe(self) -> str:
        pool = self._pool
        mib = 1024 * 1024
        dead = f", dead={sorted(self._dead)}" if self._dead else ""
        return (f"{self.name}(workers={self.workers}{dead}, "
                f"segments={pool.created} created/{pool.reused} reused, "
                f"live={pool.live_bytes / mib:.1f} MiB "
                f"(peak {pool.peak_bytes / mib:.1f}) of "
                f"{core.SEGMENT_BUDGET_BYTES / mib:.0f} MiB budget)")


def shm_residue() -> list[str]:
    """Leftover pool resources of this process: segments still under
    ``/dev/shm``, plus what :func:`~repro.exec.pool.pool_residue`
    finds of the shm pools."""
    root = "/dev/shm"
    segments = []
    if os.path.isdir(root):
        segments = [n for n in os.listdir(root) if n.startswith(SHM_PREFIX)]
    return pool_residue(SharedMemExecutor, segments)
