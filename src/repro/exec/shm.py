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

Live segment bytes are bounded by :data:`SEGMENT_BUDGET_BYTES`: past
it, taking a segment waits for acks to recycle one instead of creating
more.  It creates past the budget only when no ack can free anything
(the bytes are held by staged-not-yet-submitted buffers, by the ticket
``submit`` is still building, or by writable outputs awaiting their
merge), which is what keeps it deadlock-free; such segments are
unlinked, not pooled, when they come back.  Every task message carries
the pool's unlink count, and a worker that sees it move drops its
attachments (:mod:`repro.exec.worker`), so an unlinked segment's pages
go back to the OS when each worker that mapped it takes its next task.

Completion
----------
Each worker reports on a pipe of its own: a *claim* naming the ticket
before it runs the kernel, the reply after.  The parent reads those
pipes whenever the caller touches the executor (``stage``, ``submit``,
``wait`` -- all on the caller's thread, which alone owns the state).
End-of-file on a worker's pipe is its death: the ticket it had claimed
fails with an :class:`~repro.exec.base.ExecError` naming the worker and
its exit code, tickets on surviving workers complete, and once every
worker is gone all remaining tickets fail.  ``wait`` cannot block on a
ticket nobody will finish.

Determinism
-----------
Replies may arrive in any order (they are stashed), but the runtime's
:class:`~repro.exec.ledger.PendingLedger` merges results in submission
order -- the rule :mod:`repro.bench.parallel` established -- so final
buffer bytes are independent of worker scheduling.

Lifecycle
---------
Segments are pooled by exact size and reused across tasks (worker-side
attachments are cached by name, so steady state does zero ``shm_open``
calls).  ``close()`` is idempotent: sentinel-shutdown of the workers,
then every segment -- pooled, in flight or staged and never submitted
-- is closed *and unlinked*.  The :mod:`repro.lifecycle` ``atexit``
guard closes any executor still live at interpreter exit, so no
``/dev/shm`` residue survives a test run even when teardown is skipped.
"""

from __future__ import annotations

import os
import selectors
import time
from multiprocessing import resource_tracker
from typing import NamedTuple
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.exec.base import ExecError, Executor, TaskResult, \
    default_exec_workers
from repro.exec.pool import pool_context, start_workers
from repro.exec.worker import worker_main
from repro.lifecycle import track

#: Prefix of every segment this process creates; the residue test and
#: the atexit reaper match on it.
SHM_PREFIX = f"repro_exec_{os.getpid()}_"

#: Bound on the bytes of all segments that exist at once (in flight,
#: staged and free together).  Under the 64 MiB ``/dev/shm`` a default
#: Docker container mounts, where overcommitting is a SIGBUS.
SEGMENT_BUDGET_BYTES = 48 * 1024 * 1024

#: A blocked ``wait``/``stage`` gives up on un-acked tickets after this
#: many consecutive silent seconds with every live worker idle: an idle
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


class _Task:
    """What a ticket still holds: its label and the operands whose
    segments have not gone back to the pool."""

    __slots__ = ("label", "operands")

    def __init__(self, label: str, operands: list[_Operand]) -> None:
        self.label = label
        self.operands = operands


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

    def take(self, nbytes: int, *,
             force: bool = False) -> SharedMemory | None:
        """A segment of ``nbytes``: a free one of that size, else a new
        one once free segments of other sizes made room for it.
        ``None`` when that would pass the budget, unless ``force``."""
        size = max(1, nbytes)
        bucket = self._free.get(size)
        if bucket:
            self.reused += 1
            self.free_bytes -= size
            self.free_count -= 1
            return bucket.pop()
        while self.free_bytes and \
                self.live_bytes + size > SEGMENT_BUDGET_BYTES:
            victim = next(b for b in self._free.values() if b).pop()
            self.free_bytes -= victim.size
            self.free_count -= 1
            self._unlink(victim)
        if self.live_bytes + size > SEGMENT_BUDGET_BYTES and not force:
            return None
        self._seq += 1
        self.created += 1
        seg = SharedMemory(create=True, size=size,
                           name=f"{SHM_PREFIX}{self._seq}")
        self._all[seg.name] = seg
        self.live_bytes += seg.size
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        return seg

    def give(self, seg: SharedMemory) -> None:
        if self.live_bytes > SEGMENT_BUDGET_BYTES:
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


class SharedMemExecutor(Executor):
    """Persistent worker-process pool over shared-memory operands."""

    name = "shm"
    asynchronous = True

    def __init__(self, workers: int | None = None, *,
                 telemetry: bool = False) -> None:
        super().__init__(workers=workers or default_exec_workers(),
                         telemetry=telemetry)
        # The resource tracker must predate the workers so they inherit
        # it: a child spawning its *own* tracker would unlink shared
        # segments when that child exits (bpo-39959).
        resource_tracker.ensure_running()
        self._tasks = pool_context().Queue()
        self._procs, self._conns = start_workers(
            "repro-exec", self.workers, worker_main,
            (self._tasks, self.telemetry is not None), duplex=False)
        self._replies = selectors.DefaultSelector()
        for worker, conn in enumerate(self._conns):
            self._replies.register(conn, selectors.EVENT_READ, worker)
        self._pool = _SegmentPool()
        self._next = 0
        #: id(buffer) -> (buffer, segment) for every ``stage`` buffer
        #: not yet submitted (the strong reference keeps the id unique).
        self._lent: dict[int, tuple[np.ndarray, SharedMemory]] = {}
        self._inflight: dict[int, _Task] = {}
        #: Tickets submitted and neither acked nor failed.
        self._unacked: set[int] = set()
        #: worker -> the ticket it claimed and has not replied to.
        self._running: dict[int, int] = {}
        #: worker -> exit code, once its pipe reached end of file.
        self._dead: dict[int, int | None] = {}
        self._silent = 0
        self._done: dict[int, tuple] = {}
        self._failed: dict[int, str] = {}
        track(self)

    # -- segments ----------------------------------------------------------

    def _recyclable(self) -> bool:
        """Whether an ack still to come returns a segment to the pool:
        some un-acked ticket holds a read-only one.  The ticket
        ``submit`` is building is not un-acked yet, so its own
        segments never count."""
        return any(not op.writable for ticket in self._unacked
                   for op in self._inflight[ticket].operands)

    def _take(self, nbytes: int) -> SharedMemory:
        """A pooled segment; past the budget, waits for acks to recycle
        one while any in-flight ticket can still return one."""
        self._pump(0)
        seg = self._pool.take(nbytes)
        while seg is None and self._recyclable():
            self._await()
            seg = self._pool.take(nbytes)
        if seg is None:
            seg = self._pool.take(nbytes, force=True)
        return seg

    def stage(self, nbytes):
        """A uint8 array over a pooled segment; ``submit`` adopts the
        segment of an operand built in it without copying."""
        if self.closed:
            raise ExecError("executor is closed")
        seg = self._take(nbytes)
        buf = np.ndarray((nbytes,), dtype=np.uint8, buffer=seg.buf)
        self._lent[id(buf)] = (buf, seg)
        return buf

    def _settle(self, ticket: int, *, writable_too: bool) -> None:
        """Return ``ticket``'s read-only segments to the pool, and the
        writable ones too when nobody will read them."""
        task = self._inflight[ticket]
        kept = []
        for op in task.operands:
            if op.writable and not writable_too:
                kept.append(op)
            else:
                self._pool.give(op.seg)
        task.operands = kept

    # -- dispatch ----------------------------------------------------------

    def submit(self, ref, arrays, kwargs, label=""):
        if self.closed:
            raise ExecError("executor is closed")
        self._pump(0)
        if len(self._dead) == self.workers:
            raise ExecError(
                f"every shm worker is dead ({self._obituary()}); cannot "
                f"dispatch {label or ref}")
        self._next += 1
        ticket = self._next
        operands = []
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
            operands.append(_Operand(name, seg, arr.shape, arr.dtype.str,
                                     writable))
            self.stats.bytes_in += arr.nbytes
        self._inflight[ticket] = _Task(label, operands)
        self._unacked.add(ticket)
        self.stats.submitted += 1
        if self.telemetry is not None:
            self.telemetry.note_submit(ticket)
            self.telemetry.note_grant_sent(ticket)
        descriptors = [tuple(op._replace(seg=op.seg.name))
                       for op in operands]
        self._tasks.put((ticket, ref, descriptors, kwargs,
                         self._pool.unlinked))
        return ticket

    # -- completion --------------------------------------------------------

    def _obituary(self) -> str:
        return ", ".join(f"w{w} exit code {code}"
                         for w, code in sorted(self._dead.items()))

    def _fail(self, ticket: int, reason: str) -> None:
        """No worker will finish ``ticket``: its segments are free."""
        self._unacked.discard(ticket)
        self._settle(ticket, writable_too=True)
        del self._inflight[ticket]
        self._failed[ticket] = reason

    def _what(self, ticket: int) -> str:
        label = self._inflight[ticket].label
        return f"ticket {ticket} ({label})" if label else f"ticket {ticket}"

    def _mark_dead(self, worker: int) -> None:
        self._replies.unregister(self._conns[worker])
        proc = self._procs[worker]
        # EOF can beat the kernel's bookkeeping: ``exitcode`` reads
        # None until the child has been reaped.
        proc.join(timeout=1.0)
        self._dead[worker] = proc.exitcode
        ticket = self._running.pop(worker, None)
        if ticket is not None:
            self._fail(ticket,
                       f"shm worker w{worker} died (exit code "
                       f"{proc.exitcode}) running {self._what(ticket)}")
        if len(self._dead) == self.workers:
            for ticket in sorted(self._unacked):
                self._fail(ticket,
                           f"every shm worker died ({self._obituary()}) "
                           f"before {self._what(ticket)} completed")

    def _ingest(self, worker: int, msg) -> None:
        if isinstance(msg, int):              # the claim
            if msg in self._unacked:
                self._running[worker] = msg
            return
        self._running.pop(worker, None)
        tid, _worker, seconds, err = msg[:4]
        if tid not in self._unacked:
            return
        # Telemetry-on workers append a 5th payload element; the
        # off-path reply stays the historical 4-tuple.
        if len(msg) > 4 and self.telemetry is not None:
            records, t_recv, t_reply = msg[4]
            now = time.perf_counter_ns()
            sent = self.telemetry.grant_sent.get(tid)
            clock = ((sent, t_recv, t_reply, now)
                     if sent is not None else None)
            phases = {k: (t1 - t0) / 1e9
                      for k, t0, t1, t, _n in records
                      if t == tid and k in ("setup", "kernel")}
            self.telemetry.note_ack(f"w{worker}", tid,
                                    records=records, clock=clock,
                                    phases=phases, seconds=seconds,
                                    recv_ns=now)
        self._unacked.discard(tid)
        self._settle(tid, writable_too=False)
        self._done[tid] = (worker, seconds, err)

    def _pump(self, timeout: float) -> bool:
        """Consume what the workers wrote, waiting up to ``timeout``
        seconds for the first message; True when anything arrived."""
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

    def _await(self) -> None:
        """Block until a worker says something, giving up on tickets
        that nothing alive is working on (:data:`LOST_TICKET_TICKS`)."""
        if self._pump(1.0):
            return
        self._silent += 1
        if self._silent >= LOST_TICKET_TICKS and not self._running:
            for ticket in sorted(self._unacked):
                self._fail(ticket,
                           f"shm {self._what(ticket)} was lost: no live "
                           f"worker claimed it (dead: "
                           f"{self._obituary() or 'none'})")

    def wait(self, ticket):
        self._pump(0)
        while ticket in self._unacked:
            self._await()
        reason = self._failed.pop(ticket, None)
        if reason is not None:
            raise ExecError(reason)
        if ticket not in self._done:
            raise ExecError(f"unknown ticket {ticket}")
        worker, seconds, err = self._done[ticket]
        if err is not None:
            self.release(ticket)
            raise ExecError(f"shm kernel failed in worker w{worker}:\n{err}")
        outputs = {}
        for op in self._inflight[ticket].operands:   # the writable ones
            out = np.ndarray(op.shape, dtype=op.dtype, buffer=op.seg.buf)
            outputs[op.name] = out
            self.stats.bytes_out += out.nbytes
        self.stats.note_done(f"w{worker}", seconds)
        return TaskResult(worker=f"w{worker}", seconds=seconds,
                          outputs=outputs)

    def release(self, ticket):
        if self._done.pop(ticket, None) is not None:
            self._settle(ticket, writable_too=True)
            del self._inflight[ticket]

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        if self.closed:
            return
        super().close()
        try:
            for _ in self._procs:
                self._tasks.put(None)
            deadline = time.monotonic() + 5.0
            for p in self._procs:
                p.join(timeout=max(0.1, deadline - time.monotonic()))
            for p in self._procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=1.0)
        finally:
            # A reaped worker returns its sentinel fd now, not when the
            # Process object is collected.
            for p in self._procs:
                if not p.is_alive():
                    p.close()
            self._replies.close()
            for conn in self._conns:
                conn.close()
            # Grants nobody will read may have filled the pipe: the
            # feeder thread is told to finish, not waited for.
            self._tasks.close()
            self._tasks.cancel_join_thread()
            for state in (self._lent, self._inflight, self._unacked,
                          self._running, self._done, self._failed):
                state.clear()
            self._pool.close_all()

    def pool_stats(self) -> dict:
        """Segment-pool counters, safe to read from any thread: each
        is a plain integer the owning thread maintains."""
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
                f"{SEGMENT_BUDGET_BYTES / mib:.0f} MiB budget)")


def shm_residue() -> list[str]:
    """Leftover pool resources of this process: segments still under
    ``/dev/shm`` plus unclosed telemetry aggregators (empty after
    proper teardown -- the lifecycle tests assert on it)."""
    root = "/dev/shm"
    out = []
    if os.path.isdir(root):
        out = [n for n in os.listdir(root) if n.startswith(SHM_PREFIX)]
    try:
        from repro.obs.phys import telemetry_residue
    except ImportError:          # pragma: no cover - obs always ships
        return sorted(out)
    return sorted(out + telemetry_residue("shm"))
