"""The distributed compute backend: pinned worker processes over pipes.

:class:`DistExecutor` slots behind the :class:`~repro.exec.base.Executor`
interface like any other backend -- ``make_executor("dist")`` -- but
models a cluster that shares the network plus read-only root storage:
every operand crosses to its worker as a framed message
(:mod:`repro.dist.protocol`) -- an unmodified copy of a root file
window as the window (:class:`~repro.exec.pool.FileWindow`), which the
worker reads itself -- and writable outputs travel back the same way.
No shared memory, no shared file descriptors: the pipes are the
network.

Each worker's pipe is served by a **thread pair**.  The sender thread
writes grants ``submit`` encoded (so a grant that cannot be pickled
fails its submit), and the coordinator never blocks on a full pipe;
the receiver thread reads every frame the moment the worker writes it
(a worker never waits on the coordinator to take an ack), stamps the
arrival and hands the message to one inbound queue.  Neither thread
touches executor state: ``wait`` consumes the inbound queue on the
caller's thread, which alone owns the ticket book, telemetry and the
dead-worker set (all of it in the pool core, :mod:`repro.exec.pool`).

**Staging**: the System copies each operand snapshot into a buffer it
gets from :meth:`DistExecutor.stage` -- a pooled array the sender
thread hands back right after the wire write; ack outputs land in
buffers of the same pool and go back at ``release``.  Lent buffers and
un-acked grants stay inside the pools' one in-flight budget
(:data:`~repro.exec.pool.SEGMENT_BUDGET_BYTES`).

Placement is **pinned**, not load-balanced: the distributed scheduler
(:mod:`repro.dist.runner`) pins the executor to a partition before
dispatching each task-graph node, so all of one partition's kernels --
including nested levels lowered inside its compute nodes -- run in one
worker process, the way a real per-machine shard would.  Unpinned
submits (direct executor use, non-distributed schedulers) round-robin
deterministically by submission index.

Failure handling -- error acks, crashed and hung workers -- is the
pool core's (:mod:`repro.exec.pool`).
"""

from __future__ import annotations

import queue
import threading
import time
from functools import partial

import numpy as np

from repro.core.buffers import ArrayPool
from repro.dist.protocol import SHUTDOWN, TaskGrant, encode, \
    recv_message, write
from repro.dist.worker import dist_worker_main
from repro.exec import pool as core
from repro.exec.base import ExecError
from repro.exec.pool import WorkerPool, pool_residue

#: Retention of the snapshot / ack staging pool.  Bytes are the real
#: cap: a per-size cap below the grants in flight makes the sender
#: threads free what they give back, which is what the pool is there
#: to avoid (DESIGN.md, staging-pool ownership).
STAGE_POOL_BYTES = 64 * 1024 * 1024
STAGE_POOL_PER_SIZE = 64

class DistExecutor(WorkerPool):
    """Message-passing worker-process pool with partition pinning."""

    name = "dist"

    def _open(self) -> None:
        self._start("repro-dist", dist_worker_main,
                    (self.telemetry is not None,), duplex=True)
        self._pool = ArrayPool(max_bytes=STAGE_POOL_BYTES,
                               max_per_size=STAGE_POOL_PER_SIZE)
        #: id(buffer) -> buffer for every staging buffer handed out and
        #: not yet submitted (the strong reference keeps the id unique).
        self._lent: dict[int, np.ndarray] = {}
        # One sender and one receiver thread per worker, started after
        # the last fork: both directions of every pipe drain
        # independently of each other and of the caller's thread.
        self._out: list[queue.Queue] = [queue.Queue()
                                        for _ in range(self.workers)]
        self._inbound: queue.Queue = queue.Queue()
        self._threads = [
            threading.Thread(target=loop, args=(i,),
                             name=f"repro-dist-{kind}-{i}", daemon=True)
            for i in range(self.workers)
            for kind, loop in (("send", self._sender_loop),
                               ("recv", self._receiver_loop))]
        for t in self._threads:
            t.start()
        self._pin: int | None = None

    # -- placement ---------------------------------------------------------

    def pin(self, partition: int | None) -> None:
        """Route subsequent submits to ``partition % workers`` (the
        distributed scheduler's per-node affinity); ``None`` restores
        round-robin."""
        self._pin = partition

    # -- dispatch ----------------------------------------------------------

    def stage(self, nbytes):
        """A pooled snapshot buffer (after acks, while it would pass
        the budget); the sender thread returns it to the pool once the
        grant that carries it is on the wire."""
        self._await_budget(
            lambda: self._held() + nbytes <= core.SEGMENT_BUDGET_BYTES,
            self._unacked)
        buf = self._pool.take(nbytes, zero=False)
        self._lent[id(buf)] = buf
        return buf

    def _held(self) -> int:
        """Snapshot bytes lent (not yet submitted) or not yet acked."""
        return sum(buf.nbytes for buf in self._lent.values()) + sum(
            rec.nbytes for rec in self._book.values() if rec.pending)

    def submit(self, ref, arrays, kwargs, label=""):
        pin = self._pin
        worker = (self._next if pin is None else pin) % self.workers
        part = self._ctx_part if self._ctx_part >= 0 else (
            -1 if pin is None else pin)
        rec = self._new_ticket(label, worker=worker, partition=part)
        # Operands built in a ``stage`` buffer go back to the pool once
        # sent; the caller's own arrays never enter it.
        staged = []
        for _name, arr, _writable in arrays:
            if isinstance(arr, np.ndarray):     # not a FileWindow
                rec.nbytes += arr.nbytes
                buf = self._lent.pop(
                    id(arr if arr.base is None else arr.base), None)
                if buf is not None:
                    staged.append(buf)
        # Encoded before ``_file`` gives it this ticket, so that a grant
        # which cannot be pickled never enters the book.
        grant = TaskGrant(ticket=self._next + 1, fn_ref=ref,
                          operands=list(arrays), kwargs=kwargs, label=label,
                          node_id=rec.node, partition=part)
        try:
            iovecs, _wire = encode(grant)
        except Exception as exc:
            raise ExecError(
                f"cannot send {rec.describe()} to {self.name} worker "
                f"w{worker}: {type(exc).__name__}: {exc}") from exc
        ticket = self._file(rec)
        self.stats.bytes_in += rec.nbytes
        self._out[worker].put((ticket, iovecs, staged))
        return ticket

    def _sender_loop(self, worker: int) -> None:
        conn = self._conns[worker]
        out = self._out[worker]
        while True:
            item = out.get()
            if item is None:
                return
            ticket, iovecs, staged = item
            try:
                if self.telemetry is not None and ticket is not None:
                    # Stamp as close to the wire as possible: no worker
                    # record of the ticket can start before this.
                    self.telemetry.note_grant_sent(ticket)
                write(conn.fileno(), iovecs)
            except OSError:
                # Worker (or pipe) gone; the receiver sees the EOF and
                # the caller fails this worker's tickets.
                return
            for buf in staged:
                self._pool.give(buf)

    def _receiver_loop(self, worker: int) -> None:
        """Read messages as they arrive; all state stays with the caller
        of ``wait``, who consumes the inbound queue.  A failed read is
        the last message: the exception itself."""
        conn = self._conns[worker]
        take = partial(self._pool.take, zero=False)
        msg = None
        while not isinstance(msg, Exception):
            try:
                msg, buffers, _wire = recv_message(conn, take)
            except Exception as exc:
                msg, buffers = exc, ()
            self._inbound.put((worker, msg, buffers,
                               time.perf_counter_ns()))

    # -- completion --------------------------------------------------------

    def _ingest(self, worker: int, msg, buffers, recv_ns: int) -> None:
        if isinstance(msg, Exception):      # the receiver's last word
            eof = isinstance(msg, (EOFError, OSError))
            if not eof:     # a corrupt stream cannot be resynchronised
                self._procs[worker].kill()
            self._mark_dead(worker,
                            "" if eof else f"{type(msg).__name__}: {msg}")
            return
        rec = self._complete(msg, recv_ns)
        if rec is None:
            self._free(buffers)
        else:
            # The ack's output arrays view these pool buffers.
            rec.buffers = buffers

    def _pump(self, timeout: float) -> bool:
        if self.closed:     # its receivers' EOFs are not deaths
            return False
        try:
            item = (self._inbound.get(timeout=timeout) if timeout > 0
                    else self._inbound.get_nowait())
        except queue.Empty:
            return False
        while True:
            self._ingest(*item)
            try:
                item = self._inbound.get_nowait()
            except queue.Empty:
                return True

    def _free(self, buffers):
        for buf in buffers:
            self._pool.give(buf)

    # -- lifecycle ---------------------------------------------------------

    def _stop(self) -> None:
        shutdown, _wire = encode(SHUTDOWN)
        for out in self._out:
            out.put((None, shutdown, ()))
            out.put(None)           # sender-thread sentinel

    def _close_transport(self) -> None:
        # Every worker is gone, so every receiver has read its EOF.
        for t in self._threads:
            t.join(timeout=1.0)
        self._lent.clear()
        self._pool.clear()


def dist_residue() -> list[str]:
    """Live dist worker processes, pipe threads and open pipe ends,
    plus unclosed telemetry aggregators (:func:`pool_residue`)."""
    return pool_residue(DistExecutor)


__all__ = ["DistExecutor", "dist_residue"]
