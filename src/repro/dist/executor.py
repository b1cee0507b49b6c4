"""The distributed compute backend: pinned worker processes over pipes.

:class:`DistExecutor` slots behind the :class:`~repro.exec.base.Executor`
interface like any other backend -- ``make_executor("dist")`` -- but
models a share-nothing cluster: every operand crosses to its worker as
a framed message (:mod:`repro.dist.protocol`), and writable outputs
travel back the same way.  No shared memory, no shared file
descriptors: the pipes *are* the network.

Each worker's pipe is served by a **thread pair**.  The sender thread
writes queued grants, so the coordinator never blocks on a full pipe;
the receiver thread reads every frame the moment the worker writes it
(a worker never waits on the coordinator to take an ack), stamps the
arrival and hands the message to one inbound queue.  Neither thread
touches executor state: ``wait`` / ``poll`` consume the inbound queue
on the caller's thread, which alone owns tickets, telemetry and the
dead-worker set.

**Staging**: the System copies each operand snapshot into a buffer it
gets from :meth:`DistExecutor.stage` -- a pooled array the sender
thread hands back right after the wire write; ack outputs land in
buffers of the same pool and go back at ``release``.

Placement is **pinned**, not load-balanced: the distributed scheduler
(:mod:`repro.dist.runner`) pins the executor to a partition before
dispatching each task-graph node, so all of one partition's kernels --
including nested levels lowered inside its compute nodes -- run in one
worker process, the way a real per-machine shard would.  Unpinned
submits (direct executor use, non-distributed schedulers) round-robin
deterministically by submission index.

Failure handling (the coordinator must never deadlock):

* a kernel *exception* comes back as a normal error ack -- the worker
  survives and the failure surfaces at ``wait`` like any backend;
* a worker *crash* (``os._exit``, OOM kill) tears its pipe; the
  coordinator sees EOF and fails every ticket pinned to that worker
  with an :class:`~repro.exec.base.ExecError` naming the owning
  partition and task-graph node;
* a *hung* worker trips the bounded ``join_timeout`` at ``wait``, with
  the same attribution; ``close()`` terminates stragglers.
"""

from __future__ import annotations

import queue
import threading
import time
from functools import partial

import numpy as np

from repro.core.buffers import ArrayPool
from repro.dist.protocol import SHUTDOWN, CompletionAck, Heartbeat, \
    TaskGrant, recv_message, send_message
from repro.dist.worker import dist_worker_main
from repro.exec.base import ExecError, Executor, TaskResult
from repro.exec.pool import start_workers
from repro.lifecycle import live, track

#: Retention of the snapshot / ack staging pool.  Bytes are the real
#: cap: a per-size cap below the grants in flight makes the sender
#: threads free what they give back, which is what the pool is there
#: to avoid (DESIGN.md, staging-pool ownership).
STAGE_POOL_BYTES = 64 * 1024 * 1024
STAGE_POOL_PER_SIZE = 64

#: Heartbeats are dropped once this many messages wait unread: acks are
#: bounded by the tickets in flight, beats of an idle pool nobody polls
#: are not.
INBOUND_BEATS_MAX = 1024

#: Inbound-queue marker: the worker's pipe reached end of file.
_EOF = object()


class _Pending:
    __slots__ = ("worker", "node_id", "partition", "label")

    def __init__(self, worker: int, node_id: int, partition: int,
                 label: str) -> None:
        self.worker = worker
        self.node_id = node_id
        self.partition = partition
        self.label = label

    def describe(self) -> str:
        where = (f"partition {self.partition}" if self.partition >= 0
                 else "unpartitioned submit")
        what = (f"task-graph node #{self.node_id}" if self.node_id >= 0
                else "a direct kernel")
        extra = f" ({self.label})" if self.label else ""
        return f"{what}{extra} of {where}"


class DistExecutor(Executor):
    """Message-passing worker-process pool with partition pinning."""

    name = "dist"
    asynchronous = True

    def __init__(self, workers: int | None = None, *,
                 join_timeout: float = 120.0, telemetry: bool = False,
                 heartbeat_s: float = 0.0) -> None:
        from repro.exec.base import default_exec_workers
        super().__init__(workers=workers or default_exec_workers(),
                         telemetry=telemetry)
        #: Idle-worker heartbeat period (seconds); 0 disables.  Only
        #: meaningful with telemetry on -- the beats feed the watchdog.
        self.heartbeat_s = heartbeat_s if telemetry else 0.0
        #: Upper bound on any single blocking operation against a
        #: worker (wait for one ack, close-time join): the coordinator
        #: surfaces a clean error instead of deadlocking on a hung
        #: partition.  Raise it for kernels that legitimately run
        #: longer.
        self.join_timeout = join_timeout
        self._procs, self._conns = start_workers(
            "repro-dist", self.workers, dist_worker_main,
            (self.telemetry is not None, self.heartbeat_s), duplex=True)
        self._pool = ArrayPool(max_bytes=STAGE_POOL_BYTES,
                               max_per_size=STAGE_POOL_PER_SIZE)
        #: id(buffer) -> buffer for every staging buffer handed out and
        #: not yet submitted (the strong reference keeps the id unique).
        self._lent: dict[int, np.ndarray] = {}
        #: Per-worker operand bytes put on the wire.
        self.shipped_bytes = [0] * self.workers
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
        self._dead: set[int] = set()
        self._pin: int | None = None
        self._ctx_node = -1
        self._ctx_part = -1
        self._next = 0
        self._pending: dict[int, _Pending] = {}
        self._done: dict[int, CompletionAck] = {}
        #: ticket -> pool buffers its ack's output arrays view.
        self._ack_buffers: dict[int, list] = {}
        self._failed: dict[int, str] = {}
        track(self)

    # -- placement ---------------------------------------------------------

    def pin(self, partition: int | None) -> None:
        """Route subsequent submits to ``partition % workers`` (the
        distributed scheduler's per-node affinity); ``None`` restores
        round-robin."""
        self._pin = partition

    def set_task_context(self, *, node_id: int = -1,
                         partition: int = -1, span_id: int = 0) -> None:
        """Attribution for the next submits: the task-graph node and
        partition a failure message should name (and, telemetry on, the
        virtual span physical kernel records join against)."""
        super().set_task_context(node_id=node_id, partition=partition,
                                 span_id=span_id)
        self._ctx_node = node_id
        self._ctx_part = partition

    def _place(self) -> int:
        if self._pin is not None:
            return self._pin % self.workers
        worker = self._next % self.workers
        return worker

    # -- dispatch ----------------------------------------------------------

    def stage(self, nbytes):
        """A pooled snapshot buffer; the sender thread returns it to
        the pool once the grant that carries it is on the wire."""
        buf = self._pool.take(nbytes, zero=False)
        self._lent[id(buf)] = buf
        return buf

    def submit(self, ref, arrays, kwargs, label=""):
        if self.closed:
            raise ExecError("executor is closed")
        worker = self._place()
        self._next += 1
        ticket = self._next
        part = self._ctx_part if self._ctx_part >= 0 else (
            self._pin if self._pin is not None else -1)
        pending = _Pending(worker, self._ctx_node, part, label)
        if worker in self._dead:
            raise ExecError(
                f"distributed worker w{worker} is dead; cannot dispatch "
                f"{pending.describe()}")
        # Operands built in a ``stage`` buffer go back to the pool once
        # sent; the caller's own arrays never enter it.
        staged = []
        for _name, arr, _writable in arrays:
            buf = self._lent.pop(
                id(arr if arr.base is None else arr.base), None)
            if buf is not None:
                staged.append(buf)
        shipped = sum(arr.nbytes for _name, arr, _writable in arrays)
        grant = TaskGrant(ticket=ticket, fn_ref=ref, operands=list(arrays),
                          kwargs=kwargs, label=label,
                          node_id=self._ctx_node, partition=part)
        self.stats.bytes_in += shipped
        self.shipped_bytes[worker] += shipped
        self._pending[ticket] = pending
        if self.telemetry is not None:
            self.telemetry.note_submit(ticket)
        self._out[worker].put((grant, staged))
        self.stats.submitted += 1
        return ticket

    def _sender_loop(self, worker: int) -> None:
        conn = self._conns[worker]
        out = self._out[worker]
        while True:
            item = out.get()
            if item is None:
                return
            msg, staged = item
            try:
                if self.telemetry is not None and \
                        isinstance(msg, TaskGrant):
                    # Stamp as close to the wire as possible: this is
                    # the t_sent half of the ticket's NTP clock sample.
                    self.telemetry.note_grant_sent(msg.ticket)
                send_message(conn, msg)
            except OSError:
                # Worker (or pipe) gone; the receiver sees the EOF and
                # the caller fails this worker's tickets.
                return
            for buf in staged:
                self._pool.give(buf)

    def _receiver_loop(self, worker: int) -> None:
        """Read frames as they arrive; all state stays with the caller
        of ``wait`` / ``poll``, who consumes the inbound queue."""
        conn = self._conns[worker]
        take = partial(self._pool.take, zero=False)
        while True:
            try:
                msg, buffers, _wire = recv_message(conn, take)
            except (EOFError, OSError):
                self._inbound.put((worker, _EOF, (),
                                   time.perf_counter_ns()))
                return
            if isinstance(msg, Heartbeat) and \
                    self._inbound.qsize() >= INBOUND_BEATS_MAX:
                continue
            self._inbound.put((worker, msg, buffers,
                               time.perf_counter_ns()))

    # -- completion --------------------------------------------------------

    def _mark_dead(self, worker: int) -> None:
        if worker in self._dead:
            return
        self._dead.add(worker)
        proc = self._procs[worker]
        # EOF can beat the kernel's bookkeeping: ``exitcode`` reads
        # None until the child has been reaped.
        proc.join(timeout=1.0)
        for ticket, pending in list(self._pending.items()):
            if pending.worker == worker:
                del self._pending[ticket]
                self._failed[ticket] = (
                    f"distributed worker w{worker} died "
                    f"(exit code {proc.exitcode}) before completing "
                    f"{pending.describe()}")

    def _ingest(self, worker: int, msg, buffers, recv_ns: int) -> None:
        if msg is _EOF:
            self._mark_dead(worker)
        elif isinstance(msg, Heartbeat):
            if self.telemetry is not None:
                self.telemetry.heartbeat(f"w{msg.worker}", msg.t_ns,
                                         msg.rss)
        else:
            assert isinstance(msg, CompletionAck)
            if self.telemetry is not None:
                sent = self.telemetry.grant_sent.get(msg.ticket)
                clock = ((sent, msg.t_recv_ns, msg.t_ack_ns, recv_ns)
                         if sent is not None and msg.t_recv_ns else None)
                self.telemetry.note_ack(
                    f"w{msg.worker}", msg.ticket,
                    records=msg.telemetry or (), clock=clock,
                    phases=msg.phases, seconds=msg.seconds,
                    recv_ns=recv_ns)
            self._done[msg.ticket] = msg
            self._ack_buffers[msg.ticket] = buffers

    def _pump(self, deadline: float) -> None:
        """Ingest what the receiver threads queued, blocking until
        something arrives or the deadline (capped at 1 s) hits.  A
        closed executor ingests nothing (its receivers' EOFs are not
        deaths)."""
        if self.closed:
            return
        timeout = min(1.0, deadline - time.monotonic())
        try:
            item = (self._inbound.get(timeout=timeout) if timeout > 0
                    else self._inbound.get_nowait())
            while True:
                self._ingest(*item)
                item = self._inbound.get_nowait()
        except queue.Empty:
            pass

    def poll(self) -> None:
        """Ingest waiting worker messages without blocking.  The
        receiver threads read the pipes, but heartbeats only reach the
        telemetry here; status loops call this so the watchdog's
        liveness map stays current between in-flight tickets."""
        self._pump(time.monotonic())

    def wait(self, ticket):
        deadline = time.monotonic() + self.join_timeout
        while True:
            ack = self._done.get(ticket)
            if ack is not None:
                break
            reason = self._failed.pop(ticket, None)
            if reason is not None:
                raise ExecError(reason)
            pending = self._pending.get(ticket)
            if pending is None:
                raise ExecError(f"unknown ticket {ticket}")
            if time.monotonic() >= deadline:
                raise ExecError(
                    f"distributed worker w{pending.worker} did not "
                    f"complete {pending.describe()} within "
                    f"{self.join_timeout:g}s (hung worker?)")
            self._pump(deadline)
        pending = self._pending.pop(ticket, None)
        if ack.error is not None:
            self.release(ticket)
            where = pending.describe() if pending else f"ticket {ticket}"
            raise ExecError(
                f"dist kernel failed in worker w{ack.worker} running "
                f"{where}:\n{ack.error}")
        for arr in ack.outputs.values():
            self.stats.bytes_out += arr.nbytes
        self.stats.note_done(f"w{ack.worker}", ack.seconds)
        return TaskResult(worker=f"w{ack.worker}", seconds=ack.seconds,
                          outputs=ack.outputs)

    def release(self, ticket):
        self._done.pop(ticket, None)
        for buf in self._ack_buffers.pop(ticket, ()):
            self._pool.give(buf)

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        if self.closed:
            return
        super().close()
        for out in self._out:
            out.put((SHUTDOWN, ()))
            out.put(None)           # sender-thread sentinel
        deadline = time.monotonic() + min(5.0, self.join_timeout)
        for p in self._procs:
            p.join(timeout=max(0.1, deadline - time.monotonic()))
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        # A reaped worker returns its sentinel pipe fds now, not when
        # the Process object is collected; a straggler stays listed for
        # ``dist_residue``.
        stragglers = []
        for p in self._procs:
            if p.is_alive():
                stragglers.append(p)
            else:
                p.close()
        self._procs = stragglers
        # Every worker is gone, so every receiver has read its EOF.
        for t in self._threads:
            t.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._pending.clear()
        self._done.clear()
        self._ack_buffers.clear()
        self._failed.clear()
        self._lent.clear()
        self._pool.clear()

    def describe(self) -> str:
        dead = f", dead={sorted(self._dead)}" if self._dead else ""
        return (f"{self.name}(workers={self.workers}, "
                f"pin={self._pin}{dead})")


def dist_residue() -> list[str]:
    """Live dist worker processes, pipe threads and open pipe ends,
    plus unclosed telemetry aggregators of this coordinator (empty
    after proper teardown -- the lifecycle tests assert on it)."""
    out = []
    for ex in live(DistExecutor):
        out += [x.name for x in (*ex._procs, *ex._threads)
                if x.is_alive()]
        out += [f"repro-dist-pipe-{i}" for i, conn in enumerate(ex._conns)
                if not conn.closed]
    try:
        from repro.obs.phys import telemetry_residue
    except ImportError:          # pragma: no cover - obs always ships
        return sorted(out)
    return sorted(out + telemetry_residue("dist"))


__all__ = ["DistExecutor", "dist_residue"]
