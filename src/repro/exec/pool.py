"""The one worker-pool core of the process-pool runtimes.

:class:`~repro.exec.shm.SharedMemExecutor` and
:class:`~repro.dist.executor.DistExecutor` both subclass
:class:`WorkerPool`.  It owns worker start (one pipe per worker), the
**ticket book** -- one :class:`_Ticket` per submit: label, task-graph
node, partition, assigned worker and the buffers the transport holds
for it; ``dist`` assigns the worker at submit (partition-pinned push),
``shm`` at the worker's claim (shared pull queue) -- one attribution
text for every error, dead-worker handling, the ``join_timeout``-bounded
``wait``, reply ingestion, ``close`` and the residue walk
(:func:`pool_residue`); the one in-flight snapshot budget
(:data:`SEGMENT_BUDGET_BYTES`, :meth:`WorkerPool._await_budget`); and
the worker-side kernel body (:func:`run_kernel`), whose one
operand-materialising step takes what a grant carried -- an array, a
``shm`` segment reference, or a :class:`FileWindow` the worker reads
from root storage itself.  A transport supplies its data plane through
the hooks at the end of :class:`WorkerPool`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError
from repro.exec.base import ExecError, Executor, TaskResult, \
    default_exec_workers, resolve_kernel
from repro.lifecycle import live, track
from repro.memory.backends import FileBackend


#: The one bound on the snapshot bytes a pool holds for tickets in
#: flight (``shm``'s live segments; ``dist``'s lent buffers and un-acked
#: grants): past it, staging waits for acks (DESIGN.md).  Under the
#: 64 MiB ``/dev/shm`` of a default Docker container.
SEGMENT_BUDGET_BYTES = 32 * 1024 * 1024


def pool_context():
    """The ``multiprocessing`` context of the worker pools: ``fork``
    where the platform offers it, else ``spawn``."""
    return mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn")


@dataclass
class CompletionAck:
    """A worker's reply for one ticket, on either transport; the
    telemetry fields stay ``None`` unless the worker was started with
    telemetry on (the zero-overhead-off contract)."""

    ticket: int
    worker: int
    seconds: float
    #: Formatted traceback when the kernel raised; ``None`` on success.
    error: str | None = None
    #: name -> array for every writable operand (``dist`` ships them
    #: back; ``shm`` fills in views of the ticket's segments).
    outputs: dict[str, np.ndarray] = field(default_factory=dict)
    #: Sub-phase split of ``seconds`` (unpickle/setup/kernel seconds).
    phases: dict | None = None
    #: Drained :class:`~repro.obs.phys.TelemetryBuffer` records
    #: piggybacking home on this ack.
    telemetry: list | None = None


class FileWindow(NamedTuple):
    """A read-only operand a grant carries as a place instead of bytes:
    ``rows`` runs of ``row_bytes``, ``stride`` apart from ``offset`` of
    the root file at ``path``, typed as ``dtype`` / ``shape``."""

    path: str
    offset: int
    rows: int
    row_bytes: int
    stride: int
    dtype: str
    shape: tuple

    def read(self) -> np.ndarray:
        """The window, packed, read on a descriptor of this process's
        own; a file that ends inside it raises, never reads as zeros."""
        out = np.empty((self.rows, self.row_bytes), np.uint8)
        fd = os.open(self.path, os.O_RDONLY)
        try:
            whole = FileBackend._gather_fd(fd, self.offset, self.rows,
                                           self.row_bytes, self.stride, out)
        finally:
            os.close(fd)
        if not whole:
            raise OSError(f"{self.path} ends inside the {self.rows} x "
                          f"{self.row_bytes} B window at offset "
                          f"{self.offset}")
        return out.reshape(-1).view(self.dtype).reshape(self.shape)


def run_kernel(ref: str, operands, kwargs: dict, ticket: int, buf,
               t_start: int, attach=None) -> tuple[float, str | None,
                                                   dict | None]:
    """The worker-side body of one ticket, shared by both worker loops.

    Resolves ``ref``, materialises the ``(name, value, writable)``
    ``operands`` -- an array as it is, a :class:`FileWindow` read from
    its file, anything else a segment reference ``attach`` maps --
    inside the error guard, so a failed attach or read reports like a
    kernel failure; locks the read-only ones and runs the kernel.
    Returns ``(seconds since t_start, traceback or None, phases)``;
    with a telemetry ``buf`` it records the setup / kernel spans and
    the rss, else ``phases`` is ``None``.
    """
    phases = None if buf is None else {}
    try:
        fn = resolve_kernel(ref)
        args = {}
        nbytes = 0
        for name, arr, writable in operands:
            if isinstance(arr, FileWindow):
                arr = arr.read()
            elif not isinstance(arr, np.ndarray):
                arr = attach(arr)
            if not writable:
                arr = arr.view()
                arr.flags.writeable = False
            args[name] = arr
            nbytes += arr.nbytes
        k0 = perf_counter_ns()
        if buf is not None:
            buf.record("setup", t_start, k0, ticket, 0)
            phases["setup"] = (k0 - t_start) / 1e9
        fn(**args, **kwargs)
        k1 = perf_counter_ns()
        if buf is not None:
            buf.record("kernel", k0, k1, ticket, nbytes)
            buf.record_rss(ticket)
            phases["kernel"] = (k1 - k0) / 1e9
        return (k1 - t_start) / 1e9, None, phases
    except BaseException:
        return ((perf_counter_ns() - t_start) / 1e9, traceback.format_exc(),
                phases)


class _Ticket:
    """One ticket in the book: attribution, assignment, the buffers the
    transport holds for it, and its outcome (``reply`` or
    ``failure``; neither while pending)."""

    __slots__ = ("label", "node", "partition", "worker", "since",
                 "buffers", "nbytes", "reply", "failure")

    def __init__(self, label: str, node: int, partition: int,
                 worker: int) -> None:
        self.label = label
        self.node = node
        self.partition = partition
        #: Assigned worker, -1 until a ``shm`` worker claims it.
        self.worker = worker
        #: Coordinator ns the assigned worker got the ticket.
        self.since = perf_counter_ns() if worker >= 0 else 0
        self.buffers: list = []
        self.nbytes = 0         # operand bytes shipped (``dist``'s budget)
        self.reply: CompletionAck | None = None
        self.failure: str | None = None

    @property
    def pending(self) -> bool:
        return self.reply is None and self.failure is None

    def describe(self) -> str:
        where = (f"partition {self.partition}" if self.partition >= 0
                 else "unpartitioned submit")
        what = (f"task-graph node #{self.node}" if self.node >= 0
                else "a direct kernel")
        extra = f" ({self.label})" if self.label else ""
        return f"{what}{extra} of {where}"


class WorkerPool(Executor):
    """A persistent pool of worker processes behind the executor
    contract; subclasses supply the transport.

    The asynchronous contract, on top of :class:`Executor`'s:

    * ``submit`` receives *owned snapshot arrays* (the caller will not
      mutate them) and returns an opaque ticket; a snapshot built in a
      :meth:`stage` buffer belongs to the pool from then on, which
      alone decides when that buffer is free again;
    * ``wait(ticket)`` blocks until that task finished and returns its
      :class:`TaskResult` -- output arrays stay valid until
      ``release(ticket)``;
    * tasks submitted in some order merge back in that order (the
      :class:`~repro.exec.ledger.PendingLedger` enforces it).
    """

    asynchronous = True
    _procs: list | tuple = ()
    _conns: list | tuple = ()
    #: Transport I/O threads the residue audit watches.
    _threads: list | tuple = ()

    def __init__(self, workers: int | None = None, *,
                 join_timeout: float = 120.0,
                 telemetry: bool = False) -> None:
        super().__init__(workers=workers or default_exec_workers(),
                         telemetry=telemetry)
        #: Bound on one blocking wait for a worker (``wait``, the
        #: close-time join); raise it for kernels that run longer.
        self.join_timeout = join_timeout
        self._book: dict[int, _Ticket] = {}
        #: worker -> "exit code N[; cause]", once its pipe failed.
        self._dead: dict[int, str] = {}
        self._next = 0
        self._open()
        track(self)

    def _start(self, name: str, target, args: tuple, *,
               duplex: bool) -> None:
        """Start daemons ``target(i, conn, *args)`` named ``{name}-{i}``,
        each on a pipe of its own whose child end is closed here, so a
        dead worker shows as end-of-file on its connection."""
        ctx = pool_context()
        self._procs, self._conns = [], []
        for i in range(self.workers):
            parent, child = ctx.Pipe(duplex=duplex)
            proc = ctx.Process(target=target, args=(i, child, *args),
                               name=f"{name}-{i}", daemon=True)
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)

    def enable_telemetry(self) -> None:
        """Workers decide at start whether to buffer records, so a pool
        already running without telemetry cannot turn it on."""
        if self.telemetry is None and self._procs:
            raise ConfigError(
                f"the {self.name} workers already run without telemetry; "
                f"build the pool with make_executor({self.name!r}, ..., "
                f"telemetry=True)")
        super().enable_telemetry()

    # -- the ticket book ---------------------------------------------------

    def _new_ticket(self, label: str, *, worker: int = -1,
                    partition: int | None = None) -> _Ticket:
        """The record of the submit being built; raises when nobody can
        serve it."""
        if self.closed:
            raise ExecError("executor is closed")
        rec = _Ticket(label, self._ctx_node,
                      self._ctx_part if partition is None else partition,
                      worker)
        if worker in self._dead or len(self._dead) == self.workers:
            who = (f"{self.name} worker w{worker} is"
                   if worker in self._dead
                   else f"every {self.name} worker is")
            raise ExecError(f"{who} dead ({self._obituary()}); cannot "
                            f"dispatch {rec.describe()}")
        return rec

    def _file(self, rec: _Ticket) -> int:
        """Enter a built submit into the book; returns its ticket."""
        self._next += 1
        ticket = self._next
        self._book[ticket] = rec
        self.stats.submitted += 1
        if self.telemetry is not None:
            self.telemetry.note_submit(ticket)
        return ticket

    def _unacked(self) -> list[int]:
        """Tickets submitted and neither acked nor failed."""
        return [t for t, rec in self._book.items() if rec.pending]

    def _claim(self, worker: int, ticket: int) -> None:
        rec = self._book.get(ticket)
        if rec is not None and rec.pending:
            rec.worker = worker
            rec.since = perf_counter_ns()

    def _complete(self, ack: CompletionAck,
                  recv_ns: int) -> _Ticket | None:
        """Record a worker's reply; ``None`` when its ticket is no
        longer pending (the transport then frees what came with it)."""
        rec = self._book.get(ack.ticket)
        if rec is None or not rec.pending:
            return None
        rec.worker = ack.worker
        rec.reply = ack
        if self.telemetry is not None:
            self.telemetry.note_ack(
                f"w{ack.worker}", ack.ticket, records=ack.telemetry or (),
                phases=ack.phases, seconds=ack.seconds, recv_ns=recv_ns)
        return rec

    def _fail(self, ticket: int, reason: str) -> None:
        """No worker will finish ``ticket``: its buffers are free."""
        rec = self._book[ticket]
        rec.failure = reason
        self._free(rec.buffers)
        rec.buffers = []

    def _obituary(self) -> str:
        return ", ".join(f"w{w} {why}"
                         for w, why in sorted(self._dead.items()))

    def _mark_dead(self, worker: int, cause: str = "") -> None:
        """Fail ``worker``'s tickets; ``cause`` says why its pipe broke
        when that was not end of file."""
        if worker in self._dead:
            return
        proc = self._procs[worker]
        # EOF can beat the kernel's bookkeeping: ``exitcode`` reads
        # None until the child has been reaped.
        proc.join(timeout=1.0)
        why = self._dead[worker] = f"exit code {proc.exitcode}" + (
            f"; {cause}" if cause else "")
        for ticket in self._unacked():
            rec = self._book[ticket]
            if rec.worker == worker:
                self._fail(ticket,
                           f"{self.name} worker w{worker} died ({why}) "
                           f"before completing {rec.describe()}")
        if len(self._dead) == self.workers:
            for ticket in self._unacked():
                self._fail(ticket,
                           f"every {self.name} worker died "
                           f"({self._obituary()}) before completing "
                           f"{self._book[ticket].describe()}")

    # -- completion --------------------------------------------------------

    def wait(self, ticket):
        rec = self._book.get(ticket)
        if rec is None:
            raise ExecError(f"unknown ticket {ticket}")
        deadline = time.monotonic() + self.join_timeout
        self._pump(0)
        while rec.pending:
            left = deadline - time.monotonic()
            if left <= 0:
                who = (f"worker w{rec.worker}" if rec.worker >= 0
                       else "pool")
                raise ExecError(
                    f"{self.name} {who} did not complete {rec.describe()} "
                    f"within {self.join_timeout:g}s (hung worker?)")
            if not self._pump(min(1.0, left)):
                self._idle()
        if rec.failure is not None:
            del self._book[ticket]
            raise ExecError(rec.failure)
        ack = rec.reply
        if ack.error is not None:
            self.release(ticket)
            raise ExecError(
                f"{self.name} kernel failed in worker w{ack.worker} running "
                f"{rec.describe()}:\n{ack.error}")
        for arr in ack.outputs.values():
            self.stats.bytes_out += arr.nbytes
        self.stats.note_done(f"w{ack.worker}", ack.seconds)
        return TaskResult(worker=f"w{ack.worker}", seconds=ack.seconds,
                          outputs=ack.outputs)

    def release(self, ticket):
        rec = self._book.get(ticket)
        if rec is not None and rec.reply is not None:
            del self._book[ticket]
            self._free(rec.buffers)

    def silent_since(self) -> dict[str, int | None]:
        """A worker holding an un-acked ticket has been silent since
        its last ack or since it got the oldest such ticket, whichever
        is later.  Reads copies only: a status thread may call it."""
        out = super().silent_since()
        seen = dict(self.telemetry.last_seen_ns) \
            if self.telemetry is not None else {}
        for rec in list(self._book.values()):
            if rec.pending and rec.worker >= 0:
                name = f"w{rec.worker}"
                start = max(rec.since, seen.get(name, 0))
                held = out.get(name)
                out[name] = start if held is None else min(held, start)
        return out

    def _await_budget(self, fits, in_flight) -> None:
        """Pump acks until ``fits()`` or no ticket ``in_flight()`` can
        make room: the in-flight budget's wait, timed into ``stats``.
        A worker dying meanwhile, or ``join_timeout``, fails it."""
        self._pump(0)
        t0, dead = time.monotonic(), len(self._dead)
        if fits() or not in_flight():
            return
        self.stats.budget_waits += 1
        try:
            while not fits() and in_flight():
                left = t0 + self.join_timeout - time.monotonic()
                if left <= 0:
                    raise ExecError(f"{self.name} workers freed no budget "
                                    f"in {self.join_timeout:g}s (hung?)")
                if not self._pump(min(1.0, left)):
                    self._idle()
                if len(self._dead) > dead:
                    raise ExecError(f"{self.name} worker died while staging "
                                    f"waited for budget ({self._obituary()})")
        finally:
            self.stats.budget_wait_seconds += time.monotonic() - t0

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Shutdown sentinels, a joint deadline join, terminate what is
        left; then close the reaped processes, the transport and the
        pipes.  Idempotent."""
        if self.closed:
            return
        super().close()
        try:
            self._stop()
            deadline = time.monotonic() + min(5.0, self.join_timeout)
            for p in self._procs:
                p.join(timeout=max(0.1, deadline - time.monotonic()))
            for p in self._procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=1.0)
        finally:
            # A reaped worker returns its sentinel fd now, not when the
            # Process object is collected; a straggler stays listed for
            # the residue audit.
            stragglers = []
            for p in self._procs:
                if p.is_alive():
                    stragglers.append(p)
                else:
                    p.close()
            self._procs = stragglers
            self._close_transport()
            for conn in self._conns:
                try:
                    conn.close()
                except OSError:
                    pass
            self._book.clear()

    # -- transport hooks ---------------------------------------------------

    def stage(self, nbytes: int) -> np.ndarray:
        """A writable uint8 array of ``nbytes`` for the System to
        snapshot one operand into."""
        raise NotImplementedError

    def _open(self) -> None:
        """Start the workers (:meth:`_start`) and the transport."""
        raise NotImplementedError

    def _pump(self, timeout: float) -> bool:
        """Ingest what the workers wrote, waiting up to ``timeout``
        seconds for the first message; True when anything arrived."""
        raise NotImplementedError

    def _free(self, buffers: list) -> None:
        """Return a finished ticket's buffers to the transport."""

    def _idle(self) -> None:
        """A blocking pump heard nothing."""

    def _stop(self) -> None:
        """Send every worker its shutdown sentinel."""

    def _close_transport(self) -> None:
        """Release what the transport owns once the workers are gone."""


def pool_residue(kind: type, extra=()) -> list[str]:
    """Live worker processes, transport threads and open pipe ends of
    every ``kind`` pool, plus ``extra`` and the unclosed telemetry
    aggregators of that backend (empty after proper teardown -- the
    lifecycle tests assert on it)."""
    from repro.obs.phys import telemetry_residue

    out = list(extra)
    for ex in live(kind):
        out += [x.name for x in (*ex._procs, *ex._threads) if x.is_alive()]
        out += [f"repro-{ex.name}-pipe-{i}"
                for i, conn in enumerate(ex._conns) if not conn.closed]
    return sorted(out + telemetry_residue(kind.name))


__all__ = ["CompletionAck", "FileWindow", "SEGMENT_BUDGET_BYTES",
           "WorkerPool", "pool_context", "pool_residue", "run_kernel"]
