"""The physical telemetry plane: wall-clock records from inside workers.

:mod:`repro.obs` accounts *virtual* time on the simulator thread; the
*physical* work of the process pools (:mod:`repro.exec.pool`) happens
in workers the virtual trace never sees.  This module closes that gap:

* :class:`TelemetryBuffer` -- a per-worker append-only record array.
  Workers stamp ``perf_counter_ns`` pairs around kernel execution,
  operand unpickling, shm attaches and ack sends, plus rss snapshots,
  then ``drain()`` it into the completion ack that was travelling
  anyway -- zero extra round-trips.
* :class:`PhysTelemetry` -- the coordinator-side aggregator one
  executor owns when built with ``telemetry=True``.  It keys records by
  ticket and remembers the virtual span / task-graph node / partition
  that caused each submit (``set_task_context`` + the span id the
  System pokes at dispatch).
* :class:`PhysTraceMerger` -- emits merged Perfetto tracks: one
  physical lane per worker next to the virtual tracks, with grant ->
  kernel -> ack flow arrows per ticket.  Workers are local children
  reading the coordinator's CLOCK_MONOTONIC ``perf_counter_ns``, so
  their records need no clock alignment.

Everything is strictly opt-in: executors built without
``telemetry=True`` hold ``telemetry = None``, allocate no buffers, and
their wire messages carry no telemetry payload -- the zero-overhead-off
contract the observability suite asserts via the ``allocated`` class
counters below.
"""

from __future__ import annotations

import os
import weakref
from time import perf_counter_ns
from typing import NamedTuple

#: Flow-id namespace for grant -> kernel -> ack arrows (the virtual
#: trace uses 1 << 32 and 1 << 33; see repro.tools.trace_export).
FLOW_PHYS_BASE = 1 << 34

#: pid of the physical worker lanes in the merged Chrome trace
#: (resources are pid 1, virtual spans pid 2).
PID_PHYS = 3

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int:
    """Resident set size of this process, 0 where /proc is absent."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0


class TelemetryBuffer:
    """Append-only per-worker record array.

    Records are plain tuples ``(kind, t0_ns, t1_ns, ticket, nbytes)``:
    ``kernel`` / ``unpickle`` / ``setup`` / ``send`` / ``attach`` spans,
    or an ``rss`` instant whose payload rides in ``nbytes``.  No locks: exactly one worker thread/process appends, and ``drain``
    happens on that same worker between tasks.  The ``allocated`` class
    counter lets the zero-overhead suite assert that no buffer ever
    exists when telemetry is off.
    """

    __slots__ = ("worker", "_records")

    #: Total buffers ever constructed in this process.
    allocated = 0

    def __init__(self, worker: str) -> None:
        TelemetryBuffer.allocated += 1
        self.worker = worker
        self._records: list[tuple] = []

    def record(self, kind: str, t0_ns: int, t1_ns: int,
               ticket: int = -1, nbytes: int = 0) -> None:
        self._records.append((kind, t0_ns, t1_ns, ticket, nbytes))

    def record_rss(self, ticket: int = -1) -> None:
        rss = rss_bytes()
        if rss:
            now = perf_counter_ns()
            self._records.append(("rss", now, now, ticket, rss))

    def drain(self) -> list[tuple]:
        """Take every buffered record (the piggyback payload)."""
        out = self._records
        self._records = []
        return out

    def __len__(self) -> int:
        return len(self._records)


# -- the coordinator-side aggregator -----------------------------------------

_LIVE_TELEMETRY: "weakref.WeakSet[PhysTelemetry]" = weakref.WeakSet()


def telemetry_residue(backend: str) -> list[str]:
    """Unclosed telemetry aggregators (leaked buffers) of ``backend``:
    executors must close their telemetry with the rest of their pool
    resources.  The pools' residue audits fold this in."""
    out = []
    for tel in list(_LIVE_TELEMETRY):
        if tel.closed or tel.backend != backend:
            continue
        records = sum(len(r) for r in tel.records.values())
        out.append(f"phys-telemetry({tel.backend}, records={records})")
    return sorted(out)


class PhysTelemetry:
    """Coordinator-side telemetry store of one executor.

    Workers are named like the executor's stats keys (``w0``,
    ``main``).  Records arrive via :meth:`note_ack` (piggybacked
    payloads) or :meth:`note_inline` (same-thread executors).
    ``close()`` marks the store retired but keeps the data -- post-run
    analysis outlives the worker pool.
    """

    #: Total aggregators ever constructed in this process.
    allocated = 0

    def __init__(self, backend: str = "?") -> None:
        PhysTelemetry.allocated += 1
        self.backend = backend
        #: worker -> raw records.
        self.records: dict[str, list[tuple]] = {}
        #: ticket -> attribution and ack metadata.
        self.tickets: dict[int, dict] = {}
        #: ticket -> coordinator perf_counter_ns the grant left at.
        self.grant_sent: dict[int, int] = {}
        #: worker -> coordinator perf_counter_ns of its last ack (the
        #: watchdog's liveness signal).
        self.last_seen_ns: dict[str, int] = {}
        self.current_span = 0
        self.current_node = -1
        self.current_partition = -1
        self.closed = False
        self._pseudo = 0
        _LIVE_TELEMETRY.add(self)

    # -- ingest ------------------------------------------------------------

    def _ticket(self, ticket: int) -> dict:
        info = self.tickets.get(ticket)
        if info is None:
            info = {"span": self.current_span, "node": self.current_node,
                    "partition": self.current_partition, "worker": "",
                    "phases": None, "seconds": 0.0, "ack_recv_ns": 0}
            self.tickets[ticket] = info
        return info

    def note_submit(self, ticket: int) -> None:
        """Bind the ambient context (span / node / partition) to a
        ticket at submit time -- ack payloads join on it later."""
        self._ticket(ticket)

    def note_grant_sent(self, ticket: int, t_ns: int | None = None) -> None:
        self.grant_sent[ticket] = perf_counter_ns() if t_ns is None else t_ns

    def note_ack(self, worker: str, ticket: int, *, records=(),
                 phases: dict | None = None, seconds: float = 0.0,
                 recv_ns: int = 0) -> None:
        """Fold one completion's piggybacked payload in."""
        info = self._ticket(ticket)
        info["worker"] = worker
        if phases is not None:
            info["phases"] = phases
        info["seconds"] = seconds
        info["ack_recv_ns"] = recv_ns or perf_counter_ns()
        if records:
            self.records.setdefault(worker, []).extend(records)
        self.last_seen_ns[worker] = info["ack_recv_ns"]

    def note_inline(self, worker: str, kind: str, t0_ns: int, t1_ns: int,
                    nbytes: int = 0) -> int:
        """Record same-thread work (inline executor, System's in-place
        kernel path): no wire, a pseudo-ticket keeps the span
        attribution uniform."""
        self._pseudo -= 1
        ticket = self._pseudo
        info = self._ticket(ticket)
        info["worker"] = worker
        info["seconds"] = (t1_ns - t0_ns) / 1e9
        self.records.setdefault(worker, []).append(
            (kind, t0_ns, t1_ns, ticket, nbytes))
        self.last_seen_ns[worker] = t1_ns
        return ticket

    # -- analysis ----------------------------------------------------------

    def span_of(self, ticket: int) -> int:
        info = self.tickets.get(ticket)
        return info["span"] if info else 0

    def merger(self) -> "PhysTraceMerger":
        return PhysTraceMerger(self)

    def worker_stats(self) -> dict[str, dict]:
        """Per-worker busy/utilization/phase accounting."""
        out: dict[str, dict] = {}
        for worker, records in sorted(self.records.items()):
            phases: dict[str, float] = {}
            tasks = 0
            lo = hi = None
            rss_max = 0
            for kind, t0, t1, _ticket, nbytes in records:
                if kind == "rss":
                    rss_max = max(rss_max, nbytes)
                    continue
                phases[kind] = phases.get(kind, 0.0) + (t1 - t0) / 1e9
                if kind == "kernel":
                    tasks += 1
                lo = t0 if lo is None else min(lo, t0)
                hi = t1 if hi is None else max(hi, t1)
            busy = sum(phases.values())
            window = (hi - lo) / 1e9 if lo is not None and hi > lo else 0.0
            out[worker] = {
                "tasks": tasks,
                "kernel_s": phases.get("kernel", 0.0),
                "busy_s": busy,
                "window_s": window,
                "utilization": busy / window if window > 0 else 0.0,
                "rss_max_bytes": rss_max,
                "phases": dict(sorted(phases.items())),
            }
        return out

    def summary(self) -> dict:
        """The RunReport payload: per-worker stats, skew, stragglers,
        aggregate phase split."""
        workers = self.worker_stats()
        busys = [w["busy_s"] for w in workers.values()]
        mean_busy = sum(busys) / len(busys) if busys else 0.0
        skew = (max(busys) / mean_busy) if mean_busy > 0 else 0.0
        median = sorted(busys)[len(busys) // 2] if busys else 0.0
        stragglers = sorted(
            name for name, w in workers.items()
            if median > 0 and w["busy_s"] > 1.5 * median)
        phases: dict[str, float] = {}
        for w in workers.values():
            for kind, secs in w["phases"].items():
                phases[kind] = phases.get(kind, 0.0) + secs
        return {
            "backend": self.backend,
            "tasks": sum(w["tasks"] for w in workers.values()),
            "workers": workers,
            "busy_skew": skew,
            "stragglers": stragglers,
            "phases": dict(sorted(phases.items())),
        }

    def close(self) -> None:
        """Retire the store (residue audits stop flagging it); the
        collected data stays readable for post-run analysis."""
        self.closed = True


# -- the merger --------------------------------------------------------------

class PhysRecord(NamedTuple):
    """One worker record with its ticket's virtual span."""

    worker: str
    kind: str
    t0_ns: int             # coordinator clock
    t1_ns: int
    ticket: int
    span: int
    nbytes: int


class PhysTraceMerger:
    """Emit a telemetry store's records as merged Perfetto tracks."""

    #: Perfetto process id of the physical lanes (exporters target
    #: cross-plane flow arrows at it).
    PID = PID_PHYS

    def __init__(self, telemetry: PhysTelemetry) -> None:
        self.telemetry = telemetry
        self._records: list[PhysRecord] | None = None
        self._tids: dict[str, int] = {}
        for worker in sorted(telemetry.records):
            self._tids[worker] = len(self._tids) + 2   # 1 = coordinator

    def tid_of(self, worker: str) -> int:
        return self._tids.get(worker, 1)

    def records(self) -> list[PhysRecord]:
        """Every worker record with its span, in start order."""
        if self._records is None:
            tel = self.telemetry
            self._records = sorted(
                (PhysRecord(worker, kind, t0, t1, ticket,
                            tel.span_of(ticket), nbytes)
                 for worker, records in tel.records.items()
                 for kind, t0, t1, ticket, nbytes in records),
                key=lambda r: (r.t0_ns, r.worker))
        return self._records

    @property
    def epoch_ns(self) -> float:
        """t = 0 of the physical tracks: the earliest grant or record."""
        instants = list(self.telemetry.grant_sent.values())
        instants.extend(r.t0_ns for r in self.records())
        return float(min(instants)) if instants else 0.0

    def kernel_anchors(self) -> dict[int, tuple[float, str]]:
        """span id -> (start seconds since epoch, worker) of the first
        physical kernel record attributed to that span -- the flow
        target :func:`repro.tools.trace_export.iter_chrome_events` uses
        to arrow virtual spans into the physical lanes."""
        epoch = self.epoch_ns
        out: dict[int, tuple[float, str]] = {}
        for rec in self.records():
            if rec.kind == "kernel" and rec.span > 0 \
                    and rec.span not in out:
                out[rec.span] = ((rec.t0_ns - epoch) / 1e9, rec.worker)
        return out

    def chrome_events(self, time_unit: float = 1e6):
        """Yield Chrome Trace events for the physical plane (pid 3):
        one lane per worker, a coordinator lane of grant/ack instants,
        phase slices with ticket/span attribution, rss counters and
        grant -> kernel -> ack flow arrows per ticket."""
        tel = self.telemetry
        epoch = self.epoch_ns

        def ts(ns: float) -> float:
            return (ns - epoch) / 1e9 * time_unit

        yield {"name": "process_name", "ph": "M", "pid": PID_PHYS,
               "args": {"name": "physical workers"}}
        yield {"name": "thread_name", "ph": "M", "pid": PID_PHYS,
               "tid": 1, "args": {"name": "coordinator"}}
        for worker, tid in self._tids.items():
            yield {"name": "thread_name", "ph": "M", "pid": PID_PHYS,
                   "tid": tid, "args": {"name": f"phys:{worker}"}}

        #: ticket -> ts of its first kernel slice (flow step).
        kernel_at: dict[int, float] = {}
        for rec in self.records():
            tid = self.tid_of(rec.worker)
            if rec.kind == "rss":
                yield {"name": f"rss:{rec.worker}", "ph": "C",
                       "ts": ts(rec.t0_ns), "pid": PID_PHYS,
                       "args": {"rss_mb": rec.nbytes / 1e6}}
                continue
            event = {
                "name": rec.kind, "cat": "phys", "ph": "X",
                "ts": ts(rec.t0_ns),
                "dur": (rec.t1_ns - rec.t0_ns) / 1e9 * time_unit,
                "pid": PID_PHYS, "tid": tid,
                "args": {"worker": rec.worker, "ticket": rec.ticket},
            }
            if rec.span:
                event["args"]["span"] = rec.span
            if rec.nbytes:
                event["args"]["bytes"] = rec.nbytes
            yield event
            if rec.kind == "kernel" and rec.ticket > 0 \
                    and rec.ticket not in kernel_at:
                kernel_at[rec.ticket] = ts(rec.t0_ns)

        for ticket, sent in sorted(tel.grant_sent.items()):
            t_grant = ts(float(sent))
            yield {"name": f"grant#{ticket}", "cat": "phys", "ph": "i",
                   "s": "t", "ts": t_grant, "pid": PID_PHYS, "tid": 1,
                   "args": {"ticket": ticket}}
            info = tel.tickets.get(ticket)
            step = kernel_at.get(ticket)
            if step is None:
                continue
            fid = FLOW_PHYS_BASE + ticket
            worker = info["worker"] if info else ""
            yield {"name": "dispatch", "cat": "phys_flow", "ph": "s",
                   "id": fid, "ts": t_grant, "pid": PID_PHYS, "tid": 1}
            yield {"name": "dispatch", "cat": "phys_flow", "ph": "t",
                   "id": fid, "ts": step, "pid": PID_PHYS,
                   "tid": self.tid_of(worker)}
            if info and info["ack_recv_ns"]:
                yield {"name": "dispatch", "cat": "phys_flow", "ph": "f",
                       "bp": "e", "id": fid,
                       "ts": ts(float(info["ack_recv_ns"])),
                       "pid": PID_PHYS, "tid": 1}
