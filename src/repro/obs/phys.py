"""The physical telemetry plane: wall-clock records from inside workers.

:mod:`repro.obs` accounts *virtual* time on the simulator thread; since
the executor split (:mod:`repro.exec`) and the distributed backend
(:mod:`repro.dist`) the *physical* work happens in worker threads and
processes the virtual trace never sees.  This module closes that gap:

* :class:`TelemetryBuffer` -- a per-worker append-only record array
  (plain tuples, no locks: each worker owns its buffer exclusively).
  Workers stamp ``perf_counter_ns`` enter/exit pairs around kernel
  execution, operand unpickling, shm attaches, ack pickling and rss
  snapshots, then ``drain()`` the buffer into the completion ack that
  was travelling anyway -- zero extra round-trips.
* :class:`PhysTelemetry` -- the coordinator-side aggregator one
  executor owns when built with ``telemetry=True``.  It keys records by
  ticket, remembers the virtual span / task-graph node / partition that
  caused each submit (``set_task_context`` + the span id the System
  pokes at dispatch), and collects NTP-style clock samples from
  grant/ack timestamp pairs.
* :class:`PhysTraceMerger` -- fits a per-worker :class:`ClockModel`
  (offset + drift, least squares over the pair samples), maps worker
  timestamps onto the coordinator clock, clamps every record to start
  no earlier than its grant left the coordinator, and emits merged
  Perfetto tracks: one physical lane per worker next to the virtual
  tracks, with grant -> kernel -> ack flow arrows per ticket.

Everything is strictly opt-in: executors built without
``telemetry=True`` hold ``telemetry = None``, allocate no buffers, and
their wire messages carry no telemetry payload -- the zero-overhead-off
contract the observability suite asserts via the ``allocated`` class
counters below.
"""

from __future__ import annotations

import argparse
import json
import os
import weakref
from dataclasses import dataclass
from time import perf_counter_ns

#: Record kinds a :class:`TelemetryBuffer` may hold.  ``kernel`` /
#: ``unpickle`` / ``setup`` / ``send`` / ``attach`` are duration spans
#: (t0 < t1); ``rss`` and ``heartbeat`` are instants (t0 == t1) whose
#: payload rides in ``nbytes``.
RECORD_KINDS = ("kernel", "unpickle", "setup", "send", "attach", "rss",
                "heartbeat")

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
    """Append-only per-worker record array (worker-local clock).

    Records are plain tuples ``(kind, t0_ns, t1_ns, ticket, nbytes)``.
    No locks: exactly one worker thread/process appends, and ``drain``
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

    def heartbeat(self) -> int:
        """Stamp a liveness instant; returns the worker-clock ns."""
        now = perf_counter_ns()
        self._records.append(("heartbeat", now, now, -1, 0))
        return now

    def drain(self) -> list[tuple]:
        """Take every buffered record (the piggyback payload)."""
        out = self._records
        self._records = []
        return out

    def __len__(self) -> int:
        return len(self._records)


# -- clock alignment ---------------------------------------------------------

@dataclass(frozen=True)
class ClockModel:
    """Worker-clock -> coordinator-clock mapping ``w - offset(w)``.

    ``offset(w) = offset_ns + drift * (w - ref_ns)``: the constant
    offset at the reference instant plus a linear drift term.  With no
    samples the model is the identity (same-process workers share the
    coordinator's ``perf_counter_ns``).
    """

    offset_ns: float = 0.0
    drift: float = 0.0            # ns of offset per worker-clock ns
    ref_ns: float = 0.0
    samples: int = 0

    def offset_at(self, w_ns: float) -> float:
        return self.offset_ns + self.drift * (w_ns - self.ref_ns)

    def to_coordinator(self, w_ns: float) -> float:
        return w_ns - self.offset_at(w_ns)


def fit_clock(pairs: list[tuple]) -> ClockModel:
    """Fit a :class:`ClockModel` from grant/ack timestamp pairs.

    Each pair is ``(t_sent, t_recv, t_ack, t_ack_recv)``: the grant
    left the coordinator at ``t_sent`` (coordinator clock), reached the
    worker at ``t_recv`` (worker clock), the ack left the worker at
    ``t_ack`` (worker clock) and arrived back at ``t_ack_recv``
    (coordinator clock).  Assuming symmetric transport delay -- the NTP
    model -- the midpoint sample ``(t_recv + t_ack)/2 - (t_sent +
    t_ack_recv)/2`` estimates the worker-minus-coordinator offset at
    worker instant ``(t_recv + t_ack)/2``; a least-squares line over
    the samples captures drift.
    """
    samples = []
    for t_sent, t_recv, t_ack, t_ack_recv in pairs:
        w_mid = (t_recv + t_ack) / 2.0
        c_mid = (t_sent + t_ack_recv) / 2.0
        samples.append((w_mid, w_mid - c_mid))
    if not samples:
        return ClockModel()
    w_mean = sum(w for w, _ in samples) / len(samples)
    o_mean = sum(o for _, o in samples) / len(samples)
    if len(samples) < 2:
        return ClockModel(offset_ns=o_mean, ref_ns=w_mean,
                          samples=len(samples))
    # Centered least squares: the raw ns magnitudes (~1e13) would chew
    # through double precision in the uncentered normal equations.
    var = sum((w - w_mean) ** 2 for w, _ in samples)
    if var <= 0.0:
        return ClockModel(offset_ns=o_mean, ref_ns=w_mean,
                          samples=len(samples))
    cov = sum((w - w_mean) * (o - o_mean) for w, o in samples)
    return ClockModel(offset_ns=o_mean, drift=cov / var, ref_ns=w_mean,
                      samples=len(samples))


# -- the coordinator-side aggregator -----------------------------------------

_LIVE_TELEMETRY: "weakref.WeakSet[PhysTelemetry]" = weakref.WeakSet()


def telemetry_residue(backend: str | None = None) -> list[str]:
    """Unclosed telemetry aggregators (leaked buffers): executors must
    close their telemetry with the rest of their pool resources.  The
    ``dist_residue()`` / ``shm_residue()`` audits fold this in."""
    out = []
    for tel in list(_LIVE_TELEMETRY):
        if tel.closed:
            continue
        if backend is not None and tel.backend != backend:
            continue
        records = sum(len(r) for r in tel.records.values())
        out.append(f"phys-telemetry({tel.backend}, records={records})")
    return sorted(out)


class PhysTelemetry:
    """Coordinator-side telemetry store of one executor.

    Workers are named like the executor's stats keys (``w0``, ``t3``,
    ``main``).  Records arrive in worker-clock ns via :meth:`note_ack`
    (piggybacked payloads) or :meth:`note_inline` (same-thread
    executors); clock pairs accumulate per worker for the merger's
    offset fit.  ``close()`` marks the store retired but keeps the data
    -- post-run analysis outlives the worker pool.
    """

    #: Total aggregators ever constructed in this process.
    allocated = 0

    def __init__(self, backend: str = "?") -> None:
        PhysTelemetry.allocated += 1
        self.backend = backend
        #: worker -> raw records, worker clock.
        self.records: dict[str, list[tuple]] = {}
        #: worker -> (t_sent, t_recv, t_ack, t_ack_recv) clock pairs.
        self.pairs: dict[str, list[tuple]] = {}
        #: ticket -> attribution and ack metadata.
        self.tickets: dict[int, dict] = {}
        #: ticket -> coordinator perf_counter_ns the grant left at.
        self.grant_sent: dict[int, int] = {}
        #: worker -> coordinator perf_counter_ns of the last ack or
        #: heartbeat (the watchdog's liveness signal).
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
                 clock: tuple | None = None, phases: dict | None = None,
                 seconds: float = 0.0, recv_ns: int = 0) -> None:
        """Fold one completion's piggybacked payload in."""
        info = self._ticket(ticket)
        info["worker"] = worker
        if phases is not None:
            info["phases"] = phases
        info["seconds"] = seconds
        info["ack_recv_ns"] = recv_ns or perf_counter_ns()
        if records:
            self.records.setdefault(worker, []).extend(records)
        if clock is not None:
            self.pairs.setdefault(worker, []).append(clock)
        self.last_seen_ns[worker] = info["ack_recv_ns"]

    def note_inline(self, worker: str, kind: str, t0_ns: int, t1_ns: int,
                    nbytes: int = 0) -> int:
        """Record same-thread work (inline executor, System's in-place
        kernel path): no wire, no clock pair, a pseudo-ticket keeps the
        span attribution uniform."""
        self._pseudo -= 1
        ticket = self._pseudo
        info = self._ticket(ticket)
        info["worker"] = worker
        info["seconds"] = (t1_ns - t0_ns) / 1e9
        self.records.setdefault(worker, []).append(
            (kind, t0_ns, t1_ns, ticket, nbytes))
        self.last_seen_ns[worker] = t1_ns
        return ticket

    def heartbeat(self, worker: str, t_ns: int, rss: int = 0) -> None:
        """A worker's idle liveness beat (worker clock ``t_ns``)."""
        self.records.setdefault(worker, []).append(
            ("heartbeat", t_ns, t_ns, -1, rss))
        self.last_seen_ns[worker] = perf_counter_ns()

    # -- analysis ----------------------------------------------------------

    def span_of(self, ticket: int) -> int:
        info = self.tickets.get(ticket)
        return info["span"] if info else 0

    def clock_models(self) -> dict[str, ClockModel]:
        models = {w: fit_clock(p) for w, p in self.pairs.items()}
        for worker in self.records:
            models.setdefault(worker, ClockModel())
        return models

    def merger(self) -> "PhysTraceMerger":
        return PhysTraceMerger(self)

    def worker_stats(self) -> dict[str, dict]:
        """Per-worker busy/utilization/phase accounting (worker clock:
        durations and windows need no alignment)."""
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
                if kind == "heartbeat":
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
        clock offsets, aggregate phase split."""
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
        clocks = {
            worker: {"offset_ns": model.offset_ns,
                     "drift_ppb": model.drift * 1e9,
                     "samples": model.samples}
            for worker, model in sorted(self.clock_models().items())
            if model.samples}
        return {
            "backend": self.backend,
            "tasks": sum(w["tasks"] for w in workers.values()),
            "workers": workers,
            "busy_skew": skew,
            "stragglers": stragglers,
            "phases": dict(sorted(phases.items())),
            "clock": clocks,
        }

    def close(self) -> None:
        """Retire the store (residue audits stop flagging it); the
        collected data stays readable for post-run analysis."""
        self.closed = True


# -- the merger --------------------------------------------------------------

@dataclass(frozen=True)
class AlignedRecord:
    """One worker record mapped onto the coordinator clock."""

    worker: str
    kind: str
    t0_ns: float           # coordinator clock
    t1_ns: float
    ticket: int
    span: int
    nbytes: int


class PhysTraceMerger:
    """Clock-align worker records and emit merged Perfetto tracks."""

    #: Perfetto process id of the physical lanes (exporters target
    #: cross-plane flow arrows at it).
    PID = PID_PHYS

    def __init__(self, telemetry: PhysTelemetry) -> None:
        self.telemetry = telemetry
        self.models = telemetry.clock_models()
        self._aligned: list[AlignedRecord] | None = None
        self._tids: dict[str, int] = {}
        for worker in sorted(telemetry.records):
            self._tids[worker] = len(self._tids) + 2   # 1 = coordinator

    def tid_of(self, worker: str) -> int:
        return self._tids.get(worker, 1)

    def aligned(self) -> list[AlignedRecord]:
        """Every record in coordinator-clock ns, clamped so no record
        of a granted ticket starts before its grant left (the property
        test's invariant: causality survives clock-fit error)."""
        if self._aligned is not None:
            return self._aligned
        tel = self.telemetry
        out: list[AlignedRecord] = []
        for worker, records in sorted(tel.records.items()):
            model = self.models.get(worker, ClockModel())
            for kind, w0, w1, ticket, nbytes in records:
                t0 = model.to_coordinator(w0)
                t1 = model.to_coordinator(w1)
                sent = tel.grant_sent.get(ticket)
                if sent is not None:
                    t0 = max(t0, float(sent))
                t1 = max(t1, t0)
                out.append(AlignedRecord(
                    worker=worker, kind=kind, t0_ns=t0, t1_ns=t1,
                    ticket=ticket, span=tel.span_of(ticket),
                    nbytes=nbytes))
        out.sort(key=lambda r: (r.t0_ns, r.worker))
        self._aligned = out
        return out

    @property
    def epoch_ns(self) -> float:
        """t = 0 of the physical tracks: the earliest grant or record."""
        instants = list(self.telemetry.grant_sent.values())
        instants.extend(r.t0_ns for r in self.aligned())
        return float(min(instants)) if instants else 0.0

    def kernel_anchors(self) -> dict[int, tuple[float, str]]:
        """span id -> (start seconds since epoch, worker) of the first
        physical kernel record attributed to that span -- the flow
        target :func:`repro.tools.trace_export.iter_chrome_events` uses
        to arrow virtual spans into the physical lanes."""
        epoch = self.epoch_ns
        out: dict[int, tuple[float, str]] = {}
        for rec in self.aligned():
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

        #: ticket -> ts of its first aligned kernel slice (flow step).
        kernel_at: dict[int, float] = {}
        for rec in self.aligned():
            tid = self.tid_of(rec.worker)
            if rec.kind == "rss":
                yield {"name": f"rss:{rec.worker}", "ph": "C",
                       "ts": ts(rec.t0_ns), "pid": PID_PHYS,
                       "args": {"rss_mb": rec.nbytes / 1e6}}
                continue
            if rec.kind == "heartbeat":
                yield {"name": "heartbeat", "cat": "phys", "ph": "i",
                       "s": "t", "ts": ts(rec.t0_ns), "pid": PID_PHYS,
                       "tid": tid}
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


# -- capture mode (the CI observability-phys job) ----------------------------

def capture(outdir: str, *, workers: int = 4, app: str = "gemm") -> dict:
    """Run one telemetry-on distributed app and write the merged
    artifacts: RunReport with per-worker stats, merged Perfetto trace
    (virtual tracks + physical lanes + flows), and the phys summary."""
    import hashlib

    import numpy as np

    from repro.core.system import System
    from repro.bench.cells import DIST_APP_CASES
    from repro.dist.executor import DistExecutor
    from repro.dist.runner import DistributedScheduler
    from repro.obs.report import RunReport
    from repro.tools.trace_export import write_chrome_trace

    os.makedirs(outdir, exist_ok=True)
    make_app, make_tree = DIST_APP_CASES[app]
    ex = DistExecutor(workers=workers, telemetry=True)
    sys_ = System(make_tree(), executor=ex)
    try:
        application = make_app(sys_)
        application.run(sys_, scheduler=DistributedScheduler())
        digest = hashlib.sha256(np.ascontiguousarray(
            application.result()).tobytes()).hexdigest()
        report = RunReport.from_system(sys_, name=f"{app}-dist{workers}")
        report.save(os.path.join(outdir, f"report_phys_{app}.json"))
        merger = ex.telemetry.merger()
        events = write_chrome_trace(
            sys_.timeline.trace,
            os.path.join(outdir, f"trace_phys_{app}.json"),
            spans=sys_.obs, phys=merger)
        summary = ex.telemetry.summary()
        with open(os.path.join(outdir, f"phys_summary_{app}.json"),
                  "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        lanes = sum(1 for w in summary["workers"] if w.startswith("w"))
        spans_hit = sum(1 for r in merger.aligned()
                        if r.kind == "kernel" and r.span > 0)
        return {"app": app, "digest": digest, "events": events,
                "worker_lanes": lanes, "kernel_spans": spans_hit,
                "tasks": summary["tasks"]}
    finally:
        sys_.close()
        ex.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.phys",
        description="Capture a telemetry-on distributed run: merged "
                    "Perfetto trace, per-worker stats, phys summary.")
    parser.add_argument("--capture", metavar="DIR", required=True,
                        help="artifact directory")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--app", default="gemm",
                        choices=("gemm", "hotspot", "sort", "spmv"))
    args = parser.parse_args(argv)
    row = capture(args.capture, workers=args.workers, app=args.app)
    print(f"captured {row['app']}: {row['events']} events, "
          f"{row['worker_lanes']} worker lanes, {row['tasks']} tasks, "
          f"{row['kernel_spans']} span-attributed kernel slices")
    if row["worker_lanes"] < 1 or row["kernel_spans"] < 1:
        print("ERROR: merged trace is missing worker lanes or span "
              "attribution")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
