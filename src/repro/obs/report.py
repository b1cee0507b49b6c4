"""The :class:`RunReport` artifact: one run, fully accounted.

A ``RunReport`` subsumes :class:`~repro.core.profiler.Breakdown` -- the
per-phase busy times, shares and moved bytes -- and adds what the
breakdown cannot answer: per-resource busy time, the critical path
(which chain of intervals set the makespan, and its phase/resource
composition), the causal span tree when one was recorded, and a metrics
snapshot.  It serialises to JSON (the CI artifact) and renders as a
human table.

CLI
---
``python -m repro report run.json`` reloads a Chrome-trace export
(written by :func:`repro.tools.trace_export.write_chrome_trace`) and
prints its report; ``--json`` emits the JSON artifact instead.
``python -m repro report --capture DIR`` runs small instrumented GEMM
and HotSpot passes and writes report + Perfetto + metrics artifacts
into ``DIR``; ``--workers N`` runs them on N telemetry-on distributed
workers, merges the physical worker lanes into each trace, and exits 1
when a trace has no worker lane or no span-attributed kernel slice.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.profiler import Breakdown, profile_trace
from repro.obs.critical import CriticalPath, critical_path
from repro.sim.trace import Trace


class RunReport:
    """Aggregated accounting of one run (see module docstring)."""

    def __init__(self, name: str, breakdown: Breakdown,
                 resources: dict[str, float], path: CriticalPath,
                 intervals: int, spans: dict | None = None,
                 metrics: dict | None = None,
                 phys: dict | None = None) -> None:
        self.name = name
        self.breakdown = breakdown
        self.resources = resources
        self.path = path
        self.intervals = intervals
        self.spans = spans
        self.metrics = metrics
        #: Physical-plane summary (:meth:`PhysTelemetry.summary`) when
        #: the run's executor carried telemetry; ``None`` otherwise.
        self.phys = phys

    # -- construction -----------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace, *, name: str = "run",
                   observer=None, metrics=None,
                   phys=None) -> "RunReport":
        """Report on ``trace``, with the span tree of ``observer``, a
        metrics snapshot and a physical-plane summary when given."""
        spans_summary = None
        path = critical_path(trace)
        if observer is not None and observer.enabled and len(observer):
            from repro.obs.spans import analyze
            tree = analyze(observer, trace)
            top = []
            for sid, secs in path.top_spans(5):
                st = tree.node(sid)
                top.append({
                    "span": sid, "kind": st.span.kind,
                    "label": st.span.label, "path_seconds": secs,
                    "self_seconds": st.self_seconds,
                    "bytes": st.self_bytes,
                    "resources": sorted(st.resources),
                })
            spans_summary = {
                "count": len(tree),
                "unattributed_intervals": tree.unattributed,
                "by_kind": {k: {"count": c, "self_seconds": s}
                            for k, (c, s) in sorted(tree.by_kind().items())},
                "top_path_spans": top,
                "tree": tree.table(),
            }
        return cls(name=name, breakdown=profile_trace(trace),
                   resources=trace.by_resource(), path=path,
                   intervals=len(trace), spans=spans_summary,
                   metrics=metrics, phys=phys)

    @classmethod
    def from_system(cls, system, *, name: str = "run") -> "RunReport":
        """Report on a system's recorded timeline.  A telemetry-on
        executor contributes its physical-plane summary."""
        tel = system.executor.telemetry
        phys = tel.summary() if tel is not None and tel.records else None
        return cls.from_trace(system.timeline.trace, name=name,
                              observer=system.obs,
                              metrics=system.metrics.snapshot(), phys=phys)

    # -- export -----------------------------------------------------------

    def to_dict(self) -> dict:
        b = self.breakdown
        out = {
            "name": self.name,
            "makespan_s": b.makespan,
            "intervals": self.intervals,
            "phases": {
                phase.value: {
                    "seconds": secs,
                    "share": secs / b.busy_total if b.busy_total else 0.0,
                    "bytes": b.bytes_by_phase.get(phase, 0),
                } for phase, secs in sorted(
                    b.by_phase.items(), key=lambda kv: -kv[1])
            },
            "shares": b.shares(),
            "resources": dict(sorted(self.resources.items(),
                                     key=lambda kv: -kv[1])),
            "critical_path": {
                "steps": len(self.path),
                "busy_seconds": self.path.busy_seconds,
                "slack_seconds": self.path.slack_seconds,
                "length_s": self.path.length,
                "by_phase": {p.value: s
                             for p, s in self.path.by_phase().items()},
                "by_resource": self.path.by_resource(),
                "dominant_phase": (self.path.dominant_phase().value
                                   if self.path.dominant_phase() else None),
            },
        }
        if self.spans is not None:
            out["spans"] = self.spans
        if self.metrics is not None:
            out["metrics"] = self.metrics
        if self.phys is not None:
            out["phys"] = self.phys
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def table(self) -> str:
        """Human-readable report: breakdown + resources + critical path
        (+ span tree when recorded)."""
        parts = [self.breakdown.table(title=f"== {self.name} =="), ""]
        parts.append("busy seconds by resource:")
        for res, secs in sorted(self.resources.items(),
                                key=lambda kv: -kv[1]):
            parts.append(f"  {res:<16}{secs:>12.6f}")
        parts.append("")
        parts.append(self.path.table())
        queue_rows = (self.metrics or {}).get("level_queue_state", [])
        if queue_rows:
            parts.append("")
            parts.append("level-queue task states (node/level):")
            per_queue: dict[tuple[str, str], dict[str, int]] = {}
            for row in queue_rows:
                labels = row.get("labels", {})
                key = (labels.get("node", "?"), labels.get("level", "?"))
                per_queue.setdefault(key, {})[labels.get("state", "?")] = \
                    int(row.get("value", 0))
            for (node, level), states in sorted(per_queue.items()):
                counts = " ".join(f"{s}={c}" for s, c in states.items())
                parts.append(f"  node {node} L{level}: {counts}")
        fates: dict[str, int] = {}
        for row in (self.metrics or {}).get("readahead_windows", []):
            outcome = row.get("labels", {}).get("outcome", "?")
            fates[outcome] = fates.get(outcome, 0) + int(row.get("value", 0))
        if fates.get("advised"):
            def total(name: str) -> float:
                return sum(row.get("value", 0)
                           for row in self.metrics.get(name, []))
            rest = ", ".join(f"{n} {fate}" for fate, n in fates.items()
                             if fate != "advised")
            parts.append("")
            parts.append(
                f"read-ahead: {fates['advised']} windows advised: {rest}; "
                f"{total('readahead_bytes') / 1e6:.1f} MB served, "
                f"coordinator waited "
                f"{total('readahead_wait_seconds') * 1e3:.3f} ms")
        bands: dict[str, int] = {}
        for row in (self.metrics or {}).get("write_bands", []):
            outcome = row["labels"]["outcome"]
            bands[outcome] = bands.get(outcome, 0) + int(row["value"])
        if any(bands.values()):
            parts += ["", f"write bands: {bands['whole']} whole, "
                          f"{bands['merged']} merged"]
        waits = (self.metrics or {}).get("exec_budget_waits", [])
        if waits and waits[0]["value"]:
            parts += ["", f"budget waits: {int(waits[0]['value'])} stagings "
                          f"waited for acks to free in-flight bytes"]
        if self.phys is not None:
            parts.append("")
            parts.append(f"physical workers ({self.phys['backend']}, "
                         f"{self.phys['tasks']} tasks, busy skew "
                         f"{self.phys['busy_skew']:.2f}x):")
            for w, st in sorted(self.phys["workers"].items()):
                flag = "  <- straggler" \
                    if w in self.phys["stragglers"] else ""
                parts.append(
                    f"  {w:<6} {st['tasks']:>4} tasks  "
                    f"{st['busy_s'] * 1e3:>9.3f} ms busy  "
                    f"util {st['utilization'] * 100:>5.1f}%{flag}")
        if self.spans is not None:
            parts.append("")
            parts.append(f"span tree ({self.spans['count']} spans, "
                         f"{self.spans['unattributed_intervals']} intervals "
                         f"unattributed):")
            parts.append(self.spans["tree"])
            if self.spans["top_path_spans"]:
                parts.append("top spans on the critical path:")
                for row in self.spans["top_path_spans"]:
                    name = row["kind"] + (f":{row['label']}"
                                          if row["label"] else "")
                    parts.append(
                        f"  #{row['span']:<5} {name:<28} "
                        f"{row['path_seconds'] * 1e3:>9.3f} ms on path, "
                        f"{row['self_seconds'] * 1e3:>9.3f} ms self")
        return "\n".join(parts)


# -- capture mode (the CI observability jobs) --------------------------------

def _capture_one(outdir: str, name: str, make_app, workers: int) -> dict:
    from repro.core.system import System
    from repro.dist import DistributedScheduler
    from repro.exec.base import make_executor
    from repro.memory.units import KB, MB
    from repro.tools.trace_export import write_chrome_trace
    from repro.topology.builders import apu_two_level

    executor = make_executor("dist", workers, telemetry=True) if workers \
        else make_executor("inline")
    with executor, System(apu_two_level(storage_capacity=8 * MB,
                                        staging_bytes=128 * KB),
                          executor=executor) as system:
        make_app(system).run(system, scheduler=DistributedScheduler()
                             if workers else None)
        report = RunReport.from_system(system, name=name)
        report.save(f"{outdir}/report_{name}.json")
        merger = executor.telemetry.merger() if workers else None
        events = write_chrome_trace(system.timeline.trace,
                                    f"{outdir}/trace_{name}.json",
                                    spans=system.obs, phys=merger)
        with open(f"{outdir}/metrics_{name}.prom", "w") as fh:
            fh.write(system.metrics.to_prometheus())
        row = {"name": name, "events": events,
               "makespan_s": report.breakdown.makespan,
               "spans": report.spans["count"] if report.spans else 0}
        if merger is not None:
            row["worker_lanes"] = sum(
                1 for w in (report.phys or {}).get("workers", ())
                if w.startswith("w"))
            row["kernel_spans"] = sum(
                1 for r in merger.records()
                if r.kind == "kernel" and r.span > 0)
        return row


def capture(outdir: str, *, workers: int = 0) -> list[dict]:
    """Run small instrumented GEMM + HotSpot passes; write RunReport
    JSON, Perfetto trace and Prometheus metrics artifacts to ``outdir``.

    ``workers > 0`` runs each pass on that many telemetry-on
    distributed workers under the distributed scheduler: the report
    carries the physical summary (``phys``) and the trace the physical
    worker lanes, and each row counts its worker lanes and
    span-attributed kernel slices."""
    import os

    from repro.apps import GemmApp
    from repro.apps.hotspot import HotspotApp

    os.makedirs(outdir, exist_ok=True)
    return [
        _capture_one(outdir, "gemm",
                     lambda s: GemmApp(s, m=96, k=96, n=96, seed=2),
                     workers),
        _capture_one(outdir, "hotspot",
                     lambda s: HotspotApp(s, n=128, iterations=2,
                                          steps_per_pass=1, force_tile=64,
                                          seed=1),
                     workers),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Report on an exported Chrome trace, or capture "
                    "instrumented demo runs.")
    parser.add_argument("trace", nargs="?", metavar="TRACE.json",
                        help="Chrome-trace JSON written by "
                             "write_chrome_trace")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON artifact instead of the table")
    parser.add_argument("--name", default="run", help="report title")
    parser.add_argument("--capture", metavar="DIR",
                        help="run instrumented GEMM+HotSpot demos and "
                             "write report/trace/metrics artifacts to DIR")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="with --capture: run the demos on N "
                             "telemetry-on distributed workers and merge "
                             "their physical lanes into each trace")
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0")

    if args.capture:
        missing = []
        for row in capture(args.capture, workers=args.workers):
            line = (f"captured {row['name']}: {row['events']} events, "
                    f"{row['spans']} spans, "
                    f"makespan {row['makespan_s'] * 1e3:.3f} ms")
            if args.workers:
                line += (f", {row['worker_lanes']} worker lanes, "
                         f"{row['kernel_spans']} span-attributed kernel "
                         f"slices")
                if row["worker_lanes"] < 1 or row["kernel_spans"] < 1:
                    missing.append(row["name"])
            print(line)
        if missing:
            print(f"ERROR: merged trace of {', '.join(missing)} is missing "
                  f"worker lanes or span attribution", file=sys.stderr)
            return 1
        return 0
    if not args.trace:
        parser.print_help()
        return 2
    from repro.tools.trace_export import read_chrome_trace
    try:
        trace = read_chrome_trace(args.trace)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    report = RunReport.from_trace(trace, name=args.name)
    print(report.to_json() if args.json else report.table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
