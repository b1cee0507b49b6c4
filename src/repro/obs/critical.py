"""Critical-path extraction over a recorded trace.

The makespan of a Northup run is set by one chain of intervals: the
last-finishing interval, the interval whose completion allowed it to
start, and so on back to virtual time zero.  :func:`critical_path`
recovers that chain from the flat trace by walking backwards -- from
the interval that ends at the makespan, repeatedly to the latest-ending
interval that finished before the current one started.  Gaps between a
step and its predecessor are reported as *slack*: virtual time in which
the critical chain was waiting on nothing recorded (scheduling gaps,
resource contention windows).

On a serial run every interval abuts the next, so the chain's busy
seconds plus zero slack equal the makespan exactly -- the acceptance
check in the test suite.  On pipelined runs the chain names the
bottleneck: compute-bound configurations yield chains dominated by
``gpu_compute``, bandwidth-starved ones by the slow edge's transfer
phase.

When spans were recorded (:mod:`repro.obs.spans`), each step carries
its causal span id, and :meth:`CriticalPath.top_spans` ranks spans by
their time on the path -- the "top-5 spans to shrink" view.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.trace import Phase, Trace

#: Predecessor tolerance: an interval ending within EPS after the
#: current start still counts as "finished before" (float rounding in
#: long charge chains).
_EPS = 1e-12


@dataclass(frozen=True)
class PathStep:
    """One interval on the critical chain (earliest step first)."""

    start: float
    end: float
    phase: Phase
    resource: str
    label: str
    nbytes: int
    span_id: int
    #: Virtual gap between this step's end and the next step's start
    #: (0.0 for the last step and for perfectly abutting chains).
    slack_after: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class CriticalPath:
    """The longest-ending dependency chain of one trace."""

    def __init__(self, steps: list[PathStep], makespan: float) -> None:
        self.steps = steps
        self.makespan = makespan

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    @property
    def busy_seconds(self) -> float:
        return sum(s.duration for s in self.steps)

    @property
    def slack_seconds(self) -> float:
        return sum(s.slack_after for s in self.steps)

    @property
    def length(self) -> float:
        """Total virtual extent of the chain (busy + slack).  Equals the
        makespan whenever the trace starts at virtual time zero."""
        if not self.steps:
            return 0.0
        return self.steps[-1].end - self.steps[0].start

    def by_phase(self) -> dict[Phase, float]:
        """Busy seconds on the path per phase, largest first."""
        out: dict[Phase, float] = {}
        for s in self.steps:
            out[s.phase] = out.get(s.phase, 0.0) + s.duration
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def by_resource(self) -> dict[str, float]:
        """Busy seconds on the path per resource, largest first."""
        out: dict[str, float] = {}
        for s in self.steps:
            out[s.resource] = out.get(s.resource, 0.0) + s.duration
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def dominant_phase(self) -> Phase | None:
        bp = self.by_phase()
        return next(iter(bp)) if bp else None

    def by_span(self) -> dict[int, float]:
        """Busy seconds on the path per causal span id (0 = no span)."""
        out: dict[int, float] = {}
        for s in self.steps:
            out[s.span_id] = out.get(s.span_id, 0.0) + s.duration
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def top_spans(self, n: int = 5) -> list[tuple[int, float]]:
        """The ``n`` spans contributing the most path time -- the spans
        to shrink first.  Excludes unattributed time (span id 0)."""
        return [(sid, secs) for sid, secs in self.by_span().items()
                if sid != 0][:n]

    def table(self, max_steps: int = 20) -> str:
        """Human-readable rendering, latest step first."""
        if not self.steps:
            return "(empty trace: no critical path)"
        lines = [
            f"critical path: {len(self.steps)} steps, "
            f"busy {self.busy_seconds * 1e3:.3f} ms + "
            f"slack {self.slack_seconds * 1e3:.3f} ms "
            f"over makespan {self.makespan * 1e3:.3f} ms",
            f"{'start(ms)':>11} {'dur(ms)':>9} {'slack(ms)':>9} "
            f"{'phase':<12} {'resource':<14} label",
        ]
        shown = list(reversed(self.steps))[:max_steps]
        for s in shown:
            lines.append(
                f"{s.start * 1e3:>11.4f} {s.duration * 1e3:>9.4f} "
                f"{s.slack_after * 1e3:>9.4f} {s.phase.value:<12} "
                f"{s.resource:<14} {s.label}")
        if len(self.steps) > max_steps:
            lines.append(f"... {len(self.steps) - max_steps} earlier steps")
        phases = ", ".join(f"{p.value}={secs * 1e3:.3f}ms"
                           for p, secs in self.by_phase().items())
        lines.append(f"path time by phase: {phases}")
        return "\n".join(lines)


def critical_path(trace: Trace) -> CriticalPath:
    """Extract the critical chain of ``trace``.

    Backward greedy walk: start from the interval that realises the
    makespan; at each step, the predecessor is the latest-*ending*
    interval that ended at or before the current step's start (within
    :data:`_EPS`).  Among ties on end time the earliest-recorded
    interval wins, keeping the extraction deterministic.  The walk
    scans an end-sorted index once in total (each candidate position is
    visited at most once across all steps), so extraction is
    O(n log n) in trace size.
    """
    n = len(trace)
    if n == 0:
        return CriticalPath([], 0.0)
    rows = list(trace.span_rows())
    # Indices sorted by (end, record order): the scan cursor only moves
    # left, guaranteeing termination and linear total work.
    order = sorted(range(n), key=lambda i: (rows[i][1], i))
    makespan = trace.makespan()
    pos = n - 1  # order[pos] = latest-ending interval
    cur = order[pos]
    chain = [cur]
    while True:
        cur_start = rows[cur][0]
        # Move the cursor to the latest-ending interval that finished
        # by cur_start; skip the current interval itself.
        while pos >= 0 and (order[pos] == cur
                            or rows[order[pos]][1] > cur_start + _EPS):
            pos -= 1
        if pos < 0:
            break
        cur = order[pos]
        chain.append(cur)
    chain.reverse()
    steps: list[PathStep] = []
    for k, idx in enumerate(chain):
        start, end, phase, resource, label, nbytes, sid = rows[idx]
        if k + 1 < len(chain):
            slack = max(0.0, rows[chain[k + 1]][0] - end)
        else:
            slack = 0.0
        steps.append(PathStep(start, end, phase, resource, label,
                              nbytes, sid, slack))
    return CriticalPath(steps, makespan)

