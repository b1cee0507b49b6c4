"""Typed execution traces, stored columnar.

Every timed operation in the framework records an :class:`Interval` tagged
with a :class:`Phase`.  The profiler (:mod:`repro.core.profiler`) folds a
trace into the per-category breakdowns reported in Figures 7 and 8 of the
paper (CPU compute, GPU compute, buffer setup, transfers and I/O).

Storage layout
--------------
Intervals are kept as parallel primitive arrays (one Python list per
column) with running aggregates maintained on append:

* per-phase and per-resource busy seconds,
* per-phase moved bytes,
* the running makespan.

Aggregation queries (:meth:`Trace.by_phase`, :meth:`Trace.by_resource`,
:meth:`Trace.bytes_by_phase`, :meth:`Trace.makespan`) therefore cost O(1)
or O(#distinct keys) instead of a full re-scan -- the framework's own
bookkeeping must stay off the critical path as traces grow to millions
of intervals (the paper's Section V-B budget: runtime overhead < 1%).

Every running sum accumulates in trace order with the same float
operations the old scanning implementation performed, so aggregate
values are bit-identical to a re-scan.

The iteration API is preserved: ``for iv in trace`` and
``trace.intervals`` materialize :class:`Interval` objects lazily (and
cache them), so the profiler, gantt renderer and trace exporters keep
working unchanged.  Hot consumers that only need the raw columns use
:meth:`Trace.rows` and never pay for materialization.

Span attribution
----------------
Every interval additionally carries the id of the *causal span* that was
open when it was recorded (:mod:`repro.obs.spans`): the trace keeps an
:attr:`Trace.active_span` integer that the span tracker maintains and
``record_raw`` snapshots per append.  Id 0 means "no span" -- the value
the column holds for systems running with observability off, so the hot
path never branches on whether tracing is enabled.  :meth:`Trace.rows`
keeps its historical 6-tuple shape; span-aware consumers use
:meth:`Trace.span_rows`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator


class Phase(enum.Enum):
    """Execution-time category of a traced interval.

    The categories mirror the paper's breakdown plots: CPU and GPU
    execution, buffer setup, and data transfers split into file I/O
    (storage <-> host memory) and device transfers (host <-> accelerator,
    the paper's "OpenCL transfers").  ``RUNTIME`` accounts the framework's
    own bookkeeping (tree lookups, task control), which Section V-B
    reports to be under 1% of total execution time.  ``CACHE`` accounts
    buffer-cache bookkeeping: a cache hit costs a ``CACHE`` interval
    instead of a transfer, which is the whole point of the cache.
    """

    CPU_COMPUTE = "cpu_compute"
    GPU_COMPUTE = "gpu_compute"
    SETUP = "setup"
    IO_READ = "io_read"
    IO_WRITE = "io_write"
    DEV_TRANSFER = "dev_transfer"
    MEM_COPY = "mem_copy"
    RUNTIME = "runtime"
    CACHE = "cache"

    # Members are singletons compared by identity: the C-level identity
    # hash replaces Enum's Python-level one on the per-interval path.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Interval:
    """One timed operation.

    Attributes
    ----------
    start, end:
        Virtual-time endpoints in seconds (``end >= start``).
    phase:
        Category of the operation.
    resource:
        Name of the hardware resource the operation occupied.
    label:
        Free-form annotation (kernel name, buffer id, ...).
    nbytes:
        Bytes moved, for transfer phases (0 for compute).
    span_id:
        Id of the causal span that was open when the interval was
        recorded (0 when no span was open / observability is off).
    """

    start: float
    end: float
    phase: Phase
    resource: str
    label: str = ""
    nbytes: int = 0
    span_id: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """Append-only columnar store of intervals with O(1) aggregation."""

    __slots__ = ("_starts", "_ends", "_phases", "_resources", "_labels",
                 "_nbytes", "_span_ids", "active_span", "_materialized",
                 "_max_end", "_busy_by_phase",
                 "_busy_by_resource", "_bytes_by_phase")

    def __init__(self, intervals: Iterable[Interval] | None = None) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._phases: list[Phase] = []
        self._resources: list[str] = []
        self._labels: list[str] = []
        self._nbytes: list[int] = []
        self._span_ids: list[int] = []
        #: Causal-span id stamped onto each appended interval; maintained
        #: by the span tracker, 0 when no span is open.
        self.active_span: int = 0
        #: Cached Interval objects; None until first materialization,
        #: kept in sync by record() afterwards.
        self._materialized: list[Interval] | None = None
        self._max_end = 0.0
        self._busy_by_phase: dict[Phase, float] = {}
        self._busy_by_resource: dict[str, float] = {}
        #: Only phases that moved a nonzero byte count appear here (the
        #: key set the breakdown reports expose).
        self._bytes_by_phase: dict[Phase, int] = {}
        if intervals is not None:
            for iv in intervals:
                self.record(iv)

    # -- recording ------------------------------------------------------

    def record(self, interval: Interval) -> None:
        if interval.end < interval.start:
            raise ValueError(
                f"interval ends before it starts: {interval}"
            )
        # An explicitly tagged interval keeps its span; an untagged one
        # is attributed to whatever span is currently open.
        self.record_raw(interval.start, interval.end, interval.phase,
                        interval.resource, interval.label, interval.nbytes,
                        span_id=interval.span_id or None)

    def record_raw(self, start: float, end: float, phase: Phase,
                   resource: str, label: str = "", nbytes: int = 0,
                   span_id: int | None = None) -> None:
        """Append one interval without allocating an :class:`Interval`.

        The hot path for :class:`~repro.sim.timeline.Timeline`: column
        appends plus running-aggregate updates.  The caller guarantees
        ``end >= start`` (the timeline computes ``end = start +
        duration`` with a validated non-negative duration).
        ``span_id=None`` (the default) attributes the interval to the
        currently open causal span.
        """
        self._starts.append(start)
        self._ends.append(end)
        self._phases.append(phase)
        self._resources.append(resource)
        self._labels.append(label)
        self._nbytes.append(nbytes)
        self._span_ids.append(self.active_span if span_id is None else span_id)
        self._materialized = None
        duration = end - start
        if end > self._max_end:
            self._max_end = end
        bp = self._busy_by_phase
        bp[phase] = bp.get(phase, 0.0) + duration
        br = self._busy_by_resource
        br[resource] = br.get(resource, 0.0) + duration
        if nbytes:
            bb = self._bytes_by_phase
            bb[phase] = bb.get(phase, 0) + nbytes

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    @property
    def intervals(self) -> list[Interval]:
        """The trace as :class:`Interval` objects (lazily materialized,
        cached until the next raw append)."""
        if self._materialized is None:
            self._materialized = [
                Interval(start=s, end=e, phase=p, resource=r, label=lb,
                         nbytes=nb, span_id=sp)
                for s, e, p, r, lb, nb, sp in zip(
                    self._starts, self._ends, self._phases, self._resources,
                    self._labels, self._nbytes, self._span_ids)
            ]
        return self._materialized

    def rows(self) -> Iterator[tuple[float, float, Phase, str, str, int]]:
        """Iterate raw ``(start, end, phase, resource, label, nbytes)``
        tuples without materializing :class:`Interval` objects."""
        return zip(self._starts, self._ends, self._phases, self._resources,
                   self._labels, self._nbytes)

    def span_rows(self) -> Iterator[
            tuple[float, float, Phase, str, str, int, int]]:
        """Like :meth:`rows` with the causal-span id appended:
        ``(start, end, phase, resource, label, nbytes, span_id)``."""
        return zip(self._starts, self._ends, self._phases, self._resources,
                   self._labels, self._nbytes, self._span_ids)

    def window_rows(self, lo: int, hi: int) -> Iterator[
            tuple[float, float, Phase, str, str, int, int]]:
        """:meth:`span_rows` restricted to interval indexes ``[lo, hi)``
        (how the serve layer extracts one job's intervals from the
        shared trace)."""
        return zip(self._starts[lo:hi], self._ends[lo:hi],
                   self._phases[lo:hi], self._resources[lo:hi],
                   self._labels[lo:hi], self._nbytes[lo:hi],
                   self._span_ids[lo:hi])

    # -- aggregation ----------------------------------------------------

    def by_phase(self) -> dict[Phase, float]:
        """Busy time per phase for every phase present in the trace."""
        return dict(self._busy_by_phase)

    def by_resource(self) -> dict[str, float]:
        """Busy time per resource for every resource in the trace."""
        return dict(self._busy_by_resource)

    def bytes_by_phase(self) -> dict[Phase, int]:
        """Moved bytes per phase (phases with a nonzero total only)."""
        return dict(self._bytes_by_phase)

    def makespan(self) -> float:
        """End of the last interval (0.0 for an empty trace)."""
        return self._max_end

    def window_max_end(self, lo: int, hi: int) -> float:
        """Latest end among intervals ``[lo, hi)`` (0.0 when empty).

        The serve layer records which index windows of the shared trace
        each job's grants appended, so a job's completion time is the
        max end over its own windows -- not the global makespan, which
        other jobs keep extending.
        """
        ends = self._ends[lo:hi]
        return max(ends) if ends else 0.0

    def window_busy(self, lo: int, hi: int) -> float:
        """Total busy seconds of intervals ``[lo, hi)``."""
        return sum(e - s for s, e in zip(self._starts[lo:hi],
                                         self._ends[lo:hi]))

    def clear(self) -> None:
        self.__init__()
