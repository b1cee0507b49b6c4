"""Resource timelines: the structured half of the simulator.

A :class:`Resource` models one serially-occupied hardware unit -- a
storage device's read channel, the GPU's compute engine, a PCIe link.
Charging an operation places it at the earliest instant at which (a) the
resource has an idle gap long enough and (b) the operation's
dependencies (``ready``) have completed.

Scheduling is **backfill**: an operation charged later in program order
may slot into an earlier idle gap when its dependencies allow.  This is
how real I/O stacks behave (queued requests are reordered; the paper's
per-level task queues exist to schedule chunk movements "whenever the
space of lower memory levels is freed"), and it is what lets a prefetch
load overlap the previous chunk's kernel even though the program issues
the operations sequentially.  Causality is preserved by the dependency
times threaded through buffer handles, not by issue order.

This is a "task graph over timelines" formulation rather than a
process-based discrete-event simulation; it is deterministic and
sufficient for every structured experiment (Figures 6-9).  The dynamic
work-stealing study (Figure 11) uses list scheduling over work queues
(:mod:`repro.core.stealing`).

Indexed scheduling
------------------
The original slot kept a sorted interval list and ran a linear gap scan
per charge -- quadratic as bookings accumulate, which put the framework
itself on the critical path of large runs.  :class:`_Slot` keeps
parallel ``starts``/``ends`` arrays plus three accelerators that preserve
**bit-identical placements** with respect to that linear scan:

* an O(1) append fast path for the dominant ``ready >= free_at`` case;
* a bisect that skips every booking ending at or before ``ready``
  (placements provably unchanged -- such bookings can neither move the
  scan's candidate nor change its early-return value);
* a *remembered tight run*: what the last scan to get through proved,
  "no gap between bookings ``lo..hi`` admits a request of ``d`` or
  longer".  A later request at least that long steps over the run: the
  scan's comparison is monotone in the duration, so the step cannot
  change a placement, and an insert only replaces a gap by two shorter
  ones, so the run survives backfill (it shifts or grows by one).  A
  scan that walks on past the run extends it, so a dense host lane and
  a saturated channel whose gaps are all too short both cost O(1) per
  charge (DESIGN.md, "Indexed scheduling", has the argument in full).

The naive reference implementation is retained verbatim in
``tests/reference/naive_slot.py``; the tier-1 equivalence suite replays
randomized workloads through both and asserts identical placements.

Observability
-------------
Charging never interacts with spans directly: every ``record_raw`` the
timeline performs snapshots :attr:`repro.sim.trace.Trace.active_span`,
which the span tracker (:mod:`repro.obs.spans`) maintains.  Placement
and duration are therefore bit-identical whether observability is on,
off, or absent -- spans are pure metadata and charge nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import SimulationError
from repro.sim.trace import Phase, Trace

#: Gaps shorter than this are not worth modelling (scheduling epsilon).
_EPS = 1e-12


class _Slot:
    """One serially-occupied lane: sorted ``starts``/``ends`` arrays with
    an append fast path and a remembered run of tight gaps."""

    __slots__ = ("starts", "ends", "_tight")

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: ``(d, lo, hi, end)``: what a gap search proved and inserts
        #: cannot undo.  A search for ``d`` or longer that reaches
        #: booking ``lo`` is refused by every gap up to booking ``hi``
        #: and steps over them to ``end``, their latest end.  Starts
        #: as the empty run.
        self._tight = (float("inf"), 0, 0, 0.0)

    def earliest_gap(self, ready: float, duration: float) -> float:
        """Earliest start >= ready with ``duration`` of idle time.

        Result is bit-identical to the naive linear scan the
        equivalence suite keeps as its oracle.
        """
        ends = self.ends
        n = len(ends)
        if n == 0 or ready >= ends[-1]:
            # Append fast path: every booking ends at or before ready.
            return ready
        starts = self.starts
        # Bookings with end <= ready never move the candidate and any
        # early return they could take yields `ready`, which the first
        # surviving booking's check reproduces (starts are sorted).
        i = bisect_right(ends, ready)
        if ready + duration <= starts[i] + _EPS:
            return ready
        # From here the candidate is the end of the booking before the
        # gap under test: a refusal says something about the gap alone.
        candidate = ends[i] if ends[i] > ready else ready
        d, lo, hi, run_end = kept = self._tight
        covered = hi - lo
        if duration < d or i > hi:
            # The remembered run is no help (it may admit something this
            # short, or lies behind us): scan from the empty run at `i`.
            d, lo, hi, run_end = duration, i, i, candidate
        tight = True    # every gap walked below refuses `d` as well
        for j in range(i + 1, lo + 1):
            limit = starts[j] + _EPS
            if candidate + duration <= limit:
                return candidate
            if candidate + d <= limit:
                tight = False
            e = ends[j]
            if e > candidate:
                candidate = e
        if run_end > candidate:
            candidate = run_end
        last = n - 1
        for j in range(hi + 1, n):
            limit = starts[j] + _EPS
            if candidate + duration <= limit:
                last = j - 1
                break
            if candidate + d <= limit:
                tight = False
            e = ends[j]
            if e > candidate:
                candidate = e
        # Gaps (lo, last] all refused `duration`, and `d` too if still
        # tight.  The longer run is kept (this one on a tie); a shorter
        # one takes its length off the run it could not use, so a run
        # nothing starts in any more fades instead of staying for good.
        lo = min(i, lo)
        if last - lo >= covered:
            self._tight = (d if tight else duration, lo, last, candidate)
        else:
            d, kept_lo, hi, run_end = kept
            self._tight = (d, kept_lo + last - lo, hi, run_end)
        return candidate

    def occupy(self, start: float, duration: float) -> None:
        """Insert ``[start, start + duration)``; the caller must have
        obtained ``start`` from :meth:`earliest_gap`."""
        end = start + duration
        starts, ends = self.starts, self.ends
        n = len(starts)
        lo = bisect_left(starts, start)
        if lo > 0 and ends[lo - 1] > start + _EPS:
            raise SimulationError("slot overlap: gap search bypassed")
        if lo < n and end > starts[lo] + _EPS:
            raise SimulationError("slot overlap: gap search bypassed")
        if lo == n:
            starts.append(start)
            ends.append(end)
        else:
            starts.insert(lo, start)
            ends.insert(lo, end)
            # A backfill insert only splits a gap in two shorter ones,
            # so the tight run survives: it shifts, or grows by one.
            d, run_lo, run_hi, run_end = self._tight
            if lo <= run_lo:
                self._tight = (d, run_lo + 1, run_hi + 1, run_end)
            elif lo <= run_hi:
                self._tight = (d, run_lo, run_hi + 1, max(run_end, end))

    @property
    def booked(self) -> int:
        return len(self.starts)

    @property
    def free_at(self) -> float:
        return self.ends[-1] if self.ends else 0.0


class Resource:
    """A virtual resource: one serially-occupied lane.

    Parameters
    ----------
    name:
        Unique human-readable identifier; appears in trace intervals.
    slot_cls:
        Lane implementation; defaults to the indexed :class:`_Slot`.
        The equivalence suite passes the retained naive reference.
    """

    __slots__ = ("name", "_slot", "_slot_cls")

    def __init__(self, name: str, *, slot_cls: type = _Slot) -> None:
        self.name = name
        self._slot_cls = slot_cls
        self._slot = slot_cls()

    def earliest_start(self, ready: float, duration: float = 0.0) -> float:
        """Earliest time an operation ready at ``ready`` could begin."""
        return self._slot.earliest_gap(ready, duration)

    def reserve(self, ready: float, duration: float) -> float:
        """Book the earliest feasible interval; returns its start."""
        if duration < 0:
            raise SimulationError(f"negative duration {duration} on {self.name!r}")
        slot = self._slot
        start = slot.earliest_gap(ready, duration)
        slot.occupy(start, duration)
        return start

    def occupy_at(self, start: float, duration: float) -> None:
        """Book a specific interval (used by multi-resource operations
        after a common start has been negotiated)."""
        if duration < 0:
            raise SimulationError(f"negative duration {duration} on {self.name!r}")
        slot = self._slot
        if slot.earliest_gap(start, duration) > start + _EPS:
            raise SimulationError(
                f"resource {self.name!r} is not free at t={start}")
        slot.occupy(start, duration)

    @property
    def booked(self) -> int:
        """Bookings on the lane (charge_path's pass bound)."""
        return self._slot.booked

    @property
    def free_at(self) -> float:
        """Time after which the lane has no further bookings."""
        return self._slot.free_at

    def reset(self) -> None:
        self._slot = self._slot_cls()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource({self.name!r}, free_at={self.free_at})"


@dataclass
class Completion:
    """Result of charging an operation: its virtual start/end times."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


#: A batched operation: ``(duration, ready)`` optionally followed by a
#: label and a byte count -- ``(duration, ready, label, nbytes)``.
BatchOp = Sequence


@dataclass
class Timeline:
    """Registry of resources plus the shared trace.

    The timeline is the single object the Northup runtime talks to when
    charging costs.  It owns the trace so that breakdown reporting sees
    every interval from every resource.

    ``slot_cls`` selects the slot implementation for every resource the
    timeline creates; the default is the indexed scheduler.  It is the
    seam through which the equivalence suite substitutes its
    linear-scan oracle slot.
    """

    trace: Trace = field(default_factory=Trace)
    _resources: dict[str, Resource] = field(default_factory=dict)
    slot_cls: type = _Slot
    #: Earliest instant any operation may start.  0.0 (the default) is
    #: a no-op; the serve layer raises it to a job's admission time so
    #: backfill cannot place a job's operations before the job existed.
    floor: float = 0.0

    def resource(self, name: str) -> Resource:
        """Fetch (creating on first use) the resource called ``name``."""
        res = self._resources.get(name)
        if res is None:
            res = Resource(name, slot_cls=self.slot_cls)
            self._resources[name] = res
        return res

    def charge(self, resource: str | Resource, duration: float,
               phase: Phase, *, ready: float = 0.0, label: str = "",
               nbytes: int = 0) -> Completion:
        """Charge ``duration`` seconds on ``resource``.

        The operation begins at the earliest feasible instant at or
        after ``ready`` (its dependency time); the interval is recorded
        in the trace.  Returns the :class:`Completion` so callers can
        thread dependency times through a pipeline.
        """
        res = resource if isinstance(resource, Resource) else self.resource(resource)
        if self.floor > ready:
            ready = self.floor
        start = res.reserve(ready, duration)
        end = start + duration
        self.trace.record_raw(start, end, phase, res.name, label, nbytes)
        return Completion(start=start, end=end)

    def charge_batch(self, resource: str | Resource, ops: Iterable[BatchOp],
                     phase: Phase, *, label: str = "",
                     nbytes: int = 0) -> list[Completion]:
        """Charge a whole sweep of operations on one resource in one
        call.

        ``ops`` yields ``(duration, ready)`` pairs, optionally extended
        to ``(duration, ready, label)`` or ``(duration, ready, label,
        nbytes)``; omitted fields fall back to the call-level defaults.
        Placements and trace order are exactly those of the equivalent
        sequence of :meth:`charge` calls -- the batch only removes the
        per-operation resolution and dispatch overhead (the paper's
        Section V-B bookkeeping budget).
        """
        res = resource if isinstance(resource, Resource) else self.resource(resource)
        reserve = res.reserve
        record = self.trace.record_raw
        name = res.name
        floor = self.floor
        out = []
        for op in ops:
            k = len(op)
            duration, ready = op[0], op[1]
            if floor > ready:
                ready = floor
            op_label = op[2] if k > 2 else label
            op_nbytes = op[3] if k > 3 else nbytes
            start = reserve(ready, duration)
            end = start + duration
            record(start, end, phase, name, op_label, op_nbytes)
            out.append(Completion(start=start, end=end))
        return out

    def _resolve_path(self, resources: Sequence[str | Resource]) -> list[Resource]:
        resolved = [r if isinstance(r, Resource) else self.resource(r)
                    for r in resources]
        if not resolved:
            raise SimulationError("charge_path needs at least one resource")
        return resolved

    def _negotiate(self, resolved: list[Resource], duration: float,
                   ready: float) -> float:
        """Find the earliest start every resource can host.

        The fixpoint is structurally convergent: each non-final pass
        pushes ``start`` strictly forward onto some member's booked
        interval end, and there are finitely many of those, so at most
        ``total bookings + 1`` passes can occur.  Exceeding the bound
        means a slot invariant broke; the error names the members and
        the time the negotiation was stuck at.
        """
        start = ready
        max_passes = 2 + sum(r.booked for r in resolved)
        passes = 0
        while True:
            proposed = start
            for res in resolved:
                proposed = max(proposed, res.earliest_start(proposed, duration))
            if proposed <= start + _EPS:
                return start
            start = proposed
            passes += 1
            if passes > max_passes:  # pragma: no cover - broken invariant
                raise SimulationError(
                    "charge_path failed to converge on "
                    f"[{', '.join(r.name for r in resolved)}]: "
                    f"{passes} passes (bound {max_passes}) for "
                    f"duration={duration} ready={ready}, stuck at t={start}")

    def _book_path(self, resolved: list[Resource], joined: str,
                   duration: float, ready: float, phase: Phase, label: str,
                   nbytes: int) -> Completion:
        """Negotiate, book and record one multi-resource operation."""
        if duration < 0:
            raise SimulationError(
                f"negative duration {duration} on path [{joined}]")
        if self.floor > ready:
            ready = self.floor
        start = self._negotiate(resolved, duration, ready)
        for res in resolved:
            res.occupy_at(start, duration)
        end = start + duration
        self.trace.record_raw(start, end, phase, joined, label, nbytes)
        return Completion(start=start, end=end)

    def charge_path(self, resources: Sequence[str | Resource], duration: float,
                    phase: Phase, *, ready: float = 0.0, label: str = "",
                    nbytes: int = 0) -> Completion:
        """Charge one operation that occupies several resources at once.

        Used for transfers that hold both endpoints (e.g. a DMA from the
        SSD into DRAM holds the SSD read channel and the memory bus).
        The start time is negotiated so every resource is free for the
        full duration.
        """
        resolved = self._resolve_path(resources)
        return self._book_path(resolved, "+".join(r.name for r in resolved),
                               duration, ready, phase, label, nbytes)

    def charge_path_batch(self, resources: Sequence[str | Resource],
                          ops: Iterable[BatchOp], phase: Phase, *,
                          label: str = "",
                          nbytes: int = 0) -> list[Completion]:
        """Charge a sweep of multi-resource operations over one fixed
        path in a single call.

        ``ops`` has the :meth:`charge_batch` shape.  The member
        resources are resolved once; each operation is then negotiated
        and booked in sequence, so placements and trace order match the
        equivalent loop of :meth:`charge_path` calls exactly.  This is
        the charging path of pipelined chunk sweeps
        (:meth:`repro.core.system.System.move_down_batch` and the cache
        prefetch engine): one Python round-trip per sweep instead of
        one per chunk.
        """
        resolved = self._resolve_path(resources)
        joined = "+".join(r.name for r in resolved)
        return [self._book_path(resolved, joined, op[0], op[1], phase,
                                op[2] if len(op) > 2 else label,
                                op[3] if len(op) > 3 else nbytes)
                for op in ops]

    def makespan(self) -> float:
        return self.trace.makespan()

    def reset(self) -> None:
        """Clear the trace and free every resource (between experiments)."""
        self.trace.clear()
        self.floor = 0.0
        for res in self._resources.values():
            res.reset()
