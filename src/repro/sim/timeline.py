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
itself on the critical path of large runs.  :class:`_Slot` now keeps
parallel ``starts``/``ends`` arrays plus two accelerators that preserve
**bit-identical placements** with respect to that linear scan:

* an O(1) append fast path for the dominant ``ready >= free_at`` case;
* a bisect that skips every booking ending at or before ``ready``
  (placements provably unchanged -- such bookings can neither move the
  scan's candidate nor change its early-return value);
* a *packed-prefix gap cursor*: the index below which consecutive
  bookings touch exactly (``starts[j] <= ends[j-1]``).  A gapless
  prefix cannot host any operation longer than the scheduling epsilon,
  so the scan may jump straight past it.

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
    an append fast path and a packed-prefix gap cursor."""

    __slots__ = ("starts", "ends", "_packed")

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: Bookings ``[0, _packed)`` are gapless: ``starts[j] <=
        #: ends[j-1]`` for every ``1 <= j < _packed``.  Nothing longer
        #: than ``_EPS`` fits between them, so gap searches skip the
        #: whole prefix.
        self._packed = 0

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
        candidate = ready
        packed = self._packed
        if duration > _EPS and packed > i:
            # Inside a gapless prefix only the gap *before* the first
            # booking can fit anything longer than the epsilon.
            if i == 0 and candidate + duration <= starts[0] + _EPS:
                return candidate
            i = packed
            prev_end = ends[packed - 1]
            if prev_end > candidate:
                candidate = prev_end
        for j in range(i, n):
            if candidate + duration <= starts[j] + _EPS:
                return candidate
            e = ends[j]
            if e > candidate:
                candidate = e
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
            if self._packed == n and (n == 0 or start <= ends[n - 1]):
                self._packed = n + 1
        else:
            starts.insert(lo, start)
            ends.insert(lo, end)
            # A backfill insert may break or (by filling a gap) extend
            # the packed prefix: truncate to the insert point, then
            # re-extend while consecutive bookings touch.
            packed = min(self._packed, lo)
            total = n + 1
            while packed < total and (packed == 0
                                      or starts[packed] <= ends[packed - 1]):
                packed += 1
            self._packed = packed

    @property
    def booked(self) -> int:
        return len(self.starts)

    @property
    def free_at(self) -> float:
        return self.ends[-1] if self.ends else 0.0


class Resource:
    """A virtual resource with one or more identical slots.

    Parameters
    ----------
    name:
        Unique human-readable identifier; appears in trace intervals.
    slots:
        Operations the resource can run concurrently.  Most resources
        are ``slots=1``; a multi-queue device may use more.
    slot_cls:
        Slot implementation; defaults to the indexed :class:`_Slot`.
        The equivalence suite passes the retained naive reference.
    """

    __slots__ = ("name", "slots", "_slots", "_slot_cls")

    def __init__(self, name: str, slots: int = 1, *,
                 slot_cls: type = _Slot) -> None:
        if slots < 1:
            raise SimulationError(f"resource {name!r} needs >= 1 slot, got {slots}")
        self.name = name
        self.slots = slots
        self._slot_cls = slot_cls
        self._slots = [slot_cls() for _ in range(slots)]

    def earliest_start(self, ready: float, duration: float = 0.0) -> float:
        """Earliest time an operation ready at ``ready`` could begin."""
        slots = self._slots
        if len(slots) == 1:
            return slots[0].earliest_gap(ready, duration)
        return min(s.earliest_gap(ready, duration) for s in slots)

    def reserve(self, ready: float, duration: float) -> float:
        """Book the earliest feasible interval; returns its start."""
        if duration < 0:
            raise SimulationError(f"negative duration {duration} on {self.name!r}")
        slots = self._slots
        if len(slots) == 1:
            best_slot = slots[0]
            start = best_slot.earliest_gap(ready, duration)
        else:
            # First slot with the minimal start wins (matches min()'s
            # first-minimum tie-break on the naive path).
            best_slot, start = slots[0], slots[0].earliest_gap(ready, duration)
            for s in slots[1:]:
                cand = s.earliest_gap(ready, duration)
                if cand < start:
                    best_slot, start = s, cand
        best_slot.occupy(start, duration)
        return start

    def occupy_at(self, start: float, duration: float) -> None:
        """Book a specific interval (used by multi-resource operations
        after a common start has been negotiated)."""
        if duration < 0:
            raise SimulationError(f"negative duration {duration} on {self.name!r}")
        for slot in self._slots:
            if slot.earliest_gap(start, duration) <= start + _EPS:
                slot.occupy(start, duration)
                return
        raise SimulationError(
            f"resource {self.name!r} has no free slot at t={start}")

    @property
    def booked(self) -> int:
        """Total bookings across all slots (charge_path's pass bound)."""
        return sum(s.booked for s in self._slots)

    @property
    def free_at(self) -> float:
        """Time at which at least one slot has no further bookings."""
        return min(s.free_at for s in self._slots)

    def reset(self) -> None:
        self._slots = [self._slot_cls() for _ in range(self.slots)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource({self.name!r}, slots={self.slots}, free_at={self.free_at})"


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

    def resource(self, name: str, slots: int | None = None) -> Resource:
        """Fetch (creating on first use) the resource called ``name``.

        ``slots`` may be omitted to fetch whatever is registered (new
        resources default to one slot).  Passing a ``slots`` count that
        conflicts with an existing registration raises
        :class:`~repro.errors.SimulationError` -- silently returning a
        resource with a different concurrency would corrupt schedules.
        """
        res = self._resources.get(name)
        if res is None:
            res = Resource(name, 1 if slots is None else slots,
                           slot_cls=self.slot_cls)
            self._resources[name] = res
        elif slots is not None and slots != res.slots:
            raise SimulationError(
                f"resource {name!r} already registered with "
                f"{res.slots} slot(s); conflicting re-registration "
                f"with slots={slots}")
        return res

    def has_resource(self, name: str) -> bool:
        return name in self._resources

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

    def charge_path(self, resources: Sequence[str | Resource], duration: float,
                    phase: Phase, *, ready: float = 0.0, label: str = "",
                    nbytes: int = 0) -> Completion:
        """Charge one operation that occupies several resources at once.

        Used for transfers that hold both endpoints (e.g. a DMA from the
        SSD into DRAM holds the SSD read channel and the memory bus).
        The start time is negotiated so every resource has a free slot
        for the full duration.
        """
        resolved = self._resolve_path(resources)
        if duration < 0:
            raise SimulationError(
                f"negative duration {duration} on path "
                f"[{', '.join(r.name for r in resolved)}]")
        if self.floor > ready:
            ready = self.floor
        start = self._negotiate(resolved, duration, ready)
        for res in resolved:
            res.occupy_at(start, duration)
        end = start + duration
        self.trace.record_raw(start, end, phase,
                              "+".join(r.name for r in resolved),
                              label, nbytes)
        return Completion(start=start, end=end)

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
        record = self.trace.record_raw
        floor = self.floor
        out = []
        for op in ops:
            k = len(op)
            duration, ready = op[0], op[1]
            if floor > ready:
                ready = floor
            if duration < 0:
                raise SimulationError(
                    f"negative duration {duration} on path [{joined}]")
            op_label = op[2] if k > 2 else label
            op_nbytes = op[3] if k > 3 else nbytes
            start = self._negotiate(resolved, duration, ready)
            for res in resolved:
                res.occupy_at(start, duration)
            end = start + duration
            record(start, end, phase, joined, op_label, op_nbytes)
            out.append(Completion(start=start, end=end))
        return out

    def makespan(self) -> float:
        return self.trace.makespan()

    def reset(self) -> None:
        """Clear the trace and free every resource (between experiments)."""
        self.trace.clear()
        self.floor = 0.0
        for res in self._resources.values():
            res.reset()
