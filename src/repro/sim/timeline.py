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
:class:`_Slot` returns exactly what the linear gap scan kept in
``tests/reference/naive_slot.py`` returns: each booking stores its
*fit*, the longest request its gap admits by the scan's own comparison,
and blocks know their largest fit, so a search skips what cannot host
it, for any mix of durations (DESIGN.md, "Indexed scheduling").

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
from math import inf, nextafter
from operator import itemgetter
from typing import Iterable, Sequence

from repro.errors import SimulationError
from repro.sim.trace import Phase, Trace

#: Gaps shorter than this are not worth modelling (scheduling epsilon).
_EPS = 1e-12

#: A block of bookings splits in halves when it grows past this.
_BLOCK = 64

_last = itemgetter(-1)


def _fit(peak: float, start: float) -> float:
    """The largest float ``d`` with ``peak + d <= start + _EPS`` (sums
    round past it half a spacing up; the loops take a step at most)."""
    limit = start + _EPS
    d = (limit - peak) + (nextafter(limit, inf) - limit) / 2
    while peak + d > limit:
        d = nextafter(d, -inf)
    while peak + (up := nextafter(d, inf)) <= limit:
        d = up
    return d


class _Slot:
    """One serially-occupied lane: bookings sorted by start, in blocks,
    each with ``start``, ``end``, ``peak`` (latest end so far), ``fit``
    (:func:`_fit` of the peak before it and its start; ``-inf`` first)
    and ``suf`` (largest fit from it to its block's end).  ``tails[b]``:
    largest fit from block ``b`` up to the last block, which searches
    read themselves: an append raises ``tails`` only when it splits that
    block (O(blocks) on a growing-gap lane); ``free_at``: latest end."""

    __slots__ = ("starts", "ends", "peaks", "fits", "sufs", "tails",
                 "free_at", "booked")

    def __init__(self) -> None:
        self.starts, self.ends, self.peaks = [[]], [[]], [[]]
        self.fits, self.sufs = [[]], [[]]
        self.tails, self.free_at, self.booked = [-inf, -inf], -inf, 0

    def earliest_gap(self, ready: float, duration: float) -> float:
        """Earliest start >= ready with ``duration`` of idle time."""
        if ready >= self.free_at:
            return ready
        # Up to the first booking whose peak passes `ready`, the scan's
        # candidate is `ready`; a gap it finds there is found again at it.
        peaks = self.peaks
        b = 0 if ready < peaks[0][-1] else bisect_right(peaks, ready, 1,
                                                          key=_last)
        k = bisect_right(row := peaks[b], ready)
        if ready + duration <= self.starts[b][k] + _EPS:
            return ready
        # After it, booking j takes the peak of j - 1 iff its fit admits.
        j = k + 1
        sufs = self.sufs
        if j == len(row) or sufs[b][j] < duration:
            if self.tails[b + 1] < duration and (
                    b + 1 == len(sufs) or sufs[-1][0] < duration):
                return self.free_at
            b = next(c for c in range(b + 1, len(sufs))
                     if sufs[c][0] >= duration)
            row = peaks[b]
            j = 0
        fits = self.fits[b]
        while fits[j] < duration:
            j += 1
        return row[j - 1] if j else peaks[b - 1][-1]

    def occupy(self, start: float, duration: float) -> None:
        """Insert ``[start, start + duration)``; the caller must have
        obtained ``start`` from :meth:`earliest_gap`."""
        end = start + duration
        starts = self.starts
        b = len(starts) - 1
        row = starts[b]
        if row and start <= row[-1]:
            return self._insert(start, end)
        # Appended: only the suffix maxima its fit passes rise.
        ends = self.ends[b]
        if row and ends[-1] > start + _EPS:
            raise SimulationError("slot overlap: gap search bypassed")
        peak = self.free_at
        fit = _fit(peak, start) if row else -inf
        if end > peak:
            peak = self.free_at = end
        row.append(start)
        ends.append(end)
        self.peaks[b].append(peak)
        self.fits[b].append(fit)
        suf = self.sufs[b]
        suf.append(fit)
        self.booked += 1
        k = len(suf) - 1
        while k > 0 and suf[k - 1] < fit:
            k -= 1
            suf[k] = fit
        if len(row) > _BLOCK:
            self._split(b)

    def _insert(self, start: float, end: float) -> None:
        """Backfill a booking; re-derive the next fit, the one after each
        peak it lifts (only sub-``_EPS`` bookings lift any), then suffix
        maxima and tails backwards."""
        starts, peaks, fits = self.starts, self.peaks, self.fits
        b = bisect_left(starts, start, key=_last)
        k = bisect_left(row := starts[b], start)
        before = peak = -inf
        if k:
            before, peak = self.ends[b][k - 1], peaks[b][k - 1]
        elif b:
            before, peak = self.ends[b - 1][-1], peaks[b - 1][-1]
        if before > start + _EPS or end > row[k] + _EPS:
            raise SimulationError("slot overlap: gap search bypassed")
        fit = -inf if peak == -inf else _fit(peak, start)
        peak = max(peak, end)
        for rows, value in ((starts, start), (self.ends, end), (peaks, peak),
                            (fits, fit), (self.sufs, fit)):
            rows[b].insert(k, value)
        self.booked += 1
        self.free_at = max(self.free_at, end)
        c, j = b, k
        while j + 1 < len(starts[c]) or c + 1 < len(starts):
            c, j = (c, j + 1) if j + 1 < len(starts[c]) else (c + 1, 0)
            fits[c][j] = _fit(peak, starts[c][j])
            if peaks[c][j] >= peak:
                break
            peaks[c][j] = peak
        for x in range(c, b, -1):
            self._suffix(x, j)
            j = len(fits[x - 1]) - 1
        self._suffix(b, j, k)
        sufs, tails = self.sufs, self.tails
        c = min(c, len(sufs) - 2)       # the last block stays out of tails
        top = tails[c + 1]
        for x in range(c, -1, -1):
            top = max(top, sufs[x][0])
            if x < b and tails[x] == top:
                break
            tails[x] = top
        if len(row) > _BLOCK:
            self._split(b)

    def _split(self, b: int) -> None:
        h = len(self.starts[b]) // 2
        for rows in (self.starts, self.ends, self.peaks, self.fits, self.sufs):
            rows[b:b + 1] = [rows[b][:h], rows[b][h:]]
        self._suffix(b, h - 1)
        tails = self.tails
        if b + 2 < len(self.starts):
            tails.insert(b + 1, max(self.sufs[b + 1][0], tails[b + 1]))
            return
        # The last block split: its first half joins tails.
        tails.insert(b + 1, -inf)
        top = self.sufs[b][0]
        while b >= 0 and tails[b] < top:
            tails[b] = top
            b -= 1

    def _suffix(self, b: int, j: int, k: int = 0) -> None:
        """Block ``b``'s suffix maxima from ``j`` down (below ``k``, until
        one comes out as it was)."""
        row, suf = self.fits[b], self.sufs[b]
        top = suf[j + 1] if j + 1 < len(suf) else -inf
        for i in range(j, -1, -1):
            if row[i] > top:
                top = row[i]
            if i < k and suf[i] == top:
                return
            suf[i] = top


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

    def reset(self) -> None:
        self._slot = self._slot_cls()


@dataclass(slots=True)
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
    #: charge_path's memo: resources as given -> (resolved, name, distinct)
    _paths: dict = field(default_factory=dict, repr=False)

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
        if duration < 0:
            raise SimulationError(f"negative duration {duration} on {res.name!r}")
        if self.floor > ready:
            ready = self.floor
        slot = res._slot
        start = slot.earliest_gap(ready, duration)
        slot.occupy(start, duration)
        end = start + duration
        self.trace.record_raw(start, end, phase, res.name, label, nbytes)
        return Completion(start, end)

    def charge_batch(self, resource: str | Resource, ops: Iterable[BatchOp],
                     phase: Phase, *, label: str = "",
                     nbytes: int = 0) -> list[Completion]:
        """Charge a whole sweep of operations on one resource, resolved
        once.

        ``ops`` yields ``(duration, ready)`` pairs, optionally extended
        to ``(duration, ready, label)`` or ``(duration, ready, label,
        nbytes)``; omitted fields fall back to the call-level defaults.
        Placements and trace order are exactly those of the equivalent
        sequence of :meth:`charge` calls.
        """
        res = resource if isinstance(resource, Resource) else self.resource(resource)
        return [self.charge(res, op[0], phase, ready=op[1],
                            label=op[2] if len(op) > 2 else label,
                            nbytes=op[3] if len(op) > 3 else nbytes)
                for op in ops]

    def _negotiate(self, resolved: list[Resource], duration: float,
                   ready: float) -> tuple[float, bool]:
        """Find the earliest start every resource can host; also whether
        the last pass asked each member at that start itself and each
        answered it (then booking needs no second look).

        The fixpoint is structurally convergent: each non-final pass
        pushes ``start`` strictly forward onto some member's booked
        interval end, and there are finitely many of those, so at most
        ``total bookings + 1`` passes can occur.  Exceeding the bound
        means a slot invariant broke; the error names the members and
        the time the negotiation was stuck at.
        """
        start = ready
        passes = 0
        while True:
            proposed = start
            for res in resolved:
                at = res._slot.earliest_gap(proposed, duration)
                if at > proposed:
                    proposed = at
            if proposed <= start + _EPS:
                return start, proposed == start
            start = proposed
            passes += 1
            if passes <= 2:     # the bound is at least 2; sum it no sooner
                continue
            max_passes = 2 + sum(r._slot.booked for r in resolved)
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
        The start time is negotiated so every resource is free for the
        full duration.
        """
        key = tuple(resources)
        path = self._paths.get(key)
        if path is None:
            resolved = [r if isinstance(r, Resource) else self.resource(r)
                        for r in key]
            if not resolved:
                raise SimulationError("charge_path needs at least one resource")
            path = self._paths[key] = (
                resolved, "+".join(r.name for r in resolved),
                len(set(resolved)) == len(resolved))
        resolved, joined, distinct = path
        if duration < 0:
            raise SimulationError(
                f"negative duration {duration} on path [{joined}]")
        if self.floor > ready:
            ready = self.floor
        start, free = self._negotiate(resolved, duration, ready)
        free = free and distinct
        for res in resolved:
            slot = res._slot
            if not free and slot.earliest_gap(start, duration) > start + _EPS:
                raise SimulationError(
                    f"resource {res.name!r} is not free at t={start}")
            slot.occupy(start, duration)
        end = start + duration
        self.trace.record_raw(start, end, phase, joined, label, nbytes)
        return Completion(start, end)

    def charge_path_batch(self, resources: Sequence[str | Resource],
                          ops: Iterable[BatchOp], phase: Phase, *,
                          label: str = "",
                          nbytes: int = 0) -> list[Completion]:
        """A loop of :meth:`charge_path` over one fixed path; ``ops`` has
        the :meth:`charge_batch` shape."""
        return [self.charge_path(resources, op[0], phase, ready=op[1],
                                 label=op[2] if len(op) > 2 else label,
                                 nbytes=op[3] if len(op) > 3 else nbytes)
                for op in ops]

    def makespan(self) -> float:
        return self.trace.makespan()

    def reset(self) -> None:
        """Clear the trace and free every resource (between experiments)."""
        self.trace.clear()
        self.floor = 0.0
        for res in self._resources.values():
            res.reset()
