"""The naive reference scheduler, retained for equivalence testing.

:class:`NaiveSlot` is the original linear-scan slot implementation the
indexed :class:`repro.sim.timeline._Slot` replaced: a sorted list of
``(start, end)`` tuples, an O(n) gap scan per charge and an O(n) insert.
It is kept -- verbatim, moved here from ``repro.sim.reference`` -- for
the tier-1 equivalence suite (``tests/sim/test_scheduler_equivalence``),
which replays randomized charge/charge_path workloads through both
implementations and asserts bit-identical placements, makespans and
phase breakdowns.

Use :func:`naive_timeline` to build a timeline whose resources all use
this slot.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.timeline import _EPS, Timeline


class NaiveSlot:
    """One serially-occupied lane: a sorted list of busy intervals,
    searched linearly (the pre-indexed implementation)."""

    __slots__ = ("busy",)

    def __init__(self) -> None:
        self.busy: list[tuple[float, float]] = []

    def earliest_gap(self, ready: float, duration: float) -> float:
        """Earliest start >= ready with ``duration`` of idle time."""
        candidate = ready
        for start, end in self.busy:
            if candidate + duration <= start + _EPS:
                return candidate
            if end > candidate:
                candidate = end
        return candidate

    def occupy(self, start: float, duration: float) -> None:
        """Insert ``[start, start + duration)``; the caller must have
        obtained ``start`` from :meth:`earliest_gap`."""
        end = start + duration
        lo, hi = 0, len(self.busy)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.busy[mid][0] < start:
                lo = mid + 1
            else:
                hi = mid
        if lo > 0 and self.busy[lo - 1][1] > start + _EPS:
            raise SimulationError("slot overlap: gap search bypassed")
        if lo < len(self.busy) and end > self.busy[lo][0] + _EPS:
            raise SimulationError("slot overlap: gap search bypassed")
        self.busy.insert(lo, (start, end))

    @property
    def booked(self) -> int:
        return len(self.busy)

    @property
    def free_at(self) -> float:
        return self.busy[-1][1] if self.busy else 0.0


def naive_timeline() -> Timeline:
    """A timeline whose resources use the linear-scan reference slot."""
    return Timeline(slot_cls=NaiveSlot)
