"""Execution breakdowns.

Figures 7 and 8 of the paper stack each run into CPU execution, GPU
execution, buffer setup, and data transfers/I/O.  :func:`profile_trace`
folds a :class:`~repro.sim.trace.Trace` into that shape.  Two quantities
matter and are both reported:

* ``makespan`` -- virtual wall-clock of the run (what Figure 6's
  normalized-runtime bars compare);
* per-category **busy time** -- how long each category was active,
  irrespective of overlap (what the stacked breakdown bars show).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.trace import Phase, Trace


@dataclass
class Breakdown:
    """Aggregated timing of one run."""

    makespan: float
    by_phase: dict[Phase, float] = field(default_factory=dict)
    bytes_by_phase: dict[Phase, int] = field(default_factory=dict)

    # -- grouped views (the paper's categories) --------------------------

    @property
    def gpu(self) -> float:
        return self.by_phase.get(Phase.GPU_COMPUTE, 0.0)

    @property
    def io(self) -> float:
        """File-storage reads + writes (the paper's "I/Os")."""
        return (self.by_phase.get(Phase.IO_READ, 0.0)
                + self.by_phase.get(Phase.IO_WRITE, 0.0))

    @property
    def dev_transfer(self) -> float:
        """Host <-> accelerator copies (the paper's "OpenCL transfers")."""
        return self.by_phase.get(Phase.DEV_TRANSFER, 0.0)

    @property
    def runtime(self) -> float:
        """Framework bookkeeping -- Section V-B reports this < 1%."""
        return self.by_phase.get(Phase.RUNTIME, 0.0)

    @property
    def busy_total(self) -> float:
        return sum(self.by_phase.values())

    #: How phases fold into the paper's grouped share categories.
    _SHARE_GROUPS = {
        Phase.CPU_COMPUTE: "cpu",
        Phase.GPU_COMPUTE: "gpu",
        Phase.SETUP: "setup",
        Phase.IO_READ: "transfer",
        Phase.IO_WRITE: "transfer",
        Phase.DEV_TRANSFER: "transfer",
        Phase.MEM_COPY: "transfer",
        Phase.RUNTIME: "runtime",
        Phase.CACHE: "cache",
    }

    def shares(self) -> dict[str, float]:
        """Busy-time shares per paper category (sum to 1.0 when any
        work was recorded).

        Categories are derived from :class:`Phase` via
        :attr:`_SHARE_GROUPS`; a phase without a group mapping gets its
        own key (``phase.value``) rather than silently vanishing, so
        shares always sum to 1.
        """
        out = {"cpu": 0.0, "gpu": 0.0, "setup": 0.0, "transfer": 0.0,
               "runtime": 0.0, "cache": 0.0}
        total = self.busy_total
        if total == 0:
            return out
        for phase, secs in self.by_phase.items():
            key = self._SHARE_GROUPS.get(phase, phase.value)
            out[key] = out.get(key, 0.0) + secs / total
        return out

    @property
    def dev_transfer_share(self) -> float:
        """Device-transfer busy share (Figure 8's extra column).  Kept
        out of :meth:`shares` -- it overlaps the "transfer" category, and
        shares must sum to 1."""
        total = self.busy_total
        return self.dev_transfer / total if total else 0.0

    def runtime_overhead_fraction(self) -> float:
        """Runtime bookkeeping as a fraction of all busy time."""
        total = self.busy_total
        return self.runtime / total if total else 0.0

    def table(self, title: str = "") -> str:
        """Formatted per-phase table (seconds, shares and moved bytes).

        Rows are derived from :class:`Phase` -- every enum member gets a
        row, plus any extra phase present in ``by_phase`` -- so no
        category is ever silently dropped.
        """
        phases = list(Phase) + [p for p in self.by_phase if p not in
                                set(Phase)]
        total = self.busy_total or 1.0
        lines = []
        if title:
            lines.append(title)
        lines.append(f"{'phase':<14}{'seconds':>12}{'share':>9}"
                     f"{'bytes':>16}")
        for phase in phases:
            sec = self.by_phase.get(phase, 0.0)
            nbytes = self.bytes_by_phase.get(phase, 0)
            byte_col = f"{nbytes:,}" if nbytes else "-"
            lines.append(f"{phase.value:<14}{sec:>12.6f}{sec / total:>8.1%}"
                         f"{byte_col:>16}")
        lines.append(f"{'makespan':<14}{self.makespan:>12.6f}")
        return "\n".join(lines)


def profile_trace(trace: Trace) -> Breakdown:
    """Fold a trace into a :class:`Breakdown`.

    Served straight from the trace's columnar running aggregates --
    O(#phases), not O(#intervals), so profiling stays off the critical
    path however long the run was.
    """
    return Breakdown(makespan=trace.makespan(), by_phase=trace.by_phase(),
                     bytes_by_phase=trace.bytes_by_phase())
