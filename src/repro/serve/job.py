"""Job specifications, live job state, and the application factory.

A :class:`JobSpec` is the admission-queue currency: which app to run,
with which parameters, for which tenant, at which priority.  Specs are
plain data so arrival streams can be generated, logged and replayed.

The factory builds the real :mod:`repro.apps` programs.  Specs for the
decomposition-sensitive apps (GEMM, HotSpot) carry *forced* tile
shapes: under multi-tenancy the free capacity an auto-tiler would
consult depends on what other jobs hold resident, and pinning the tiles
is what makes a served job's operation sequence -- and therefore its
result bytes and float accumulation order -- identical to a solo run of
the same spec.  SpMV and sort need no pinning: their results are
decomposition-invariant (rows never split across shards; a sorted
vector is a sorted vector).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import ConfigError
from repro.serve.gate import JobGate


class JobState(enum.Enum):
    PENDING = "pending"      # in the admission queue
    RUNNING = "running"      # admitted; iterator live
    DONE = "done"            # steps() returned
    FAILED = "failed"        # steps() raised (error stored on the job)
    REJECTED = "rejected"    # bounced by admission control


@dataclass(frozen=True)
class JobSpec:
    """One job request: app + config + tenant + priority."""

    app: str
    tenant: str
    priority: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""

    def build(self, system):
        """Instantiate the app on ``system`` (allocates root buffers)."""
        try:
            builder = _BUILDERS[self.app]
        except KeyError:
            raise ConfigError(
                f"unknown serve app {self.app!r}; known: "
                f"{sorted(_BUILDERS)}") from None
        return builder(system, dict(self.params))


@dataclass
class Job:
    """Live state of one admitted (or pending) job."""

    spec: JobSpec
    job_id: str
    seq: int                       # submission sequence number
    submit_vt: float               # arrival instant (virtual seconds)
    state: JobState = JobState.PENDING
    admit_vt: float = 0.0
    finish_vt: float = 0.0
    gate: JobGate = field(default_factory=JobGate)
    #: The job as a resumable iterator (``JobService._job_steps``).
    steps: Any = None
    app: Any = None
    error: BaseException | None = None
    #: ``(lo, hi)`` index windows of the shared trace appended by this
    #: job's grants -- the job's private view of the interleaved run.
    trace_windows: list[tuple[int, int]] = field(default_factory=list)
    #: The job's open-span chain, swapped into the observer per grant.
    span_stack: list[int] = field(default_factory=lambda: [0])
    #: The job's root span, opened at admission (``None`` until then).
    _span: Any = None
    grants: int = 0
    busy_vt: float = 0.0           # summed durations of this job's intervals

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def queue_wait(self) -> float:
        return max(0.0, self.admit_vt - self.submit_vt)

    @property
    def latency(self) -> float:
        return max(0.0, self.finish_vt - self.submit_vt)


# -- the app factory ---------------------------------------------------------


def _build_gemm(system, p: dict):
    from repro.apps.gemm import GemmApp, GemmTiles
    tiles = p.pop("force_tiles", None)
    if tiles is not None and not isinstance(tiles, GemmTiles):
        tiles = GemmTiles(*tiles)
    return GemmApp(system, force_tiles=tiles, **p)


def _build_hotspot(system, p: dict):
    from repro.apps.hotspot import HotspotApp
    return HotspotApp(system, **p)


def _build_spmv(system, p: dict):
    from repro.apps.spmv import SpmvApp
    from repro.workloads.sparse import preset
    seed = p.pop("seed", 0)
    matrix = preset(p.pop("preset", "circuit-like"),
                    nrows=p.pop("nrows", 4096), seed=seed)
    return SpmvApp(system, matrix=matrix, seed=seed, **p)


def _build_sort(system, p: dict):
    from repro.apps.sort import SortApp
    return SortApp(system, **p)


_BUILDERS: dict[str, Callable] = {
    "gemm": _build_gemm,
    "hotspot": _build_hotspot,
    "spmv": _build_spmv,
    "sort": _build_sort,
}


def known_apps() -> list[str]:
    return sorted(_BUILDERS)
