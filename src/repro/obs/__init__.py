"""``repro.obs``: observability for Northup runs.

Four pieces, layered over the virtual-time simulator without touching
its results:

* :mod:`repro.obs.spans` -- causal span tracing mirroring the
  divide-and-conquer recursion; every trace interval records the span
  that caused it.
* :mod:`repro.obs.metrics` -- one registry of counters/gauges/
  histograms unifying the runtime's scattered ad-hoc counters,
  exportable as Prometheus text or JSON.
* :mod:`repro.obs.critical` + :mod:`repro.obs.report` -- critical-path
  extraction and the :class:`~repro.obs.report.RunReport` artifact.
* :mod:`repro.obs.regress` -- tolerance-banded regression gating
  against the committed ``BENCH_*.json`` baselines, plus SLO gating of
  ``/status`` snapshots.
* :mod:`repro.obs.phys` -- the *physical* telemetry plane: per-worker
  wall-clock sub-phase records piggybacked on completion acks,
  NTP-style clock alignment, and merged Perfetto tracks next to the
  virtual timeline.
* :mod:`repro.obs.live` + :mod:`repro.obs.health` -- the live serve
  status endpoint, worker watchdog, and
  declarative :class:`~repro.obs.health.SLOPolicy` objectives.

Everything is zero-cost when disabled: ``System(observe=False)``
installs the shared null observer and no span objects are allocated;
telemetry-off executors allocate no buffers and ship bare acks.
Virtual makespans are bit-identical either way.

``phys``, ``live`` and ``health`` are intentionally *not* imported
here: executors import them lazily from their hot paths, and this
package must stay importable without dragging HTTP/server machinery in.
"""

from repro.obs.critical import CriticalPath, PathStep, critical_path
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport
from repro.obs.spans import (NULL_OBSERVER, NullObserver, Observer, Span,
                             SpanStats, SpanTree, analyze)

__all__ = [
    "CriticalPath", "PathStep", "critical_path",
    "MetricsRegistry",
    "RunReport",
    "NULL_OBSERVER", "NullObserver", "Observer", "Span", "SpanStats",
    "SpanTree", "analyze",
]
