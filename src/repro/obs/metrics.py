"""Unified metrics registry: counters, gauges and histograms with labels.

The runtime already keeps plenty of numbers -- cache hit/miss tallies in
:class:`repro.cache.stats.CacheStats`, fd-pool opens/hits/evictions in
the file backend, :class:`~repro.core.buffers.ArrayPool` recycle counts,
the level plans' task states -- but each lives in its own ad-hoc
attribute with its own spelling.  :class:`MetricsRegistry` unifies them
behind one namespace without rewriting the increment sites: hot paths
keep bumping their plain integer attributes, and *collectors*
(callables registered with :meth:`MetricsRegistry.register_collector`,
the prometheus-client idiom) pull those numbers into the registry when
a snapshot is taken.  Directly-instrumented code can also push through
:meth:`counter` / :meth:`gauge` / :meth:`histogram`.

Snapshots are plain dicts, exportable as Prometheus text exposition
format (:meth:`to_prometheus`) or JSON (:meth:`to_json`).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Callable, Iterable

#: Default histogram buckets (seconds-ish scale; override per metric).
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict[str, str] | None) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        #: counts[i] observations <= buckets[i]; one extra +Inf bucket.
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # First bucket whose bound is >= value; falls through to the
        # trailing +Inf bucket when the value exceeds every bound.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out, running = [], 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": {
                ("+Inf" if b == float("inf") else repr(b)): c
                for b, c in self.cumulative()
            },
        }


class MetricFamily:
    """All labelled series of one metric name."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help_text: str = "") -> None:
        self.name = name
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.help = help_text
        self.series: dict[LabelSet, float | Histogram] = {}

    def _fmt_labels(self, labels: LabelSet) -> str:
        if not labels:
            return ""
        body = ",".join(f'{k}="{v}"' for k, v in labels)
        return "{" + body + "}"


class MetricsRegistry:
    """One namespace for every runtime metric.

    >>> reg = MetricsRegistry()
    >>> reg.counter("steals_total", 3, labels={"queue": "gpu0"})
    >>> reg.snapshot()["steals_total"][0]["value"]
    3
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    # -- pushing ---------------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            fam = MetricFamily(name, kind, help_text)
            self._families[name] = fam
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, "
                f"not {kind}")
        return fam

    def counter(self, name: str, inc: float = 1,
                labels: dict[str, str] | None = None,
                help_text: str = "") -> None:
        """Increment a monotonically growing counter."""
        fam = self._family(name, "counter", help_text)
        key = _labelset(labels)
        fam.series[key] = fam.series.get(key, 0) + inc

    def gauge(self, name: str, value: float,
              labels: dict[str, str] | None = None,
              help_text: str = "") -> None:
        """Set a point-in-time value."""
        fam = self._family(name, "gauge", help_text)
        fam.series[_labelset(labels)] = value

    def histogram(self, name: str, value: float,
                  labels: dict[str, str] | None = None,
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  help_text: str = "") -> None:
        """Observe one sample into a cumulative-bucket histogram."""
        fam = self._family(name, "histogram", help_text)
        key = _labelset(labels)
        hist = fam.series.get(key)
        if hist is None:
            hist = Histogram(buckets)
            fam.series[key] = hist
        hist.observe(value)

    def with_labels(self, **labels: str) -> "LabelledMetrics":
        """A push view that stamps ``labels`` onto every sample.

        The serve layer hands each job a view bound to its tenant/job
        ids, so instrumentation sites record plain metric names and
        every series still lands fully labelled::

            m = registry.with_labels(tenant="acme", job="j17")
            m.histogram("serve_queue_wait_s", wait)
        """
        return LabelledMetrics(self, labels)

    # -- pulling ---------------------------------------------------------

    def register_collector(
            self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a pull-collector invoked at snapshot time.

        Collectors bridge existing ad-hoc counters (cache stats, fd
        pool, array pool, level queues) into the registry without putting a
        registry call on any hot path -- they read the live objects and
        ``gauge``/``counter`` the current values.
        """
        self._collectors.append(fn)

    def collect(self) -> None:
        for fn in self._collectors:
            fn(self)

    def close(self) -> None:
        """Take a last reading, then drop every collector (and the
        objects they hold): their owner is closing."""
        self.collect()
        self._collectors.clear()

    # -- export ----------------------------------------------------------

    def snapshot(self, collect: bool = True) -> dict[str, list[dict]]:
        """``name -> [{labels, value|histogram}, ...]`` plain-dict view."""
        if collect:
            self.collect()
        out: dict[str, list[dict]] = {}
        for name, fam in sorted(self._families.items()):
            rows = []
            for key, val in sorted(fam.series.items()):
                row: dict = {"labels": dict(key)}
                if isinstance(val, Histogram):
                    row["histogram"] = val.to_dict()
                else:
                    row["value"] = val
                rows.append(row)
            out[name] = rows
        return out

    def to_json(self, collect: bool = True) -> str:
        return json.dumps(self.snapshot(collect), indent=2, sort_keys=True)

    def to_prometheus(self, collect: bool = True) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        if collect:
            self.collect()
        lines: list[str] = []
        for name, fam in sorted(self._families.items()):
            if fam.help:
                lines.append(f"# HELP {name} {fam.help}")
            lines.append(f"# TYPE {name} {fam.kind}")
            for key, val in sorted(fam.series.items()):
                label_str = fam._fmt_labels(key)
                if isinstance(val, Histogram):
                    for bound, cum in val.cumulative():
                        le = "+Inf" if bound == float("inf") else repr(bound)
                        blabels = dict(key)
                        blabels["le"] = le
                        body = ",".join(
                            f'{k}="{v}"' for k, v in sorted(blabels.items()))
                        lines.append(f"{name}_bucket{{{body}}} {cum}")
                    lines.append(f"{name}_sum{label_str} {val.total}")
                    lines.append(f"{name}_count{label_str} {val.count}")
                else:
                    lines.append(f"{name}{label_str} {val}")
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        """Drop every recorded series (collectors stay registered)."""
        self._families.clear()

    def __len__(self) -> int:
        return len(self._families)


class LabelledMetrics:
    """Bound push view of a :class:`MetricsRegistry` (see
    :meth:`MetricsRegistry.with_labels`).  Per-call labels are merged on
    top of the bound ones (per-call wins on key collision)."""

    __slots__ = ("_registry", "_labels")

    def __init__(self, registry: MetricsRegistry,
                 labels: dict[str, str]) -> None:
        self._registry = registry
        self._labels = {k: str(v) for k, v in labels.items()}

    def _merge(self, labels: dict[str, str] | None) -> dict[str, str]:
        if not labels:
            return self._labels
        return {**self._labels, **labels}

    def counter(self, name: str, inc: float = 1,
                labels: dict[str, str] | None = None,
                help_text: str = "") -> None:
        self._registry.counter(name, inc, labels=self._merge(labels),
                               help_text=help_text)

    def gauge(self, name: str, value: float,
              labels: dict[str, str] | None = None,
              help_text: str = "") -> None:
        self._registry.gauge(name, value, labels=self._merge(labels),
                             help_text=help_text)

    def histogram(self, name: str, value: float,
                  labels: dict[str, str] | None = None,
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  help_text: str = "") -> None:
        self._registry.histogram(name, value, labels=self._merge(labels),
                                 buckets=buckets, help_text=help_text)
