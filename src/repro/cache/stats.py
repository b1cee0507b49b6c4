"""Per-node cache counters.

The acceptance story of the cache is told in these numbers: hits that
replaced transfers, misses that charged them, evictions under capacity
pressure, and the prefetch engine's issued/used/wasted balance.  They
surface through :meth:`repro.core.system.System.breakdown` attachments,
the trace (as ``Phase.CACHE`` intervals), the ``describe`` CLI, and the
cache-policy ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class CacheStats:
    """Counters for one node's cache (or a merged total)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    admissions: int = 0
    hit_bytes: int = 0
    miss_bytes: int = 0
    evicted_bytes: int = 0
    prefetch_issued: int = 0
    prefetch_used: int = 0
    prefetch_wasted: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def summary(self) -> str:
        return (f"hits={self.hits} misses={self.misses} "
                f"hit_rate={self.hit_rate:.1%} evictions={self.evictions} "
                f"prefetch={self.prefetch_used}/{self.prefetch_issued}")
