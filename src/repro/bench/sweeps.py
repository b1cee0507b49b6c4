"""Generic parameter sweeps over Northup applications.

The figure runners reproduce the paper's fixed configurations; this
module is the open-ended counterpart for users exploring their own
design space: cross a parameter grid, run one app per point, collect
makespans and breakdowns, and write a CSV.

.. code-block:: python

    from repro.bench.sweeps import sweep, write_csv

    rows = sweep(
        lambda staging, n: _run(staging, n),
        grid={"staging": [1 << 20, 4 << 20], "n": [512, 1024]})
    write_csv(rows, "sweep.csv")
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.profiler import Breakdown
from repro.errors import ConfigError


@dataclass
class SweepPoint:
    """One grid point's outcome."""

    params: dict[str, Any]
    makespan: float
    breakdown: Breakdown | None = None
    extra: dict[str, float] = field(default_factory=dict)

    def as_record(self) -> dict[str, Any]:
        """Flatten to one CSV record."""
        record: dict[str, Any] = dict(self.params)
        record["makespan_s"] = self.makespan
        if self.breakdown is not None:
            shares = self.breakdown.shares()
            for key in ("cpu", "gpu", "setup", "transfer", "runtime"):
                record[f"share_{key}"] = round(shares[key], 6)
        record.update(self.extra)
        return record


def grid_points(grid: dict[str, list[Any]]) -> list[dict[str, Any]]:
    """Every combination in ``grid``, in deterministic grid order."""
    if not grid:
        raise ConfigError("sweep needs a non-empty parameter grid")
    for name, values in grid.items():
        if not values:
            raise ConfigError(f"sweep parameter {name!r} has no values")
    return [dict(zip(grid, combo))
            for combo in itertools.product(*grid.values())]


def as_point(params: dict[str, Any], result) -> SweepPoint:
    """``run``'s return value (a point or a bare makespan) as a point."""
    if isinstance(result, SweepPoint):
        result.params = {**params, **result.params}
        return result
    return SweepPoint(params=params, makespan=float(result))


def sweep(run: Callable[..., SweepPoint | float],
          grid: dict[str, list[Any]]) -> list[SweepPoint]:
    """Run ``run(**point)`` for every combination in ``grid``.

    ``run`` may return a :class:`SweepPoint` (full control) or a bare
    makespan float.  Points execute in deterministic grid order.
    """
    return [as_point(p, run(**p)) for p in grid_points(grid)]


def write_csv(points: list[SweepPoint], path: str) -> int:
    """Write sweep results as CSV; returns the row count."""
    if not points:
        raise ConfigError("nothing to write: empty sweep")
    records = [p.as_record() for p in points]
    fields: list[str] = []
    for rec in records:
        for key in rec:
            if key not in fields:
                fields.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(records)
    return len(records)
