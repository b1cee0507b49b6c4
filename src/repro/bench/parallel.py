"""Parallel fan-out of independent experiment configurations.

Every experiment in this reproduction is a pure function of its
configuration: it builds a fresh :class:`~repro.core.system.System`,
runs, and returns numbers.  Independent configurations therefore
parallelise trivially across a process pool -- virtual time inside one
experiment is untouched; only the *wall-clock* of running many of them
shrinks.

Results are merged deterministically: :func:`run_parallel` returns them
in submission order regardless of which worker finished first, so a
parallel sweep produces exactly the rows (in exactly the order) of the
sequential loop it replaces.

Workers are plain processes (``ProcessPoolExecutor``); the task function
and its arguments must be picklable, which in practice means a
module-level function and plain-data configs.  With ``workers <= 1`` (or
on platforms without working process pools) everything runs inline in
the caller's process -- same results, no pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.bench.sweeps import SweepPoint, as_point, grid_points


def default_workers() -> int:
    """Pool size when none is given: the CPU count, capped at 8 (the
    experiment configs are memory-hungry; more workers than that mostly
    adds allocator pressure)."""
    return max(1, min(8, os.cpu_count() or 1))


def run_parallel(fn: Callable[..., Any], configs: Sequence[Any], *,
                 workers: int | None = None,
                 star: bool = False,
                 on_result: Callable[[int, Any], None] | None = None
                 ) -> list[Any]:
    """Run ``fn(config)`` for every config across a process pool.

    Parameters
    ----------
    fn:
        Module-level (picklable) function of one config.  With
        ``star=True`` each config is a tuple splatted as ``fn(*config)``.
    configs:
        The experiment configurations, one task each.
    workers:
        Pool size; ``None`` means :func:`default_workers`.  ``<= 1``
        runs inline without a pool.
    on_result:
        Optional ``on_result(index, result)`` callback invoked in the
        caller's process, in submission order, as each result becomes
        available.  The experiment harness uses it to persist cells
        incrementally: results gathered before a crash survive even
        though :func:`run_parallel` itself never returns.

    Returns results in submission order (deterministic merge).
    """
    configs = list(configs)
    if workers is None:
        workers = default_workers()
    workers = min(workers, len(configs))
    if workers <= 1:
        results = []
        for i, c in enumerate(configs):
            result = fn(*c) if star else fn(c)
            if on_result is not None:
                on_result(i, result)
            results.append(result)
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        if star:
            futures = [pool.submit(fn, *c) for c in configs]
        else:
            futures = [pool.submit(fn, c) for c in configs]
        # .result() in submission order IS the deterministic merge:
        # completion order is scheduling noise and never observed.
        results = []
        for i, f in enumerate(futures):
            result = f.result()
            if on_result is not None:
                on_result(i, result)
            results.append(result)
        return results


def parallel_sweep(run: Callable[..., SweepPoint | float],
                   grid: dict[str, list[Any]], *,
                   workers: int | None = None) -> list[SweepPoint]:
    """:func:`repro.bench.sweeps.sweep`, fanned across a process pool.

    Grid points are enumerated in the same deterministic order as the
    sequential sweep and results are merged in that order, so the
    returned rows are identical -- only wall-clock differs.  ``run``
    must be a module-level function (it crosses a process boundary).
    """
    params = grid_points(grid)
    results = run_parallel(_SweepTask(run), params, workers=workers)
    return [as_point(p, result) for p, result in zip(params, results)]


class _SweepTask:
    """Picklable kwargs adapter around the user's ``run`` callable."""

    def __init__(self, run: Callable[..., SweepPoint | float]) -> None:
        self.run = run

    def __call__(self, params: dict[str, Any]) -> SweepPoint | float:
        return self.run(**params)
