"""The in-process executor, the default.

With ``InlineExecutor`` the :class:`~repro.core.system.System` runs
every launch's kernel spec synchronously over zero-copy buffer views
(falling back to fetch/preload round trips on view-less backends), so
no snapshots are taken, no pending operations enter the ledger, and
wall-clock overhead is a couple of attribute checks per launch.  The
executor itself only carries the stats and telemetry that run records,
and takes no submits: ``submit``/``wait`` is the asynchronous contract
of the worker pools (:class:`~repro.exec.pool.WorkerPool`).
"""

from __future__ import annotations

from repro.exec.base import Executor


class InlineExecutor(Executor):
    """Synchronous in-process execution (default backend)."""

    name = "inline"
    asynchronous = False

    def __init__(self, *, telemetry: bool = False) -> None:
        super().__init__(workers=1, telemetry=telemetry)
