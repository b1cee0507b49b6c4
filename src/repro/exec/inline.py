"""The in-process executor, the default.

With ``InlineExecutor`` the :class:`~repro.core.system.System` runs
every launch's kernel spec synchronously over zero-copy buffer views
(falling back to fetch/preload round trips on view-less backends), so
no snapshots are taken, no pending operations enter the ledger, and
wall-clock overhead is a couple of attribute checks per launch.

The ``submit``/``wait`` surface still works (the executor unit tests
exercise every backend uniformly): a submitted task runs immediately on
the caller's thread, in place over the arrays it was handed.
"""

from __future__ import annotations

import time

from repro.exec.base import ExecError, Executor, TaskResult, resolve_kernel


class InlineExecutor(Executor):
    """Synchronous in-process execution (default backend)."""

    name = "inline"
    asynchronous = False

    def __init__(self, *, telemetry: bool = False) -> None:
        super().__init__(workers=1, telemetry=telemetry)
        self._results: dict[int, TaskResult] = {}
        self._next = 0

    def submit(self, ref, arrays, kwargs, label=""):
        if self.closed:
            raise ExecError("executor is closed")
        fn = resolve_kernel(ref)
        args = {name: arr for name, arr, _w in arrays}
        k0 = time.perf_counter_ns()
        fn(**args, **kwargs)
        k1 = time.perf_counter_ns()
        dt = (k1 - k0) / 1e9
        if self.telemetry is not None:
            self.telemetry.note_inline(
                "main", "kernel", k0, k1,
                nbytes=sum(a.nbytes for _n, a, _w in arrays))
        self._next += 1
        ticket = self._next
        self.stats.submitted += 1
        self.stats.bytes_in += sum(a.nbytes for _n, a, _w in arrays)
        self.stats.note_done("main", dt)
        self._results[ticket] = TaskResult(
            worker="main", seconds=dt,
            outputs={name: arr for name, arr, w in arrays if w})
        return ticket

    def wait(self, ticket):
        try:
            return self._results[ticket]
        except KeyError:
            raise ExecError(f"unknown ticket {ticket}") from None

    def release(self, ticket):
        self._results.pop(ticket, None)
