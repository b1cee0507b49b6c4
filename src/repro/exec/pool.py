"""How the process-pool runtimes start their workers.

Both :class:`~repro.exec.shm.SharedMemExecutor` and
:class:`~repro.dist.executor.DistExecutor` fork their workers through
:func:`start_workers`.
"""

from __future__ import annotations

import multiprocessing as mp


def pool_context():
    """The ``multiprocessing`` context of the worker pools: ``fork``
    where the platform offers it, else ``spawn``."""
    return mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn")


def start_workers(name: str, workers: int, target, args: tuple = (),
                  *, duplex: bool) -> tuple[list, list]:
    """Start ``workers`` daemon processes ``target(i, conn, *args)``
    named ``{name}-{i}``, each on the far end of a pipe of its own.

    Returns ``(processes, connections)``, the parent's pipe ends in
    worker order; with ``duplex=False`` the parent's end only reads.
    Each child end is closed here once its worker holds it, so a dead
    worker shows as end-of-file on its connection.
    """
    ctx = pool_context()
    procs, conns = [], []
    for i in range(workers):
        parent, child = ctx.Pipe(duplex=duplex)
        proc = ctx.Process(target=target, args=(i, child, *args),
                           name=f"{name}-{i}", daemon=True)
        proc.start()
        child.close()
        procs.append(proc)
        conns.append(parent)
    return procs, conns


__all__ = ["pool_context", "start_workers"]
