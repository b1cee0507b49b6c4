"""What the process-pool runtimes share: how workers are started and
how anything that owns an OS resource is reaped at interpreter exit.

Both :class:`~repro.exec.shm.SharedMemExecutor` and
:class:`~repro.dist.executor.DistExecutor` fork their workers through
:func:`start_workers`; both, and the status server of
:mod:`repro.obs.live`, register with :func:`track` so that one
``atexit`` hook closes whatever a crashed run left open.
"""

from __future__ import annotations

import atexit
import ctypes
import multiprocessing as mp
import weakref

_LIVE: "weakref.WeakSet" = weakref.WeakSet()
_ATEXIT_ARMED = False


def _reap_all() -> None:
    for obj in list(_LIVE):
        try:
            obj.close()
        except Exception:
            pass


def track(obj) -> None:
    """Have ``obj.close()`` called at interpreter exit unless ``obj``
    was collected first (``close`` must be idempotent)."""
    global _ATEXIT_ARMED
    _LIVE.add(obj)
    if not _ATEXIT_ARMED:
        atexit.register(_reap_all)
        _ATEXIT_ARMED = True


def live(kind: type) -> list:
    """Tracked objects of ``kind`` that are still alive -- what the
    ``*_residue()`` audits walk."""
    return [obj for obj in list(_LIVE) if isinstance(obj, kind)]


def trim_heap() -> None:
    """Give the allocator's free pages back to the OS (glibc
    ``malloc_trim``; a no-op on any other libc).

    Called before forking: a page glibc keeps for reuse is resident, so
    after the fork it is shared copy-on-write with every idle worker,
    and the parent's next large allocation -- the following run's input
    arrays -- takes a page-copy fault on each page it touches
    (DESIGN.md, "fork from a trimmed heap").
    """
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


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
    trim_heap()
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


__all__ = ["live", "pool_context", "start_workers", "track", "trim_heap"]
