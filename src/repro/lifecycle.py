"""Reaping at interpreter exit, for anything that owns an OS resource.

The process pools (:class:`~repro.exec.shm.SharedMemExecutor`,
:class:`~repro.dist.executor.DistExecutor`) and the status server of
:mod:`repro.obs.live` register with :func:`track`; one ``atexit`` hook
closes whatever a crashed run left open.  Standard library only, so
that importing it costs its importer nothing.
"""

from __future__ import annotations

import atexit
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


__all__ = ["live", "track"]
