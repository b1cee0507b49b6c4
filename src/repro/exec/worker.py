"""Worker-process loop of :class:`~repro.exec.shm.SharedMemExecutor`.

Each worker drains the pool's shared task queue of ``(task_id, fn_ref,
descriptors, kwargs, unlinked)`` tuples and runs the pool core's kernel
body (:func:`~repro.exec.pool.run_kernel`), which maps each named
``multiprocessing.shared_memory`` segment as a typed NumPy array and
reads each :class:`~repro.exec.pool.FileWindow` from its root file.

Workers never *own* segments: the parent creates, recycles and unlinks
them.  Attaching registers the name with the ``resource_tracker``
(unconditionally before Python 3.13, bpo-39959); the parent starts the
tracker *before* forking workers, so every child shares it and the
child-side registration is a set-level no-op -- lifecycle authority
stays with the parent, which unlinks and unregisters each segment
exactly once at close.  Attachments are cached LRU by name -- the
parent reuses segment names heavily, so steady state is one ``mmap``
per pooled segment.

A mapping keeps an unlinked segment's pages alive, and the parent
unlinks segments mid-run to stay inside its byte budget.  So every task
message carries the parent's unlink count, and a worker that sees it
move closes all of its attachments before it maps the task's operands:
segment names are never reused, so whatever is still pooled is simply
attached again on its next use.  What the parent's budget does not
count is therefore only what was unlinked since each worker last took a
task.
"""

from __future__ import annotations

from collections import OrderedDict
from multiprocessing import shared_memory
from time import perf_counter_ns

import numpy as np

from repro.exec.pool import run_kernel

#: Cached attachments per worker; beyond this the oldest mapping closes.
ATTACH_CACHE = 128


def _attach(cache: "OrderedDict[str, shared_memory.SharedMemory]",
            name: str, buf=None,
            ticket: int = -1) -> shared_memory.SharedMemory:
    seg = cache.get(name)
    if seg is not None:
        cache.move_to_end(name)
        return seg
    a0 = perf_counter_ns()
    seg = shared_memory.SharedMemory(name=name)
    if buf is not None:
        buf.record("attach", a0, perf_counter_ns(), ticket, seg.size)
    cache[name] = seg
    while len(cache) > ATTACH_CACHE:
        _old, stale = cache.popitem(last=False)
        stale.close()
    return seg


def worker_main(worker_id: int, conn, tasks,
                telemetry: bool = False) -> None:
    """Drain ``tasks`` until the ``None`` sentinel arrives.

    ``conn`` is this worker's own pipe to the parent and carries two
    messages per task: the bare ``task_id`` as a *claim* before the
    kernel runs -- written straight to the pipe, so the parent knows
    which ticket a worker was on even if the kernel kills the process
    -- and the ``(task_id, worker_id, seconds, error, phases, records)``
    reply after it, a tuple because it pickles several times faster than
    the :class:`~repro.exec.pool.CompletionAck` the parent builds.

    With ``telemetry`` on the worker keeps a
    :class:`~repro.obs.phys.TelemetryBuffer`, times the
    attach/setup/kernel sub-phases, and ships the drained buffer in the
    ack.  Off, no buffer exists and the ack carries no payload.
    """
    buf = None
    if telemetry:
        from repro.obs.phys import TelemetryBuffer
        buf = TelemetryBuffer(f"w{worker_id}")
    cache: OrderedDict[str, shared_memory.SharedMemory] = OrderedDict()
    seen_unlinked = 0
    while True:
        msg = tasks.get()
        if msg is None:
            break
        task_id, ref, descriptors, kwargs, unlinked = msg
        t_recv = perf_counter_ns()
        conn.send(task_id)
        if unlinked != seen_unlinked:
            seen_unlinked = unlinked
            while cache:
                cache.popitem()[1].close()
        def attach(seg_ref, task_id=task_id):
            seg_name, shape, dtype = seg_ref
            return np.ndarray(shape, dtype=dtype, buffer=_attach(
                cache, seg_name, buf, task_id).buf)
        seconds, err, phases = run_kernel(ref, descriptors, kwargs, task_id,
                                          buf, t_recv, attach)
        conn.send((task_id, worker_id, seconds, err, phases,
                   buf.drain() if buf is not None else None))
    for seg in cache.values():
        seg.close()
    conn.close()
