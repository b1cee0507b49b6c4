"""Worker-process loop of :class:`~repro.exec.shm.SharedMemExecutor`.

Each worker drains the pool's shared task queue of ``(task_id, fn_ref,
descriptors, kwargs, unlinked)`` tuples, maps the named
``multiprocessing.shared_memory`` segments, wraps them as typed NumPy
arrays (inputs read-only) and calls the kernel the reference names.
Replies travel on the worker's own pipe and carry the measured kernel
seconds so the parent can account per-worker occupancy.

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

import traceback
from collections import OrderedDict
from multiprocessing import shared_memory
from time import perf_counter, perf_counter_ns

import numpy as np

#: Cached attachments per worker; beyond this the oldest mapping closes.
ATTACH_CACHE = 128


def _attach(cache: "OrderedDict[str, shared_memory.SharedMemory]",
            name: str, buf=None,
            ticket: int = -1) -> shared_memory.SharedMemory:
    seg = cache.get(name)
    if seg is not None:
        cache.move_to_end(name)
        return seg
    if buf is None:
        seg = shared_memory.SharedMemory(name=name)
    else:
        a0 = perf_counter_ns()
        seg = shared_memory.SharedMemory(name=name)
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
    -- and the ``(task_id, worker_id, seconds, error)`` reply after it.

    With ``telemetry`` on the worker keeps a
    :class:`~repro.obs.phys.TelemetryBuffer`, times the
    attach/setup/kernel sub-phases, and appends the drained buffer plus
    its local recv/reply clock stamps as a 5th reply element -- the
    piggyback payload the parent's aggregator merges.  Off, no buffer
    exists and replies stay bare 4-tuples.
    """
    from repro.exec.base import resolve_kernel

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
        t_recv = perf_counter_ns() if buf is not None else 0
        t0 = perf_counter()
        conn.send(task_id)
        if unlinked != seen_unlinked:
            seen_unlinked = unlinked
            while cache:
                cache.popitem()[1].close()
        err = None
        try:
            fn = resolve_kernel(ref)
            args = {}
            nbytes = 0
            for name, seg_name, shape, dtype, writable in descriptors:
                seg = _attach(cache, seg_name, buf, task_id)
                arr = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
                if not writable:
                    arr = arr.view()
                    arr.flags.writeable = False
                args[name] = arr
                nbytes += arr.nbytes
            if buf is not None:
                k0 = perf_counter_ns()
                buf.record("setup", t_recv, k0, task_id, 0)
            fn(**args, **kwargs)
            if buf is not None:
                buf.record("kernel", k0, perf_counter_ns(), task_id, nbytes)
                buf.record_rss(task_id)
        except BaseException:
            err = traceback.format_exc()
        reply = (task_id, worker_id, perf_counter() - t0, err)
        if buf is not None:
            reply += ((buf.drain(), t_recv, perf_counter_ns()),)
        conn.send(reply)
    for seg in cache.values():
        seg.close()
    conn.close()
