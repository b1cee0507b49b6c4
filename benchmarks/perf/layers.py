"""Which public callables the tracer wraps, and how spans become the
per-layer ledger.

A *layer* is a module of the repo (``repro.memory``, ``repro.sim``,
...).  :func:`install` wraps each layer's public entry points under a
span name; :func:`ledger` folds one traced rep's spans into self time,
call counts and quantities per name, restricted to the run phase, such
that the self times add up to the traced ``run_s``.
"""

from __future__ import annotations

import threading

from tracer import END, NAME, PARENT, QTY, START, THREAD, Tracer, self_times

#: Span name -> ledger entry.  Every span recorded during the run phase
#: lands in exactly one entry, so the entries partition the run.
SPAN_LAYER = {
    "harness.run": "apps.self_s",
    "apps.code": "apps.self_s",
    "apps.init": "apps.init_s",
    "workloads.gen": "workloads.gen_s",
    "memory.read": "memory.read_s",
    "memory.write": "memory.write_s",
    "memory.copy": "memory.copy_s",
    "memory.alloc": "memory.alloc_s",
    "sim.charge": "sim.charge_s",
    "core.move": "core.move_s",
    "core.launch": "core.launch_s",
    "core.alloc": "core.alloc_s",
    "core.host": "core.host_s",
    "cache.consult": "cache.consult_s",
    "plan.lower": "plan.lower_s",
    "plan.schedule": "plan.schedule_s",
    "plan.partition": "plan.partition_s",
    "exec.submit": "exec.submit_s",
    "exec.wait": "exec.wait_s",
    "serve.loop": "serve.loop_self_s",
    "serve.select": "serve.select_s",
}

#: A job thread parked at its gate: not busy, counted nowhere.
PARKED = "serve.parked"
#: The service loop blocked while a job thread runs its grant.  The job
#: thread's own spans account for that time; what they leave over is
#: the baton hand-off (``serve.handoff_s``).
WAIT_JOB = "serve.wait_job"

#: Template hooks and accessors of the application classes.
APP_HOOKS = ("run", "before_run", "after_run", "decompose", "select_child",
             "setup_buffers", "data_down", "compute_task", "data_up",
             "teardown_buffers", "after_level", "prefetch_hints",
             "pipeline_window", "result", "release_root_buffers")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _nbytes(data) -> int:
    return data.nbytes if hasattr(data, "nbytes") else len(data)


def _rows_bytes(args, kwargs, _result) -> int:
    return _arg(args, kwargs, 3, "rows") * _arg(args, kwargs, 4, "row_bytes")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (imports are local:
    the benchmark must fail before measuring, not at import, when the
    source tree is absent)."""
    from repro.apps import GemmApp, HotspotApp, SortApp, SpmvApp
    from repro.cache.manager import CacheManager
    from repro.core.program import NorthupProgram
    from repro.core.scheduler import Scheduler
    from repro.core.system import System
    from repro.dist.executor import DistExecutor
    from repro.exec.inline import InlineExecutor
    from repro.exec.shm import SharedMemExecutor
    from repro.memory.backends import FileBackend, MemBackend
    from repro.memory.device import Device
    from repro.plan.lower import lower_level
    from repro.plan.partition import partition_graph
    from repro.serve import policy as serve_policy
    from repro.serve.gate import JobGate
    from repro.serve.job import JobSpec
    from repro.serve.service import JobService
    from repro.sim.timeline import Timeline
    from repro.workloads import (initial_temperature, power_grid, preset,
                                 random_dense)

    p = tracer.patch_method
    for backend in (FileBackend, MemBackend):
        p(backend, "create", "memory.alloc")
        p(backend, "destroy", "memory.alloc")
        p(backend, "read", "memory.read",
          lambda a, k, r: _arg(a, k, 3, "nbytes"))
        p(backend, "read_into", "memory.read",
          lambda a, k, r: _nbytes(_arg(a, k, 3, "out")))
        p(backend, "gather_2d", "memory.read", _rows_bytes)
        p(backend, "write", "memory.write",
          lambda a, k, r: _nbytes(_arg(a, k, 3, "data")))
        p(backend, "scatter_2d", "memory.write", _rows_bytes)
    for attr in ("copy_into", "copy_into_2d"):
        p(Device, attr, "memory.copy")

    for attr in ("charge", "charge_batch", "charge_path",
                 "charge_path_batch"):
        p(Timeline, attr, "sim.charge")

    for attr in ("move", "move_2d", "move_down", "move_down_batch",
                 "move_up", "move_transformed", "fetch_down",
                 "fetch_release"):
        p(System, attr, "core.move")
    p(System, "launch", "core.launch",
      lambda a, k, r: _arg(a, k, 2, "cost").flops)
    p(System, "drain_exec", "core.launch")
    p(System, "end_run", "core.launch")
    p(System, "alloc", "core.alloc")
    p(System, "release", "core.alloc")
    p(System, "preload", "core.host")
    p(System, "fetch", "core.host")

    for attr in ("fetch_into_cache", "prefetch_batch", "defer_up",
                 "reclaim", "flush_all", "end_run"):
        p(CacheManager, attr, "cache.consult")

    tracer.patch_function(lower_level, "plan.lower",
                          lambda a, k, r: len(r.graph.nodes))
    tracer.patch_function(partition_graph, "plan.partition")
    p(Scheduler, "execute_level", "plan.schedule")

    for executor in (InlineExecutor, SharedMemExecutor, DistExecutor):
        p(executor, "submit", "exec.submit")
        p(executor, "wait", "exec.wait")
        p(executor, "release", "exec.wait")

    p(JobService, "run", "serve.loop")
    p(JobService, "submit", "serve.loop")
    p(JobSpec, "build", "serve.loop")
    for pol in (serve_policy.FifoPolicy, serve_policy.FairSharePolicy,
                serve_policy.PriorityPolicy):
        p(pol, "select", "serve.select",
          lambda a, k, r: threading.active_count())
    p(JobGate, "offer", PARKED)
    p(JobGate, "wait_parked", WAIT_JOB)
    # Starting a job's thread blocks the loop until the thread runs --
    # and the new thread keeps the GIL for a while -- so it is a wait
    # on the job like ``wait_parked``, not work of the loop.
    p(threading.Thread, "start", WAIT_JOB)

    for fn in (random_dense, initial_temperature, power_grid, preset):
        tracer.patch_function(fn, "workloads.gen")

    for cls in (NorthupProgram, GemmApp, HotspotApp, SortApp, SpmvApp):
        for attr in APP_HOOKS:
            if attr in cls.__dict__:
                p(cls, attr, "apps.code")
        if "__init__" in cls.__dict__:
            p(cls, "__init__", "apps.init")


def ledger(spans: list[list]) -> dict:
    """Fold one rep's spans into per-name totals.

    Returns ``{"run": {...}, "setup": {...}, "handoff_s": float}`` where
    each phase maps a span name to ``[self_s, calls, quantity, peak]``.
    A span belongs to the phase of its outermost ancestor; a thread's
    outermost span (a served job's thread) belongs to the harness root
    whose interval contains its start.
    """
    selfs = self_times(spans)
    roots = {rec[NAME]: rec for rec in spans
             if rec[NAME] in ("harness.setup", "harness.run")}
    run_root = roots["harness.run"]
    phase_of: dict[int, str] = {}
    out = {"run": {}, "setup": {}}
    waited = 0.0
    foreign_busy = 0.0
    for rec, self_s in zip(spans, selfs):
        parent = rec[PARENT]
        if parent is not None:
            phase = phase_of[id(parent)]
        elif rec[NAME] == "harness.setup":
            phase = "setup"
        elif rec[NAME] == "harness.run" or \
                run_root[START] <= rec[START] <= run_root[END]:
            phase = "run"
        else:
            phase = "setup"
        phase_of[id(rec)] = phase
        name = rec[NAME]
        if name == WAIT_JOB and parent is not None \
                and parent[NAME] != "serve.loop":
            # Some other layer starting a helper thread (the shm pool's
            # queue feeder inside ``submit``): that layer's own time.
            out[phase][parent[NAME]][0] += rec[END] - rec[START]
            continue
        if phase == "run":
            if name == WAIT_JOB:
                waited += rec[END] - rec[START]
                continue
            if rec[THREAD] != run_root[THREAD] and name != PARKED:
                foreign_busy += self_s
        if name in (PARKED, WAIT_JOB):
            continue
        row = out[phase].setdefault(name, [0.0, 0, 0, 0])
        row[0] += self_s
        row[1] += 1
        row[2] += rec[QTY]
        row[3] = max(row[3], rec[QTY])
    out["handoff_s"] = waited - foreign_busy
    return out
