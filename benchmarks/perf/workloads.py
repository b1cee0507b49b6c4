"""The seven workloads and the driver that runs one rep of each.

A rep is one complete *setup -> run -> collect -> tear down* cycle on a
fresh temp dir, fresh ``System`` and fresh executor.  It drives the
stack through public API only and returns a plain-dict record; timing
statistics and metric definitions live in :mod:`summarize`.

All workloads are closed, batch "time to solution at a stated input
size" runs; ``serve_mix`` serves an open-loop Poisson stream whose
arrival instants are *virtual*, so its wall clock too is time to drain
a fixed stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import layers
import serve_mix
from tracer import Tracer

MiB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    app: str                  # gemm | hotspot | sort | spmv | serve
    backend: str              # inline | shm | dist


#: Why each one exists is recorded in BENCHMARK.json and the README.
WORKLOADS = (
    Workload("gemm_ooc", "gemm", "inline"),
    Workload("hotspot_ooc", "hotspot", "inline"),
    Workload("sort_ooc", "sort", "inline"),
    Workload("spmv_fine", "spmv", "inline"),
    Workload("gemm_shm2", "gemm", "shm"),
    Workload("gemm_dist2", "gemm", "dist"),
    Workload("serve_mix", "serve", "inline"),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: Input sizes.  ``full`` is what BENCHMARK.json freezes: the issue's
#: prototype sizes scaled down (GEMM/HotSpot edge 4096 -> 2048, staging
#: scaled with them so the chunk structure is kept) until a rep takes
#: 0.3-1 s, because the driver gives one workload ~10 s per run and a
#: median needs a dozen reps.  ``smoke`` finishes each workload in well
#: under 2 s for the test suite.
SIZES = {
    "full": {
        "gemm": dict(n=2048, staging=8 * MiB),
        "hotspot": dict(n=2048, iterations=8, steps_per_pass=4,
                        staging=4 * MiB),
        "sort": dict(n=8_000_000, staging=4 * MiB),
        # x (4 B/row) stays resident below the root; the ~120 KiB left
        # over sets the shard size, hence how fine-grained the run is.
        "spmv": dict(rows=200_000, staging=900 * 1024),
        "serve": dict(jobs=151, rate=1000.0, max_live_per_tenant=3,
                      elephant=dict(n=256, tile=32, at=0.002),
                      gemm=dict(n=64, tile=32), sort_n=50_000,
                      spmv_rows=1024, hotspot=dict(n=128, tile=64)),
    },
    "smoke": {
        "gemm": dict(n=256, staging=256 * 1024),
        "hotspot": dict(n=256, iterations=4, steps_per_pass=2,
                        staging=128 * 1024),
        "sort": dict(n=200_000, staging=128 * 1024),
        "spmv": dict(rows=20_000, staging=128 * 1024),
        "serve": dict(jobs=13, rate=2000.0, max_live_per_tenant=3,
                      elephant=dict(n=128, tile=32, at=0.001),
                      gemm=dict(n=48, tile=32), sort_n=20_000,
                      spmv_rows=512, hotspot=dict(n=64, tile=32)),
    },
}

#: ``np.allclose`` tolerances of tests/apps for result vs reference.
TOLERANCE = {"gemm": dict(rtol=1e-3, atol=1e-4),
             "hotspot": dict(rtol=1e-4, atol=1e-4),
             "spmv": dict(rtol=1e-3, atol=1e-4)}


def pool_workers() -> int:
    """Pool size: 2, but never more processes than usable cores."""
    from repro.exec.base import effective_cpu_count
    return min(2, effective_cpu_count())


def digest_of(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# -- one rep -----------------------------------------------------------------

def run_rep(wl: Workload, sizes: dict, seed: int, tmp_root: str, *,
            traced: bool = False, backend: str | None = None,
            inspect=None) -> dict:
    """One rep of ``wl``; ``backend`` overrides the workload's compute
    backend (the cross-backend check re-runs pool inputs inline).

    ``inspect(subject, result)`` runs after the timed region and before
    teardown and returns failure strings (reference comparisons).
    """
    tracer = Tracer() if traced else None
    if tracer is not None:
        layers.install(tracer)
    try:
        if wl.app == "serve":
            rec = _serve_rep(sizes["serve"], seed, tracer, inspect)
        else:
            rec = _app_rep(wl.app, backend or wl.backend, sizes[wl.app],
                           seed, tmp_root, tracer, inspect)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        rec["spans"] = tracer.spans
        rec["ledger"] = layers.ledger(tracer.spans)
    return rec


def _span(tracer, name):
    return tracer.span(name) if tracer is not None \
        else contextlib.nullcontext()


def _build_app(app: str, system, cfg: dict, seed: int):
    from repro import GemmApp, HotspotApp, SortApp, SpmvApp
    from repro.workloads import sparse
    if app == "gemm":
        return GemmApp(system, m=cfg["n"], k=cfg["n"], n=cfg["n"], seed=seed)
    if app == "hotspot":
        return HotspotApp(system, n=cfg["n"], iterations=cfg["iterations"],
                          steps_per_pass=cfg["steps_per_pass"], seed=seed)
    if app == "sort":
        return SortApp(system, n=cfg["n"], seed=seed)
    matrix = sparse.preset("circuit-like", nrows=cfg["rows"], seed=seed)
    return SpmvApp(system, matrix=matrix, seed=seed)


def _app_rep(app: str, backend: str, cfg: dict, seed: int, tmp_root: str,
             tracer, inspect) -> dict:
    from repro import System, apu_two_level
    from repro.dist.executor import dist_residue
    from repro.dist.runner import DistributedScheduler
    from repro.exec.base import make_executor
    from repro.exec.shm import shm_residue
    from repro.memory.backends import FileBackend

    failures: list[str] = []
    workdir = tempfile.mkdtemp(prefix=f"{app}-", dir=tmp_root)
    executor = system = app_obj = None
    pool_start_s = 0.0
    try:
        t0 = perf_counter()
        with _span(tracer, "harness.setup"):
            if backend != "inline":
                # Worker-side telemetry only in traced dist reps: it is
                # the source of the dist.worker_* phases.
                executor = make_executor(
                    backend, workers=pool_workers(),
                    telemetry=tracer is not None and backend == "dist")
                pool_start_s = perf_counter() - t0
            tree = apu_two_level(
                staging_bytes=cfg["staging"],
                storage_backend=FileBackend(os.path.join(workdir, "root")))
            system = System(tree, executor=executor)
            app_obj = _build_app(app, system, cfg, seed)
            scheduler = DistributedScheduler() if backend == "dist" else None
        t1 = perf_counter()
        with _span(tracer, "harness.run"):
            app_obj.run(system, scheduler=scheduler)
            result = app_obj.result()
        t2 = perf_counter()
        rec = {"setup_s": t1 - t0, "run_s": t2 - t1,
               "digest": digest_of(result),
               "counts": _system_counts(system, pool_start_s)}
        if executor is not None and executor.telemetry is not None:
            rec["worker_phases"] = _worker_phases(executor.telemetry)
        if inspect is not None:
            failures += inspect(app_obj, result)
        del result
    finally:
        if app_obj is not None:
            app_obj.release_root_buffers()
        if system is not None:
            system.close()
        if executor is not None:
            executor.close()
        shutil.rmtree(workdir, ignore_errors=True)
    # Hygiene: a leak is a failed operation.
    if os.path.exists(workdir):
        failures.append(f"temp dir {workdir} survived teardown")
    if backend != "inline":
        residue = shm_residue() + dist_residue()
        if residue:
            failures.append(f"pool residue: {residue}")
        alive = multiprocessing.active_children()
        if alive:
            failures.append(f"live child processes: {alive}")
    rec["ops"] = 1
    rec["failed_ops"] = 1 if failures else 0
    rec["failures"] = failures
    return rec


def _system_counts(system, pool_start_s: float = 0.0) -> dict:
    """Counts the program already keeps, read through public attributes
    (``system.wall``, ``executor.stats``, ``cache.total_stats()``, the
    trace length, the metrics snapshot for the fd pools)."""
    stats = system.executor.stats
    cache = system.cache.total_stats()
    pooled = system.executor.asynchronous
    snap = system.metrics.snapshot()

    def gauge_sum(name: str) -> float:
        return sum(row["value"] for row in snap.get(name, ()))

    busy = sum(stats.worker_busy.values())
    return {
        "virtual_makespan": system.makespan(),
        "sim.intervals": len(system.timeline.trace),
        "core.wall_physical_s": system.wall.physical_seconds,
        "core.wall_bytes_moved": system.wall.bytes_moved,
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "cache.evictions": cache.evictions,
        "fd_pool_hits": gauge_sum("fd_pool_hits"),
        "fd_pool_opens": gauge_sum("fd_pool_opens"),
        "compute.kernel_s": busy,
        "compute.kernel_calls": stats.completed,
        "inline_kernel_s": 0.0 if pooled else busy,
        # exec.* describes a worker pool; the inline executor has none.
        "exec.dispatch_s": stats.dispatch_seconds if pooled else 0.0,
        "exec.merge_s": stats.merge_seconds if pooled else 0.0,
        "exec.tasks": stats.submitted if pooled else 0,
        "exec.bytes_in": stats.bytes_in if pooled else 0,
        "exec.bytes_out": stats.bytes_out if pooled else 0,
        "exec.worker_busy_s": busy if pooled else 0.0,
        "exec.workers": system.executor.workers if pooled else 0,
        "exec.pool_start_s": pool_start_s,
    }


def _worker_phases(telemetry) -> dict:
    """Worker-side seconds and bytes per record kind, from the existing
    ``enable_telemetry()`` records (worker clocks; durations only)."""
    out: dict[str, list] = {}
    for records in telemetry.records.values():
        for kind, t0, t1, _ticket, nbytes in records:
            row = out.setdefault(kind, [0.0, 0])
            row[0] += (t1 - t0) / 1e9
            row[1] += nbytes
    return out


def _serve_rep(cfg: dict, seed: int, tracer, inspect) -> dict:
    from repro import System
    from repro.bench.configs import scaled_apu_tree
    from repro.serve.job import JobState
    from repro.serve.service import JobService, ServeConfig

    failures: list[str] = []
    system = None
    jobs = []
    threads_before = threading.active_count()
    try:
        t0 = perf_counter()
        with _span(tracer, "harness.setup"):
            system = System(scaled_apu_tree("ssd"))
            # The pending queue holds the whole stream: admission never
            # rejects, so no seed can turn a burst into failed jobs.
            service = JobService(system, ServeConfig(
                policy="fair", seed=seed, max_pending=cfg["jobs"],
                max_live_per_tenant=cfg["max_live_per_tenant"],
                quotas=serve_mix.tenant_quotas()))
            stream = serve_mix.build_stream(cfg, seed)
        t1 = perf_counter()
        with _span(tracer, "harness.run"):
            jobs = service.run(stream)
        t2 = perf_counter()
        done = [j for j in jobs if j.state is JobState.DONE]
        latencies = sorted(j.latency for j in done)
        rank = max(0, -(-99 * len(latencies) // 100) - 1)
        counts = _system_counts(system)
        counts.update({
            "virtual_makespan": max((j.finish_vt for j in done), default=0.0),
            "serve.virtual_p99_latency": latencies[rank] if latencies else 0.0,
            "serve.grants": len(service.dispatch_log),
            "serve.jobs_done": len(done),
            "serve.jobs_rejected": service.admission.rejected,
        })
        rec = {"setup_s": t1 - t0, "run_s": t2 - t1,
               "digest": hashlib.sha256(
                   "\n".join(service.dispatch_log).encode()).hexdigest(),
               "counts": counts}
        bad = [j for j in jobs if j.state is not JobState.DONE]
        failures += [f"{j.job_id} ended {j.state.value}: {j.error!r}"
                     for j in bad]
        if inspect is not None:
            failures += inspect(service, jobs)
    finally:
        for job in jobs:
            if job.app is not None:
                job.app.release_root_buffers()
        if system is not None:
            system.close()
    if threading.active_count() > threads_before:
        failures.append("job threads outlived the served stream")
    rec["ops"] = len(jobs)
    rec["failed_ops"] = max(len(bad), 1 if failures else 0)
    rec["failures"] = failures
    return rec


# -- reference checks (run after the timed reps) -------------------------------

def check_against_reference(wl: Workload):
    """``inspect`` callback for the app workloads: the result against
    ``app.reference()`` with the tolerance tests/apps uses."""
    def inspect(app, result) -> list[str]:
        reference = app.reference()
        if wl.app == "sort":
            ok = np.array_equal(result, reference)
        else:
            ok = np.allclose(result, reference, **TOLERANCE[wl.app])
        return [] if ok else [f"{wl.name}: result differs from reference"]
    return inspect


def check_against_solo():
    """``inspect`` callback for ``serve_mix``: one served job of each
    distinct spec is byte-equal to its solo in-order run on a fresh
    system."""
    from repro import System
    from repro.bench.configs import scaled_apu_tree

    def inspect(_service, jobs) -> list[str]:
        failures = []
        seen = set()
        for job in jobs:
            key = (job.spec.app, job.spec.label)
            if key in seen:
                continue
            seen.add(key)
            system = System(scaled_apu_tree("ssd"))
            try:
                solo = job.spec.build(system)
                solo.run(system)
                same = digest_of(solo.result()) == digest_of(job.app.result())
                solo.release_root_buffers()
            finally:
                system.close()
            if not same:
                failures.append(f"{job.job_id} differs from its solo run")
        return failures
    return inspect
