"""The serve throughput bench: FIFO vs fair-share vs priority.

One seeded Poisson arrival stream of mixed GEMM / HotSpot / SpMV / sort
jobs from three tenants is served once per scheduling policy on
identical fresh systems.  The stream has a deliberate elephant (a
multi-chunk GEMM from tenant ``acme``) amid mice (sort, SpMV, HotSpot),
so FIFO's head-of-line blocking shows up directly in the mouse tail:
fair share interleaves the elephant's nodes with the mice and pulls p99
job latency down at the same total work.

Everything is virtual-time: throughput is virtual jobs per virtual
second, latencies are virtual seconds.  Every served job is verified
bit-identical to a solo in-order run of the same spec on a fresh
system before its buffers are released.

:func:`run_policy` is one cell of ``benchmarks/scenarios/
serve_throughput.toml`` (runner ``serve_policy`` in
:mod:`repro.bench.cells`).
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.bench import configs
from repro.core.system import System
from repro.serve.arrivals import Arrival, poisson_arrivals
from repro.serve.job import JobSpec, JobState
from repro.serve.quota import TenantQuota
from repro.serve.service import JobService, ServeConfig, percentile

#: The committed stream.  ``count`` is the total stream length including
#: the one injected elephant; ``rate`` sizes the mouse load to roughly
#: 60% utilisation so the elephant's monopoly -- not a standing queue --
#: is what inflates the FIFO tail.  Callers that want another stream
#: pass their own dict of the same shape.
SIZES: dict = dict(count=120, rate=1000.0, max_pending=64,
                   max_live_per_tenant=3,
                   elephant=dict(m=512, k=512, n=512, tile=32, at=0.002),
                   gemm=dict(m=64, k=64, n=64, tile=32),
                   sort_n=50_000, spmv_rows=1024,
                   hotspot=dict(n=128, tile=64))


def tenant_quotas() -> dict[str, TenantQuota]:
    """The bench's three tenants.

    Equal weights: fairness differences in the results come from the
    policies, not the weights.  ``beta`` (the mice) carries a cache
    reservation so the elephant cannot evict it to zero.
    """
    return {
        "acme": TenantQuota(weight=1.0),
        "beta": TenantQuota(weight=1.0, cache_reservation=64 * 1024),
        "gamma": TenantQuota(weight=1.0),
    }


def job_mix(sizes: dict) -> list[tuple[JobSpec, float]]:
    """The weighted *mouse* mix: four small job classes.

    GEMM and HotSpot pin their tile shapes (see
    :mod:`repro.serve.job`) so a served run's operation sequence --
    and float accumulation order -- matches its solo run exactly.
    """
    g = sizes["gemm"]
    h = sizes["hotspot"]
    gemm_mouse = JobSpec(
        "gemm", tenant="acme", priority=0, label="mouse",
        params=dict(m=g["m"], k=g["k"], n=g["n"], seed=3,
                    force_tiles=(g["tile"], g["tile"], g["k"])))
    sort_mouse = JobSpec("sort", tenant="beta", priority=0, label="mouse",
                         params=dict(n=sizes["sort_n"], seed=7))
    spmv_mouse = JobSpec("spmv", tenant="beta", priority=0, label="mouse",
                         params=dict(nrows=sizes["spmv_rows"], seed=11,
                                     preset="circuit-like"))
    hot_mouse = JobSpec("hotspot", tenant="gamma", priority=1, label="mouse",
                        params=dict(n=h["n"], iterations=1, seed=5,
                                    force_tile=h["tile"]))
    return [(gemm_mouse, 2.0), (sort_mouse, 3.0),
            (spmv_mouse, 3.0), (hot_mouse, 2.0)]


def elephant_spec(sizes: dict) -> JobSpec:
    """The injected elephant: a GEMM 1-2 orders of magnitude bigger
    than any mouse, from the ``acme`` tenant."""
    e = sizes["elephant"]
    return JobSpec(
        "gemm", tenant="acme", priority=0, label="elephant",
        params=dict(m=e["m"], k=e["k"], n=e["n"], seed=3,
                    force_tiles=(e["tile"], e["tile"], e["k"])))


def build_stream(sizes: dict, *, seed: int) -> list:
    """The bench arrival stream: ``count - 1`` Poisson mice plus one
    elephant injected at a fixed early instant.

    The injection (rather than a rare mix entry) keeps exactly one
    elephant in every seed's stream, so nearest-rank p99 over the
    whole population lands on a *mouse* -- the statistic head-of-line
    blocking actually moves.
    """
    mice = poisson_arrivals(job_mix(sizes), rate=sizes["rate"],
                            count=sizes["count"] - 1, seed=seed)
    return mice + [Arrival(vt=sizes["elephant"]["at"],
                           spec=elephant_spec(sizes))]


def _fresh_system(executor: str | None = None) -> System:
    # A backend *name* makes the pool system-owned: System.close()
    # tears it down with the rest of the run.
    return System(configs.scaled_apu_tree("ssd"), executor=executor)


class SoloOracle:
    """Solo in-order results, one fresh system per distinct spec.

    Specs are frozen dataclasses; jobs drawn from the same mix entry
    share one solo run.
    """

    def __init__(self) -> None:
        self._cache: dict[str, bytes] = {}

    @staticmethod
    def _key(spec: JobSpec) -> str:
        # Specs carry a params dict, so they aren't hashable themselves.
        return f"{spec.app}|{sorted(spec.params.items())!r}"

    def result_bytes(self, spec: JobSpec) -> bytes:
        key = self._key(spec)
        if key not in self._cache:
            system = _fresh_system()
            try:
                app = spec.build(system)
                app.run(system)
                self._cache[key] = np.ascontiguousarray(
                    app.result()).tobytes()
                app.release_root_buffers()
            finally:
                system.close()
        return self._cache[key]


def run_policy(policy: str, *, sizes: dict = SIZES, seed: int = 0,
               oracle: SoloOracle | None = None,
               executor: str | None = None) -> dict:
    """Serve the seeded stream under one policy on a fresh system.

    Returns that policy's record.  When ``oracle`` is given, every DONE
    job's result bytes are compared against the solo in-order run of
    its spec; a mismatch raises.  ``executor`` picks the compute backend
    (``inline`` when None); every statistic outside ``meta`` is virtual,
    so it must be byte-identical across backends.  ``meta.wall`` is the
    host-dependent rate the loop chewed the stream at.
    """
    system = _fresh_system(executor)
    service = JobService(system, ServeConfig(
        policy=policy, seed=seed, max_pending=sizes["max_pending"],
        max_live_per_tenant=sizes["max_live_per_tenant"],
        quotas=tenant_quotas()))
    stream = build_stream(sizes, seed=seed)
    t0 = time.perf_counter()
    jobs = service.run(stream)
    wall_s = time.perf_counter() - t0
    try:
        done = [j for j in jobs if j.state is JobState.DONE]
        failed = [j for j in jobs if j.state is JobState.FAILED]
        if failed:
            raise failed[0].error
        verified = 0
        if oracle is not None:
            for job in done:
                served = np.ascontiguousarray(job.app.result()).tobytes()
                if served != oracle.result_bytes(job.spec):
                    raise AssertionError(
                        f"{job.job_id} under {policy!r} diverged from its "
                        f"solo in-order run")
                verified += 1
    finally:
        for job in jobs:
            if job.app is not None:
                job.app.release_root_buffers()
        system.close()

    lat = sorted(j.latency for j in done)
    waits = sorted(j.queue_wait for j in done)
    finish = max((j.finish_vt for j in done), default=0.0)
    mice = sorted(j.latency for j in done if j.spec.label == "mouse")
    high = sorted(j.latency for j in done if j.spec.priority > 0)
    busy_total = sum(service.tenant_busy.values())
    return {
        "policy": policy,
        "arrivals": {"rate_jobs_per_s": sizes["rate"],
                     "count": sizes["count"]},
        "jobs_done": len(done),
        "jobs_rejected": service.admission.rejected,
        "grants": service.grants,
        "virtual_jobs_per_s": (len(done) / finish) if finish > 0 else 0.0,
        "makespan_s": finish,
        "p50_latency_s": percentile(lat, 50.0),
        "p99_latency_s": percentile(lat, 99.0),
        "p50_queue_wait_s": percentile(waits, 50.0),
        "p99_queue_wait_s": percentile(waits, 99.0),
        "mouse_p99_latency_s": percentile(mice, 99.0),
        "high_priority_p99_latency_s": percentile(high, 99.0),
        "tenant_busy_share": {
            t: (b / busy_total if busy_total > 0 else 0.0)
            for t, b in sorted(service.tenant_busy.items())},
        "dispatch_digest": hashlib.sha256(
            "\n".join(service.dispatch_log).encode()).hexdigest(),
        "jobs_verified_bit_identical": verified,
        "meta": {"wall": {
            "wall_jobs_per_s": len(jobs) / wall_s,
            "wall_us_per_grant": 1e6 * wall_s / service.grants}},
    }
