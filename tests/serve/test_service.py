"""JobService end-to-end: interleaved jobs finish with solo-identical
results, per-job observability, and clean failure handling."""

import sys
import threading

import numpy as np
import pytest

from repro.bench import configs
from repro.core.system import System
from repro.obs.spans import analyze
from repro.serve import (Arrival, JobService, JobSpec, JobState, ServeConfig,
                         TenantQuota)

MOUSE_SPECS = [
    JobSpec("gemm", tenant="acme", params=dict(
        m=48, k=48, n=48, seed=3, force_tiles=(32, 32, 48, True))),
    JobSpec("sort", tenant="beta", params=dict(n=20_000, seed=7)),
    JobSpec("spmv", tenant="beta", params=dict(nrows=512, seed=11)),
    JobSpec("hotspot", tenant="gamma", priority=1, params=dict(
        n=64, iterations=1, seed=5, force_tile=32)),
]


def fresh_system():
    return System(configs.scaled_apu_tree("ssd"))


def solo_result(spec):
    sys_ = fresh_system()
    try:
        app = spec.build(sys_)
        app.run(sys_)
        out = np.ascontiguousarray(app.result()).copy()
        app.release_root_buffers()
        return out
    finally:
        sys_.close()


def serve_stream(stream, policy="fair", **cfg):
    sys_ = fresh_system()
    service = JobService(sys_, ServeConfig(policy=policy, **cfg))
    jobs = service.run(stream)
    return sys_, service, jobs


def release_all(sys_, jobs):
    for job in jobs:
        if job.app is not None:
            job.app.release_root_buffers()
    sys_.close()


def test_all_four_apps_served_bit_identical_to_solo():
    stream = [Arrival(vt=i * 1e-4, spec=s)
              for i, s in enumerate(MOUSE_SPECS)]
    sys_, service, jobs = serve_stream(stream)
    try:
        assert [j.state for j in jobs] == [JobState.DONE] * 4
        # Interleaving really happened: grant windows of different jobs
        # overlap in submission time (every job got >1 grant while
        # others were live).
        assert all(j.grants > 1 for j in jobs)
        for job in jobs:
            served = np.ascontiguousarray(job.app.result())
            solo = solo_result(job.spec)
            assert served.tobytes() == solo.tobytes(), job.job_id
    finally:
        release_all(sys_, jobs)


def test_virtual_clock_and_latency_accounting():
    stream = [Arrival(vt=0.0, spec=MOUSE_SPECS[1]),
              Arrival(vt=0.5, spec=MOUSE_SPECS[2])]
    sys_, service, jobs = serve_stream(stream)
    try:
        first, second = jobs
        # The second job arrived after the first finished: the clock
        # jumped to its arrival; no operation predates it.
        assert second.admit_vt >= 0.5
        assert second.queue_wait == pytest.approx(0.0)
        trace = sys_.timeline.trace
        lo, hi = second.trace_windows[0]
        starts = [row[0] for row in trace.window_rows(lo, hi)]
        assert min(starts) >= 0.5
        assert second.latency > 0.0
        assert first.finish_vt <= 0.5
    finally:
        release_all(sys_, jobs)


def test_per_job_spans_and_reports():
    stream = [Arrival(vt=0.0, spec=MOUSE_SPECS[1]),
              Arrival(vt=0.0, spec=MOUSE_SPECS[3])]
    sys_, service, jobs = serve_stream(stream)
    try:
        tree = analyze(sys_.obs, sys_.timeline.trace)
        job_spans = [st for st in tree.all() if st.span.kind == "job"]
        assert {st.span.label for st in job_spans} == \
            {j.job_id for j in jobs}
        for st in job_spans:
            assert st.span.attrs["tenant"] in ("beta", "gamma")
            # The job's whole run nests under its job span.
            assert st.children
        for job in jobs:
            report = service.job_report(job)
            d = report.to_dict()
            assert job.job_id in d["name"]
            sub = service.job_trace(job)
            assert len(sub) == sum(hi - lo for lo, hi in job.trace_windows)
    finally:
        release_all(sys_, jobs)


def test_serve_metrics_exported():
    stream = [Arrival(vt=0.0, spec=MOUSE_SPECS[1])]
    sys_, service, jobs = serve_stream(stream)
    try:
        text = sys_.metrics.to_prometheus()
        for needle in ("serve_queue_wait_s", "serve_job_latency_s",
                       "serve_jobs_finished", "serve_live_jobs",
                       "serve_grants_total", "serve_tenant_busy_s",
                       'tenant="beta"'):
            assert needle in text, needle
    finally:
        release_all(sys_, jobs)


def test_tenant_busy_share_sums_to_one():
    stream = [Arrival(vt=0.0, spec=s) for s in MOUSE_SPECS]
    sys_, service, jobs = serve_stream(stream)
    try:
        total = sum(service.tenant_busy.values())
        busy = sum(j.busy_vt for j in jobs)
        assert total == pytest.approx(busy)
        assert total > 0
    finally:
        release_all(sys_, jobs)


def test_failed_job_is_contained():
    bad = JobSpec("spmv", tenant="beta", params=dict(nrows=512, seed=1,
                                                     block_nnz=-5))
    stream = [Arrival(vt=0.0, spec=bad),
              Arrival(vt=0.0, spec=MOUSE_SPECS[1])]
    sys_, service, jobs = serve_stream(stream)
    try:
        states = {j.state for j in jobs}
        assert JobState.FAILED in states
        assert JobState.DONE in states
        failed = next(j for j in jobs if j.state is JobState.FAILED)
        assert failed.error is not None
        healthy = next(j for j in jobs if j.state is JobState.DONE)
        served = np.ascontiguousarray(healthy.app.result())
        assert served.tobytes() == solo_result(healthy.spec).tobytes()
    finally:
        release_all(sys_, jobs)


def test_rejected_jobs_surface_in_results():
    stream = [Arrival(vt=0.0, spec=MOUSE_SPECS[1]) for _ in range(4)]
    sys_, service, jobs = serve_stream(stream, max_pending=1,
                                       max_live_per_tenant=1)
    try:
        states = [j.state for j in jobs]
        assert states.count(JobState.REJECTED) >= 1
        assert service.admission.rejected == states.count(JobState.REJECTED)
        rows = service.results()
        assert len(rows) == len(jobs)
        assert {r.state for r in rows} == {s.value for s in states}
    finally:
        release_all(sys_, jobs)


def test_quota_capped_tenant_fails_not_crashes():
    stream = [Arrival(vt=0.0, spec=MOUSE_SPECS[1]),
              Arrival(vt=0.0, spec=MOUSE_SPECS[3])]
    sys_ = fresh_system()
    service = JobService(sys_, ServeConfig(
        policy="fair",
        quotas={"beta": TenantQuota(alloc_bytes=1024),
                "gamma": TenantQuota()}))
    jobs = service.run(stream)
    try:
        by_tenant = {j.tenant: j for j in jobs}
        assert by_tenant["beta"].state is JobState.FAILED
        from repro.errors import QuotaError
        assert isinstance(by_tenant["beta"].error, QuotaError)
        assert by_tenant["gamma"].state is JobState.DONE
    finally:
        release_all(sys_, jobs)


def test_status_is_safe_while_the_shm_pool_cycles_segments():
    """``status()`` runs on the HTTP thread while the loop thread's
    executor takes and gives pool segments.  It must never walk a
    container that thread is changing: a fixed number of calls, each
    racing the pool's free lists gaining a size, all succeed."""
    from repro.exec import SharedMemExecutor, shm_residue

    calls = 2000
    ex = SharedMemExecutor(workers=1)
    sys_ = System(configs.scaled_apu_tree("ssd"), executor=ex)
    service = JobService(sys_, ServeConfig())
    errors: list[BaseException] = []

    def poll():
        try:
            for _ in range(calls):
                pool = service.status()["shm_pool"]
                assert set(pool) == {"segments", "reused", "free"}
        except BaseException as exc:       # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)            # hand over mid-call, often
    poller = threading.Thread(target=poll)
    try:
        poller.start()
        size = 0
        while poller.is_alive():
            # Every round frees a segment of a size the pool has not
            # seen (a new free-list key) and reuses an older one.
            size += 1
            fresh = ex._pool.take(size, force=True)
            again = ex._pool.take(1 + size // 2, force=True)
            ex._pool.give(fresh)
            ex._pool.give(again)
        poller.join()
    finally:
        sys.setswitchinterval(interval)
        sys_.close()
        ex.close()
    assert not errors, repr(errors[0])
    assert size > 1
    assert shm_residue() == []
