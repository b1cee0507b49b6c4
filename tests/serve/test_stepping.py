"""Jobs as resumable iterators on the loop's thread: failure containment,
cancellation, and the no-threads guarantee."""

import threading

import numpy as np
import pytest

from repro.cache.manager import CacheManager
from repro.errors import KernelError, SchedulerError
from repro.serve import Arrival, JobService, JobState, ServeConfig
from tests.serve.test_service import (MOUSE_SPECS, fresh_system, release_all,
                                      solo_result)

GEMM, SORT, SPMV, HOTSPOT = MOUSE_SPECS


def stream_of(*specs):
    return [Arrival(vt=0.0, spec=s) for s in specs]


def assert_ambient_context_restored(sys_):
    assert sys_.timeline.floor == 0.0
    assert sys_.current_tenant == ""
    assert sys_.serve_scope is None
    assert sys_.obs._stack == [0]


def assert_unwound(sys_, job):
    """The job's iterator is finished and every span it opened closed;
    its cache leases went with its ``end_run``."""
    assert job.steps.gi_frame is None
    assert job.span_stack == [0]
    assert job.job_id not in sys_.cache._lease_scope.values()


#: What :func:`faulty_kernel` raises (kernels must be module-level
#: functions, so the fault travels through a module global).
KERNEL_FAULT: list = []


def faulty_kernel(*args, **kwargs):
    raise KERNEL_FAULT[0]


def break_spmv_kernel(monkeypatch, exc):
    import repro.apps.spmv

    monkeypatch.setattr(repro.apps.spmv, "spmv_block", faulty_kernel)
    KERNEL_FAULT[:] = [exc]


def raise_on_call(monkeypatch, owner, name, n, exc):
    """Make the ``n``-th call of ``owner.name`` raise ``exc``."""
    real = getattr(owner, name)
    calls = [0]

    def faulty(*args, **kwargs):
        calls[0] += 1
        if calls[0] == n:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, faulty)


@pytest.mark.parametrize("where", ["kernel", "sort_merge"])
def test_raising_job_fails_alone_and_unwinds(monkeypatch, where):
    import repro.apps.sort

    if where == "kernel":
        victim = "spmv"
        break_spmv_kernel(monkeypatch, KernelError("injected kernel fault"))
    else:
        victim = "sort"
        raise_on_call(monkeypatch, repro.apps.sort.SortApp, "_merge_runs",
                      1, KernelError("injected merge fault"))
    ended: list = []
    real_end = CacheManager.end_run
    monkeypatch.setattr(
        CacheManager, "end_run",
        lambda self: (ended.append(self.system.serve_scope), real_end(self)))

    sys_ = fresh_system()
    service = JobService(sys_, ServeConfig())
    jobs = service.run(stream_of(*MOUSE_SPECS))
    try:
        failed = [j for j in jobs if j.state is JobState.FAILED]
        assert [j.spec.app for j in failed] == [victim]
        assert isinstance(failed[0].error, KernelError)
        assert_unwound(sys_, failed[0])
        if where == "kernel":       # SpmvApp.steps ends in a finally
            assert failed[0].job_id in ended
        assert_ambient_context_restored(sys_)
        monkeypatch.undo()          # solo oracles run unpatched
        for job in jobs:
            if job is not failed[0]:
                assert job.state is JobState.DONE
                served = np.ascontiguousarray(job.app.result())
                assert served.tobytes() == solo_result(job.spec).tobytes()
    finally:
        release_all(sys_, jobs)


@pytest.mark.parametrize("where", ["loop", "job"])
def test_keyboard_interrupt_closes_every_live_iterator(monkeypatch, where):
    sys_ = fresh_system()
    service = JobService(sys_, ServeConfig())
    if where == "loop":
        raise_on_call(monkeypatch, service.policy, "select", 6,
                      KeyboardInterrupt())
    else:
        break_spmv_kernel(monkeypatch, KeyboardInterrupt())
    threads = threading.active_count()
    try:
        with pytest.raises(KeyboardInterrupt):
            service.run(stream_of(*MOUSE_SPECS))
        assert service.live == []
        jobs = service.finished
        assert len(jobs) == 4
        cancelled = [j for j in jobs if j.state is JobState.FAILED]
        assert cancelled
        for job in cancelled:
            assert isinstance(job.error, SchedulerError)
            assert "cancelled" in str(job.error)
        for job in jobs:
            assert_unwound(sys_, job)
        assert_ambient_context_restored(sys_)
        assert threading.active_count() == threads
    finally:
        release_all(sys_, service.finished)


def test_close_mid_stream_cancels_and_is_idempotent():
    sys_ = fresh_system()
    service = JobService(sys_, ServeConfig())
    try:
        for spec in MOUSE_SPECS:
            service.submit(spec, vt=0.0)
        for job in service.admission.admit_ready(service.live):
            service._start(job)
        for _ in range(5):
            service._grant(service.policy.select(service.live))
        live = list(service.live)
        assert live and all(j.steps.gi_frame is not None for j in live)
        service.close()
        service.close()
        assert service.live == []
        for job in live:
            assert job.state is JobState.FAILED
            assert_unwound(sys_, job)
        assert_ambient_context_restored(sys_)
        # The service still serves: cancellation left no state behind.
        (after,) = service.run(stream_of(SORT))
        assert after.state is JobState.DONE
        served = np.ascontiguousarray(after.app.result())
        assert served.tobytes() == solo_result(SORT).tobytes()
    finally:
        release_all(sys_, service.finished)


def test_serving_starts_no_threads(monkeypatch):
    sys_ = fresh_system()
    service = JobService(sys_, ServeConfig())
    seen = {threading.active_count()}
    real = service.policy.select
    monkeypatch.setattr(
        service.policy, "select",
        lambda live: (seen.add(threading.active_count()), real(live))[1])
    jobs = service.run(stream_of(*MOUSE_SPECS, *MOUSE_SPECS))
    try:
        assert [j.state for j in jobs] == [JobState.DONE] * 8
        seen.add(threading.active_count())
        assert len(seen) == 1, seen
    finally:
        release_all(sys_, jobs)


def test_plain_run_rejects_a_cooperative_scheduler():
    """``run()`` sends nothing at a yield, so a cooperative scheduler
    refuses instead of silently granting itself."""
    from repro.serve import CooperativeScheduler

    sys_ = fresh_system()
    try:
        app = SORT.build(sys_)
        with pytest.raises(SchedulerError, match="did not offer"):
            app.run(sys_, scheduler=CooperativeScheduler())
    finally:
        sys_.close()
