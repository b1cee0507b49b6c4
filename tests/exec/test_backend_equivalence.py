"""Cross-backend equivalence: every app, every backend, byte-identical
result bytes AND bit-identical virtual makespans.

This is the executor split's core contract: virtual time is charged on
the simulator thread at launch, so no backend may move a makespan; the
ledger replays merged kernel outputs and deferred copies in submission
order, so no backend may change a result byte.  The suite runs all
four paper apps (GEMM, HotSpot, SpMV, sort -- sort's merge sizing is
capacity-feedback-sensitive, which is exactly what the zombie-free
capacity credit keeps identical) against the inline reference, then
repeats the check under the serve layer.
"""

import hashlib

import numpy as np
import pytest

from repro.core.system import System
from repro.exec import EXEC_BACKENDS, shm_residue
from repro.memory.units import KB, MB
from repro.topology.builders import apu_two_level
from repro.workloads.sparse import powerlaw_rows

ASYNC_BACKENDS = [b for b in EXEC_BACKENDS if b != "inline"]


def _gemm(sys_):
    from repro.apps.gemm import GemmApp
    return GemmApp(sys_, m=128, k=128, n=128, seed=3)


def _hotspot(sys_):
    from repro.apps.hotspot import HotspotApp
    return HotspotApp(sys_, n=96, iterations=2, seed=4)


def _spmv(sys_):
    from repro.apps.spmv import SpmvApp
    return SpmvApp(sys_, matrix=powerlaw_rows(3000, 3000, alpha=1.5,
                                              max_row=512, seed=3),
                   seed=3)


def _sort(sys_):
    from repro.apps.sort import SortApp
    return SortApp(sys_, n=40_000, seed=3)


CASES = {
    "gemm": (_gemm, lambda: apu_two_level(storage_capacity=8 * MB,
                                          staging_bytes=256 * KB)),
    "hotspot": (_hotspot, lambda: apu_two_level(storage_capacity=16 * MB,
                                                staging_bytes=128 * KB)),
    "spmv": (_spmv, lambda: apu_two_level(storage_capacity=16 * MB,
                                          staging_bytes=128 * KB)),
    "sort": (_sort, lambda: apu_two_level(storage_capacity=16 * MB,
                                          staging_bytes=128 * KB)),
}


def _run(name, backend):
    make_app, make_tree = CASES[name]
    sys_ = System(make_tree(), executor=backend)
    try:
        app = make_app(sys_)
        app.run(sys_)
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        return digest, sys_.makespan(), len(sys_.timeline.trace)
    finally:
        sys_.close()


@pytest.mark.parametrize("backend", ASYNC_BACKENDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_backend_matches_inline(name, backend):
    ref_digest, ref_makespan, ref_intervals = _run(name, "inline")
    digest, makespan, intervals = _run(name, backend)
    assert digest == ref_digest, (
        f"{name} under {backend!r} changed the result bytes")
    assert makespan == ref_makespan, (
        f"{name} under {backend!r} drifted virtual time: "
        f"{makespan} != {ref_makespan}")
    assert intervals == ref_intervals, (
        f"{name} under {backend!r} changed the trace shape")
    assert shm_residue() == []


def test_exec_metrics_recorded_for_async_run():
    sys_ = System(apu_two_level(storage_capacity=8 * MB,
                                staging_bytes=256 * KB), executor="shm")
    try:
        app = _gemm(sys_)
        app.run(sys_)
        stats = sys_.executor.stats
        assert stats.submitted > 0
        assert stats.completed == stats.submitted
        assert sum(stats.worker_tasks.values()) == stats.completed
    finally:
        sys_.close()


@pytest.mark.parametrize("backend", ASYNC_BACKENDS)
def test_budget_waits_are_counted_and_reported(monkeypatch, backend):
    """Under a tiny in-flight budget every pool stages behind acks: the
    result stays exact, and the waits reach the stats, the
    ``exec_budget_waits`` gauge and ``RunReport``."""
    from repro.exec import pool
    from repro.obs.report import RunReport

    monkeypatch.setattr(pool, "SEGMENT_BUDGET_BYTES", 16 * KB)
    sys_ = System(apu_two_level(storage_capacity=8 * MB,
                                staging_bytes=256 * KB), executor=backend)
    try:
        app = _gemm(sys_)
        app.run(sys_)
        assert np.array_equal(app.result(), app.reference())
        stats = sys_.executor.stats
        assert stats.budget_waits > 0 and stats.budget_wait_seconds > 0
        assert stats.dispatch_seconds > 0
        [gauge] = sys_.metrics.snapshot()["exec_budget_waits"]
        assert gauge["value"] == stats.budget_waits
        assert f"budget waits: {stats.budget_waits} stagings" in \
            RunReport.from_system(sys_).table()
    finally:
        sys_.close()


@pytest.mark.parametrize("backend", ASYNC_BACKENDS)
def test_serve_layer_matches_inline(backend):
    """A served 12-job stream dispatches and computes identically on
    every backend (virtual stats, dispatch digests, result bytes)."""
    import json

    from repro.serve import bench as serve_bench
    from tests.serve.sizes import SMALL_STREAM

    inline = serve_bench.run_policy("fair", sizes=SMALL_STREAM, seed=0)
    other = serve_bench.run_policy("fair", sizes=SMALL_STREAM, seed=0,
                                   executor=backend)
    del inline["meta"], other["meta"]     # the loop's wall-clock rate
    assert json.dumps(inline, sort_keys=True) == \
        json.dumps(other, sort_keys=True)
    assert shm_residue() == []
