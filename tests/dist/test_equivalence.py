"""The distributed bit-identity contract: every app, sharded across 2
and 4 worker processes, byte-identical results and bit-identical
virtual time vs the single-process in-order inline run."""

import pytest

from repro.core.system import System
from repro.dist import DistExecutor, DistributedScheduler, dist_residue
from repro.bench.cells import DIST_APP_CASES as APP_CASES
from repro.bench.cells import run_dist_app as _run_app

_REF_CACHE: dict = {}


def _reference(name):
    if name not in _REF_CACHE:
        _REF_CACHE[name] = _run_app(name)
    return _REF_CACHE[name]


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("name", sorted(APP_CASES))
def test_distributed_matches_single_process(name, workers):
    ref_digest, ref_makespan, ref_intervals = _reference(name)
    digest, makespan, intervals = _run_app(
        name, executor=DistExecutor(workers=workers),
        scheduler=DistributedScheduler())
    assert digest == ref_digest, (
        f"{name} x{workers} distributed changed the result bytes")
    assert makespan == ref_makespan, (
        f"{name} x{workers} distributed drifted virtual time: "
        f"{makespan} != {ref_makespan}")
    assert intervals == ref_intervals, (
        f"{name} x{workers} distributed changed the trace shape")
    assert dist_residue() == []


def test_every_partition_ran_kernels():
    make_app, make_tree = APP_CASES["gemm"]
    executor = DistExecutor(workers=2)
    sched = DistributedScheduler()
    sys_ = System(make_tree(), executor=executor)
    try:
        app = make_app(sys_)
        app.run(sys_, scheduler=sched)
        assert sorted(executor.stats.worker_tasks) == ["w0", "w1"], (
            "pinning starved a partition's worker of its kernels")
        parts = sched.partitionings[0]
        assert parts.workers == 2
        assert all(parts.counts())
    finally:
        sys_.close()
        executor.close()
