"""The distributed bit-identity contract: every app, sharded across 2
and 4 worker processes, byte-identical results and bit-identical
virtual time vs the single-process in-order inline run -- and, with
the network level enabled, unchanged results with shipments visible on
the trace."""

import hashlib

import numpy as np
import pytest

from repro.core.system import System
from repro.dist import DistExecutor, DistributedScheduler, dist_residue
from repro.bench.cells import DIST_APP_CASES as APP_CASES
from repro.bench.cells import run_dist_app as _run_app
from repro.memory.network import NETWORK_PRESETS
from repro.sim.trace import Phase

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


def test_network_level_charges_shipments_without_changing_results():
    make_app, make_tree = APP_CASES["gemm"]
    ref = _reference("gemm")
    tree = make_tree()
    tree.attach_network(NETWORK_PRESETS["loopback"])
    executor = DistExecutor(workers=2)
    sched = DistributedScheduler(keep_plans=True)
    sys_ = System(tree, executor=executor)
    try:
        app = make_app(sys_)
        app.run(sys_, scheduler=sched)
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        assert digest == ref[0], "network charges may not touch bytes"
        assert sys_.makespan() >= ref[1], (
            "a modeled network cannot make the schedule faster")
        net = [iv for iv in sys_.timeline.trace
               if iv.phase is Phase.NET_TRANSFER]
        assert net, "no shipment landed on the trace"
        # One joint interval per shipment, occupying the source's tx
        # lane and the destination's rx lane together.
        assert all(iv.resource.startswith("net.loopback.w")
                   and ".rx" in iv.resource for iv in net)
        meta = sched.plans[0].graph.meta["network"]
        assert meta["shipments"] == len(net)
        assert meta["channel"]["name"] == "loopback"
    finally:
        sys_.close()
        executor.close()


def test_explicit_network_beats_tree_attachment():
    # DistributedScheduler(network=...) works without touching the
    # topology -- and disabling it (no network anywhere) stays
    # bit-identical, which the parametrized suite above pins down.
    ref = _reference("hotspot")
    make_app, make_tree = APP_CASES["hotspot"]
    executor = DistExecutor(workers=2)
    sched = DistributedScheduler(network=NETWORK_PRESETS["ib-edr"])
    sys_ = System(make_tree(), executor=executor)
    try:
        app = make_app(sys_)
        app.run(sys_, scheduler=sched)
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        assert digest == ref[0]
        net = [iv for iv in sys_.timeline.trace
               if iv.phase is Phase.NET_TRANSFER]
        assert net and all("ib-edr" in iv.resource for iv in net)
    finally:
        sys_.close()
        executor.close()
