"""The distributed projection model: serial baseline, scaling shape,
network costs, and determinism."""

import pytest

from repro.core.scheduler import InOrderScheduler
from repro.core.system import System
from repro.dist.model import project_plan, project_run
from repro.memory.network import LOOPBACK, NetworkChannel
from repro.memory.units import KB, MB
from repro.topology.builders import apu_two_level


@pytest.fixture(scope="module")
def gemm_run():
    from repro.apps.gemm import GemmApp

    sched = InOrderScheduler(keep_plans=True)
    sys_ = System(apu_two_level(storage_capacity=8 * MB,
                                staging_bytes=256 * KB))
    try:
        app = GemmApp(sys_, m=128, k=128, n=128, seed=3)
        app.run(sys_, scheduler=sched)
        yield sched
    finally:
        sys_.close()


def test_one_worker_is_the_serial_sum(gemm_run):
    pr = project_plan(gemm_run.plans[0], workers=1)
    assert pr.makespan_s == pytest.approx(pr.serial_s)
    assert pr.speedup == pytest.approx(1.0)
    assert pr.shipments == 0 and pr.net_seconds == 0.0
    assert pr.lane_busy_s[0] == pytest.approx(pr.serial_s)


def test_more_workers_never_hurt_without_network(gemm_run):
    plan = gemm_run.plans[0]
    curve = [project_plan(plan, workers=w) for w in (1, 2, 4, 8)]
    spans = [pr.makespan_s for pr in curve]
    assert spans == sorted(spans, reverse=True), (
        "adding lanes with a free network must not slow the projection")
    assert curve[1].speedup > 1.05, (
        "a multi-chunk gemm should project real 2-worker overlap")
    for pr in curve:
        assert sum(pr.lane_busy_s) == pytest.approx(pr.serial_s)


def test_network_charges_slow_the_projection(gemm_run):
    plan = gemm_run.plans[0]
    free = project_plan(plan, workers=2)
    net = project_plan(plan, workers=2, channel=LOOPBACK)
    assert net.shipments > 0 and net.shipped_bytes > 0
    assert net.net_seconds > 0.0
    assert net.makespan_s >= free.makespan_s
    # A catastrophically slow fabric dominates the makespan entirely.
    dialup = NetworkChannel(name="dialup", bandwidth=1e3, latency=0.5)
    worst = project_plan(plan, workers=2, channel=dialup)
    assert worst.makespan_s > net.serial_s, (
        "shipping over a 1KB/s link must cost more than staying serial")


def test_projection_is_deterministic(gemm_run):
    plan = gemm_run.plans[0]
    a = project_plan(plan, workers=4, channel=LOOPBACK)
    b = project_plan(plan, workers=4, channel=LOOPBACK)
    assert a == b


def test_project_run_aggregates_top_level_plans(gemm_run):
    pr = project_run(gemm_run.plans, workers=2, channel=LOOPBACK)
    tops = [p for p in gemm_run.plans if p.ctx.node.parent is None]
    parts = [project_plan(p, workers=2, channel=LOOPBACK) for p in tops]
    assert pr.makespan_s == pytest.approx(
        sum(p.makespan_s for p in parts))
    assert pr.serial_s == pytest.approx(sum(p.serial_s for p in parts))
    assert pr.shipments == sum(p.shipments for p in parts)
    row = pr.row()
    assert row["workers"] == 2 and row["speedup"] > 0


def test_project_run_requires_plans():
    with pytest.raises(ValueError, match="keep_plans"):
        project_run([], workers=2)
