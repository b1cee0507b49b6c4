"""Worker records sit on the coordinator's clock: every pool worker is
a local child reading the same CLOCK_MONOTONIC ``perf_counter_ns``, so
with nothing remapped or clamped, each record of a granted ticket lies
between the grant leaving the coordinator and its ack arriving."""

import pytest

from repro.core.system import System
from repro.dist import DistExecutor, dist_residue
from repro.exec import SharedMemExecutor, shm_residue
from repro.memory.units import KB, MB
from repro.obs.phys import PhysTelemetry
from repro.topology.builders import apu_two_level


@pytest.mark.parametrize("pool", [SharedMemExecutor, DistExecutor],
                         ids=["shm", "dist"])
def test_worker_records_lie_between_grant_and_ack(pool):
    from repro.apps.gemm import GemmApp

    ex = pool(workers=2, telemetry=True)
    sys_ = System(apu_two_level(storage_capacity=8 * MB,
                                staging_bytes=256 * KB), executor=ex)
    try:
        GemmApp(sys_, m=128, k=128, n=128, seed=3).run(sys_)
    finally:
        sys_.close()
        ex.close()
    tel = ex.telemetry
    records = tel.merger().records()
    granted = [r for r in records if r.ticket in tel.grant_sent]
    assert {r.kind for r in granted} >= {"setup", "kernel"}
    assert len({r.ticket for r in granted}) == len(tel.grant_sent)
    for rec in granted:
        sent = tel.grant_sent[rec.ticket]
        acked = tel.tickets[rec.ticket]["ack_recv_ns"]
        assert sent <= rec.t0_ns <= rec.t1_ns, rec
        # The ack's own send time rides the *next* ack, and the
        # coordinator may finish reading the ack before the worker's
        # write returns: only its start is bounded by the arrival.
        assert (rec.t0_ns if rec.kind == "send" else rec.t1_ns) <= acked, \
            rec
    assert shm_residue() == [] and dist_residue() == []


def test_epoch_and_kernel_anchors():
    tel = PhysTelemetry(backend="test")
    for ticket, sent in ((1, 100), (2, 200)):
        tel.note_submit(ticket)
        tel.note_grant_sent(ticket, sent)
    tel.records = {"w0": [("kernel", 150, 250, 1, 0)],
                   "w1": [("kernel", 220, 300, 2, 0),
                          ("kernel", 320, 400, 2, 0)]}
    tel.close()
    tel.tickets[1]["span"] = 11
    tel.tickets[2]["span"] = 22
    merger = tel.merger()
    assert merger.epoch_ns == 100.0
    anchors = merger.kernel_anchors()
    assert set(anchors) == {11, 22}
    s1, w1 = anchors[11]
    assert w1 == "w0" and s1 == pytest.approx((150 - 100) / 1e9)
    # Only the *first* kernel record anchors a span.
    s2, w2 = anchors[22]
    assert w2 == "w1" and s2 == pytest.approx((220 - 100) / 1e9)
