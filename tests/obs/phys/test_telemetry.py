"""The telemetry plane end-to-end: worker buffers fill, piggybacked
payloads land keyed by ticket, sub-phases split out per backend, the
watchdog counts only the silence of workers holding tickets, and the
residue audits flag leaked aggregators until the executor closes
them."""

import time

import numpy as np
import pytest

from repro.dist import DistExecutor, dist_residue
from repro.exec import SharedMemExecutor, fn_ref, shm_residue
from repro.obs.health import HEALTHY, WEDGED, Watchdog
from repro.obs.phys import PhysTelemetry, TelemetryBuffer, telemetry_residue
from tests.exec import kernels


def _arr(value=0.0, n=256):
    return np.full(n, value, dtype=np.float32)


# -- the buffer --------------------------------------------------------------

def test_buffer_records_and_drains():
    buf = TelemetryBuffer("w9")
    buf.record("kernel", 10, 30, ticket=4, nbytes=1024)
    buf.record("send", 30, 31, ticket=4, nbytes=128)
    assert len(buf) == 2
    records = buf.drain()
    assert records == [("kernel", 10, 30, 4, 1024),
                       ("send", 30, 31, 4, 128)]
    assert len(buf) == 0
    assert buf.drain() == []          # drain is destructive and safe


def test_buffer_rss_is_an_instant():
    buf = TelemetryBuffer("w0")
    buf.record_rss(ticket=7)
    records = buf.drain()
    if records:                       # rss needs /proc; 0 is skipped
        ((kind, t0, t1, ticket, rss),) = records
        assert kind == "rss" and t0 == t1 and ticket == 7 and rss > 0


# -- the aggregator ----------------------------------------------------------

def test_submit_context_joins_ack_payload_on_ticket():
    tel = PhysTelemetry(backend="test")
    tel.current_span = 42
    tel.current_node = 3
    tel.current_partition = 1
    tel.note_submit(17)
    tel.note_grant_sent(17, 1000)
    # Context moves on before the ack returns; the join must not care.
    tel.current_span = 99
    tel.note_ack("w1", 17, records=[("kernel", 1100, 1200, 17, 64)],
                 phases={"kernel": 1e-7}, seconds=1e-7, recv_ns=1300)
    info = tel.tickets[17]
    assert info["span"] == 42 and info["node"] == 3
    assert info["partition"] == 1 and info["worker"] == "w1"
    assert info["phases"] == {"kernel": 1e-7}
    assert tel.span_of(17) == 42
    assert tel.records["w1"] == [("kernel", 1100, 1200, 17, 64)]
    assert tel.last_seen_ns["w1"] == 1300
    tel.close()


def test_note_inline_allocates_distinct_pseudo_tickets():
    tel = PhysTelemetry(backend="inline")
    t1 = tel.note_inline("main", "kernel", 0, 2_000_000, nbytes=10)
    t2 = tel.note_inline("main", "kernel", 2_000_000, 3_000_000)
    assert t1 < 0 and t2 < 0 and t1 != t2
    assert tel.tickets[t1]["seconds"] == pytest.approx(2e-3)
    assert len(tel.records["main"]) == 2
    tel.close()


def test_worker_stats_and_straggler_summary():
    tel = PhysTelemetry(backend="test")
    # w0 and w1 do one fast kernel each; w2 drags 10x longer.
    ns = 1_000_000
    for worker, dur in (("w0", 2 * ns), ("w1", 2 * ns), ("w2", 20 * ns)):
        tel.records[worker] = [("kernel", 0, dur, 1, 0),
                               ("send", dur, dur + ns // 10, 1, 0),
                               ("rss", dur, dur, -1, 123456)]
    stats = tel.worker_stats()
    assert set(stats) == {"w0", "w1", "w2"}
    w0 = stats["w0"]
    assert w0["tasks"] == 1
    assert w0["kernel_s"] == pytest.approx(2e-3)
    assert w0["busy_s"] == pytest.approx(2.1e-3)
    assert w0["rss_max_bytes"] == 123456
    assert 0.0 < w0["utilization"] <= 1.0
    assert set(w0["phases"]) == {"kernel", "send"}   # instants excluded
    summary = tel.summary()
    assert summary["backend"] == "test"
    assert summary["tasks"] == 3
    assert summary["stragglers"] == ["w2"]
    assert summary["busy_skew"] == pytest.approx(
        (20.1 * ns) / ((2.1 + 2.1 + 20.1) * ns / 3))
    assert summary["phases"]["kernel"] == pytest.approx(24e-3)
    tel.close()


def test_telemetry_residue_lifecycle():
    tel = PhysTelemetry(backend="dist")
    tel.records["w0"] = [("kernel", 0, 1, 1, 0)]
    entries = telemetry_residue("dist")
    assert entries == ["phys-telemetry(dist, records=1)"]
    assert telemetry_residue("shm") == []            # backend-filtered
    tel.close()
    assert telemetry_residue("dist") == []
    # Data survives close for post-run analysis.
    assert tel.records["w0"]


# -- the dist backend --------------------------------------------------------

def test_dist_ack_carries_sub_phases_and_records():
    ex = DistExecutor(workers=2, telemetry=True)
    try:
        assert dist_residue() != []   # open aggregator is flagged...
        ex.set_task_context(node_id=5, partition=1, span_id=77)
        tickets = [ex.submit(fn_ref(kernels.fill),
                             [("out", _arr(), True)], {"value": float(i)})
                   for i in range(6)]
        for t in tickets:
            ex.wait(t)
            ex.release(t)
        tel = ex.telemetry
        # Sub-phases: every completed ticket reports the worker-side
        # split, and the grant left before the ack came back.
        done = [info for info in tel.tickets.values() if info["phases"]]
        assert len(done) == len(tickets)
        for info in done:
            assert set(info["phases"]) == {"unpickle", "setup", "kernel"}
            assert all(v >= 0.0 for v in info["phases"].values())
            assert info["seconds"] >= info["phases"]["kernel"]
            assert info["span"] == 77 and info["node"] == 5
        for ticket in tickets:
            sent = tel.grant_sent[ticket]
            assert sent < tel.tickets[ticket]["ack_recv_ns"]
        # Records merged per worker; both workers saw work (round
        # robin).
        assert set(tel.records) == {"w0", "w1"}
        kinds = {r[0] for recs in tel.records.values() for r in recs}
        assert {"unpickle", "setup", "kernel"} <= kinds
        stats = tel.worker_stats()
        assert sum(w["tasks"] for w in stats.values()) == len(tickets)
    finally:
        ex.close()
    assert dist_residue() == []       # ...and close retires it


def test_dist_error_ack_still_reports_partial_phases():
    ex = DistExecutor(workers=1, telemetry=True)
    try:
        ticket = ex.submit(fn_ref(kernels.boom),
                           [("x", _arr(), False)], {})
        with pytest.raises(Exception, match="exploded"):
            ex.wait(ticket)
        info = ex.telemetry.tickets[ticket]
        assert info["phases"] is not None
        assert "unpickle" in info["phases"]
    finally:
        ex.close()
    assert dist_residue() == []


@pytest.mark.parametrize("pool", [SharedMemExecutor, DistExecutor],
                         ids=["shm", "dist"])
def test_watchdog_counts_silence_only_while_a_ticket_is_held(pool):
    """An idle pool is healthy however long it idles; a worker sitting
    on an un-acked ticket reads wedged once it has been silent past
    the threshold."""
    S = 1_000_000_000
    dog = Watchdog(slow_after_s=3.0, wedged_after_s=10.0)
    ex = pool(workers=2, telemetry=True)
    try:
        for value in range(4):
            t = ex.submit(fn_ref(kernels.fill), [("out", _arr(), True)],
                          {"value": float(value)})
            ex.wait(t)
            ex.release(t)
        idle = ex.silent_since()
        assert idle and all(since is None for since in idle.values())
        health = dog.classify(idle, now_ns=time.perf_counter_ns() + 11 * S)
        assert all(h.state == HEALTHY for h in health.values())

        held = ex.submit(fn_ref(kernels.snooze), [("x", _arr(), False)],
                         {"seconds": 0.2})
        deadline = time.monotonic() + 5.0
        while not any(ex.silent_since().values()) and \
                time.monotonic() < deadline:
            ex._pump(0.01)                # shm assigns at the claim
        busy = ex.silent_since()
        health = dog.classify(busy, now_ns=time.perf_counter_ns() + 11 * S)
        assert [h.state for h in health.values()].count(WEDGED) == 1
        ex.wait(held)
        assert all(since is None for since in ex.silent_since().values())
    finally:
        ex.close()
    assert shm_residue() == [] and dist_residue() == []


# -- the shm backend ---------------------------------------------------------

def test_shm_telemetry_reports_attach_and_kernel_phases():
    ex = SharedMemExecutor(workers=2, telemetry=True)
    try:
        tickets = [ex.submit(fn_ref(kernels.scale_offset),
                             [("block", _arr(2.0), True)],
                             {"factor": 1.5})
                   for _ in range(4)]
        for t in tickets:
            result = ex.wait(t)
            np.testing.assert_allclose(result.outputs["block"],
                                       _arr(3.0))
            ex.release(t)
        tel = ex.telemetry
        kinds = {r[0] for recs in tel.records.values() for r in recs}
        assert "kernel" in kinds and "attach" in kinds
        assert all(tel.tickets[t]["ack_recv_ns"] for t in tickets)
        for info in tel.tickets.values():
            if info["phases"]:
                assert "kernel" in info["phases"]
    finally:
        ex.close()
    assert shm_residue() == []
