"""The shm data plane: snapshots staged straight into pooled segments,
read-only segments recycled on the ack, the live-bytes budget, what a
dead worker does to its ticket, and what is left behind after
``close()`` or a crash."""

import contextlib
import gc
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.exec import ExecError, SharedMemExecutor, fn_ref, shm_residue
from repro.exec import shm
from tests.exec import kernels

AXPY = fn_ref(kernels.axpy)
FILL = fn_ref(kernels.fill)
DIE = fn_ref(kernels.die)
SNOOZE = fn_ref(kernels.snooze)

MIB = 1024 * 1024


@contextlib.contextmanager
def _within(seconds):
    """Turn a hang into a failure: SIGALRM raises inside the block."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still blocked after {seconds}s")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _staged(ex, values):
    """``values`` snapshotted the way ``System`` does it: one copy,
    into a buffer of the executor."""
    arr = ex.stage(values.nbytes).view(values.dtype).reshape(values.shape)
    arr[...] = values
    return arr


def _eventually(predicate, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


# -- (i) one copy, segments recycled on the ack ------------------------------

def test_readonly_segments_recycle_on_ack_and_staged_operands_copy_once(
        monkeypatch):
    copies = []
    real_copyto = np.copyto
    monkeypatch.setattr(np, "copyto", lambda dst, src, **kw: (
        copies.append(src.nbytes), real_copyto(dst, src, **kw))[1])
    n, shape = 24, (128, 128)                    # 64 KiB operands
    with SharedMemExecutor(workers=1) as ex:
        tickets = []
        for i in range(n):
            x = _staged(ex, np.full(shape, float(i), np.float32))
            y = _staged(ex, np.ones(shape, np.float32))
            tickets.append(ex.submit(AXPY, [("x", x, False), ("y", y, True)],
                                     {"alpha": 2.0}))
            # Acked, not released: only the read-only segment is free.
            out = ex.wait(tickets[-1]).outputs["y"]
            assert (out == 1.0 + 2.0 * i).all()
        pool = ex._pool
        # One x segment serves every task; the n outputs await release.
        assert pool.created == n + 1
        assert pool.reused == n - 1
        assert copies == []                      # staged: never re-copied
        assert ex.stats.bytes_in == n * 2 * 128 * 128 * 4
        assert ex.stats.bytes_out == n * 128 * 128 * 4
        for ticket in tickets:
            ex.release(ticket)
        assert pool.free_bytes == pool.live_bytes == (n + 1) * 64 * 1024
        assert f"{n + 1} created/{n - 1} reused" in ex.describe()
    assert shm_residue() == []


def test_acks_are_consumed_without_anyone_calling_wait(tmp_path):
    marker = tmp_path / "kernel-ran"
    with SharedMemExecutor(workers=1) as ex:
        x = _staged(ex, np.zeros(1024))
        ticket = ex.submit(fn_ref(kernels.touch), [("x", x, False)],
                           {"path": str(marker)})
        assert _eventually(marker.exists)
        time.sleep(0.05)                # the ack follows the kernel
        assert ex._unacked == {ticket}  # ... and nobody has read it yet
        again = ex.stage(x.nbytes)      # any touch drains the replies
        assert not ex._unacked
        assert np.shares_memory(again, x)        # x's segment, recycled
        assert ex._pool.created == 1 and ex._pool.reused == 1
        ex.wait(ticket)
    assert shm_residue() == []


# -- (ii) the budget ---------------------------------------------------------

def test_live_bytes_stay_under_the_budget_while_acks_can_free_segments(
        monkeypatch):
    monkeypatch.setattr(shm, "SEGMENT_BUDGET_BYTES", 8 * MIB)
    payload = np.arange(MIB // 8, dtype=np.float64)          # 1 MiB
    with SharedMemExecutor(workers=2) as ex, _within(60):
        tickets = []
        for _ in range(200):
            x = _staged(ex, payload)
            assert ex._pool.live_bytes <= 8 * MIB
            tickets.append(ex.submit(SNOOZE, [("x", x, False)],
                                     {"seconds": 0.001}))
        for ticket in tickets:
            ex.wait(ticket)
            ex.release(ticket)
        assert ex._pool.peak_bytes <= 8 * MIB
        assert ex._pool.created <= 8
        assert ex.stats.completed == 200
    assert shm_residue() == []


def test_budget_held_by_unmerged_outputs_does_not_block(monkeypatch):
    monkeypatch.setattr(shm, "SEGMENT_BUDGET_BYTES", MIB)
    with SharedMemExecutor(workers=2) as ex, _within(30):
        # 8 x 512 KiB of writable outputs, none merged: no ack can free
        # a byte, so staging goes past the budget instead of waiting.
        tickets = [ex.submit(FILL, [("out", _staged(
            ex, np.zeros(MIB // 8, np.float32)), True)], {"value": float(i)})
            for i in range(8)]
        pool = ex._pool
        assert pool.peak_bytes == 4 * MIB
        for i, ticket in enumerate(tickets):
            assert (ex.wait(ticket).outputs["out"] == float(i)).all()
            ex.release(ticket)
        # Segments made past the budget are unlinked, not pooled.
        assert pool.live_bytes <= MIB
        assert len(shm_residue()) == pool.live_bytes // (512 * 1024)
    assert shm_residue() == []


def test_copied_operands_of_one_submit_do_not_wait_for_each_other(
        monkeypatch):
    """The ticket ``submit`` is building holds segments no ack will
    free; its second operand must not wait for its first."""
    monkeypatch.setattr(shm, "SEGMENT_BUDGET_BYTES", MIB)
    x = np.arange(768 * 1024, dtype=np.uint8)                # caller's own
    y = x[::-1].copy()
    with SharedMemExecutor(workers=1) as ex, _within(10):
        for _ in range(2):                       # cold pool, then warm
            ticket = ex.submit(fn_ref(kernels.differ), [
                ("x", x, False), ("y", y, False),
                ("out", np.zeros(1, np.int64), True)], {})
            assert ex.wait(ticket).outputs["out"][0] == x.size
            ex.release(ticket)
        assert ex._pool.live_bytes <= MIB
    assert shm_residue() == []


def test_copied_operands_go_past_a_budget_held_by_unmerged_outputs(
        monkeypatch):
    monkeypatch.setattr(shm, "SEGMENT_BUDGET_BYTES", MIB)
    with SharedMemExecutor(workers=2) as ex, _within(10):
        held = [ex.submit(FILL, [("out", _staged(
            ex, np.zeros(MIB // 8, np.float32)), True)], {"value": 1.0})
            for _ in range(2)]                   # 2 x 512 KiB, un-merged
        x = np.ones(64 * 1024, np.float32)       # 256 KiB each, copied
        ticket = ex.submit(AXPY, [("x", x, False), ("y", x, True)],
                           {"alpha": 2.0})
        assert (ex.wait(ticket).outputs["y"] == 3.0).all()
        for t in (ticket, *held):
            ex.wait(t)
            ex.release(t)
    assert shm_residue() == []


def test_workers_let_go_of_segments_the_parent_unlinked(monkeypatch):
    """A mapping keeps an unlinked segment's pages in ``/dev/shm``; the
    budget means nothing if the workers' attachment caches pin them."""
    monkeypatch.setattr(shm, "SEGMENT_BUDGET_BYTES", MIB)
    with SharedMemExecutor(workers=1) as ex, _within(30):
        def dead_maps():
            ticket = ex.submit(fn_ref(kernels.count_dead_maps), [
                ("out", np.zeros(1, np.int64), True)],
                {"prefix": shm.SHM_PREFIX})
            count = int(ex.wait(ticket).outputs["out"][0])
            ex.release(ticket)
            return count

        for round_ in range(6):                  # every size evicts the last
            for size in (512 * 1024, 768 * 1024, 1024 * 1024):
                ticket = ex.submit(SNOOZE, [("x", _staged(
                    ex, np.zeros(size, np.uint8)), False)], {"seconds": 0.0})
                ex.wait(ticket)
                ex.release(ticket)
            assert dead_maps() == 0
        assert ex._pool.unlinked >= 17
        assert ex._pool.peak_bytes <= MIB
    assert shm_residue() == []


def test_other_sizes_are_evicted_before_the_budget_is_passed(monkeypatch):
    monkeypatch.setattr(shm, "SEGMENT_BUDGET_BYTES", MIB)
    with SharedMemExecutor(workers=1) as ex:
        for size in (512 * 1024, 768 * 1024, 1024 * 1024):
            ticket = ex.submit(SNOOZE, [("x", _staged(
                ex, np.zeros(size, np.uint8)), False)], {"seconds": 0.0})
            ex.wait(ticket)
            ex.release(ticket)
            assert ex._pool.live_bytes == size   # the previous one is gone
        assert ex._pool.peak_bytes <= MIB
    assert shm_residue() == []


def test_pool_stats_match_the_free_lists(monkeypatch):
    """``pool_stats`` is built from counters the pool maintains; after
    every step of a seeded take/give sequence that reuses, evicts and
    creates past the budget, they equal what the free lists hold."""
    monkeypatch.setattr(shm, "SEGMENT_BUDGET_BYTES", 64 * 1024)
    rng = np.random.default_rng(15)
    sizes = [4096, 8192, 16384, 24576, 32768]
    with SharedMemExecutor(workers=1) as ex:
        pool, held = ex._pool, []
        for _ in range(300):
            if held and rng.random() < 0.5:
                pool.give(held.pop(int(rng.integers(len(held)))))
            else:
                held.append(pool.take(int(rng.choice(sizes)), force=True))
            free = [seg for bucket in pool._free.values() for seg in bucket]
            assert ex.pool_stats() == {"segments": pool.created,
                                       "reused": pool.reused,
                                       "free": len(free)}
            assert pool.free_bytes == sum(seg.size for seg in free)
        # The sequence took every path: exact-size reuse, eviction of
        # other sizes, and unlink-on-give of segments past the budget.
        assert pool.reused and pool.unlinked
        assert pool.peak_bytes > shm.SEGMENT_BUDGET_BYTES
        for seg in held:
            pool.give(seg)
    assert shm_residue() == []


# -- (iii) a dead worker -----------------------------------------------------

def test_dead_workers_ticket_fails_fast_and_the_rest_complete():
    ex = SharedMemExecutor(workers=2)
    try:
        doomed = ex.submit(DIE, [("x", _staged(ex, np.zeros(1024)), False)],
                           {}, label="compute c3")
        fine = ex.submit(FILL, [("out", np.zeros(64, np.float32), True)],
                         {"value": 5.0})
        with _within(5):
            with pytest.raises(ExecError) as err:
                ex.wait(doomed)
            result = ex.wait(fine)
        msg = str(err.value)
        assert "died" in msg and "exit code 13" in msg
        assert "compute c3" in msg
        dead = next(iter(ex._dead))
        assert f"w{dead}" in msg and result.worker == f"w{1 - dead}"
        assert (result.outputs["out"] == 5.0).all()
        ex.release(fine)
        # The dead ticket's segments are the pool's again ...
        assert doomed not in ex._inflight and not ex._unacked
        assert ex._pool.free_bytes == ex._pool.live_bytes
        # ... and the survivor keeps serving.
        again = ex.submit(FILL, [("out", np.zeros(8, np.float32), True)],
                          {"value": 2.0})
        with _within(5):
            assert (ex.wait(again).outputs["out"] == 2.0).all()
        assert f"dead=[{dead}]" in ex.describe()
    finally:
        ex.close()
    assert shm_residue() == []


def test_last_worker_dying_fails_every_ticket_and_rejects_submits():
    with SharedMemExecutor(workers=1) as ex, _within(10):
        doomed = ex.submit(DIE, [("x", np.zeros(8), False)], {})
        queued = ex.submit(FILL, [("out", np.zeros(8), True)],
                           {"value": 1.0})
        with pytest.raises(ExecError, match="w0 died.*exit code 13"):
            ex.wait(doomed)
        with pytest.raises(ExecError, match="every shm worker died"):
            ex.wait(queued)
        with pytest.raises(ExecError, match="every shm worker is dead"):
            ex.submit(FILL, [("out", np.zeros(8), True)], {"value": 1.0})
    assert shm_residue() == []


def test_killing_an_idle_worker_never_hangs_wait(monkeypatch):
    """An idle worker may be killed while it holds the task queue's
    lock; then nobody can take a task again.  Either way ``wait``
    returns: with the result, or with the lost-ticket error."""
    monkeypatch.setattr(shm, "LOST_TICKET_TICKS", 2)
    with SharedMemExecutor(workers=2) as ex, _within(30):
        ex.wait(ex.submit(FILL, [("out", np.zeros(8), True)],
                          {"value": 0.0}))             # both are up
        os.kill(ex._procs[0].pid, signal.SIGKILL)
        ticket = ex.submit(FILL, [("out", np.zeros(8), True)],
                           {"value": 3.0})
        try:
            assert (ex.wait(ticket).outputs["out"] == 3.0).all()
        except ExecError as exc:
            assert "was lost" in str(exc) and "w0 exit code -9" in str(exc)
        assert not ex._unacked
        # A survivor stuck on that lock would sit out close()'s join.
        os.kill(ex._procs[1].pid, signal.SIGKILL)
    assert shm_residue() == []


def test_signal_handler_exceptions_pass_through_wait():
    with SharedMemExecutor(workers=1) as ex:
        ticket = ex.submit(SNOOZE, [("x", np.zeros(8), False)],
                           {"seconds": 1.0})
        with pytest.raises(TimeoutError), _within(0.3):
            ex.wait(ticket)


# -- (iv) operands that do and do not come from ``stage`` --------------------

def test_staged_buffer_never_submitted_is_reclaimed_at_close():
    ex = SharedMemExecutor(workers=1)
    buf = ex.stage(4096)
    buf[:] = 7
    assert len(shm_residue()) == 1
    del buf
    ex.close()
    assert shm_residue() == []
    with pytest.raises(ExecError, match="closed"):
        ex.stage(16)


def test_caller_owned_fortran_and_zero_size_operands_are_copied():
    with SharedMemExecutor(workers=1) as ex:
        x = np.asfortranarray(
            np.arange(48, dtype=np.float32).reshape(6, 8))   # F order
        y = np.ones((6, 8), dtype=np.float32)                # caller's own
        ticket = ex.submit(AXPY, [("x", x, False), ("y", y, True)],
                           {"alpha": 3.0})
        out = ex.wait(ticket).outputs["y"]
        np.testing.assert_array_equal(out, 1.0 + 3.0 * x)
        assert (y == 1.0).all()                  # the caller's is untouched
        ex.release(ticket)
        empty = ex.submit(FILL, [
            ("out", _staged(ex, np.empty(0, np.float32)), True)],
            {"value": 1.0})
        assert ex.wait(empty).outputs["out"].shape == (0,)
        ex.release(empty)
        assert ex.stats.bytes_in == 2 * 6 * 8 * 4
    assert shm_residue() == []


def test_part_of_a_staged_buffer_is_copied_not_adopted():
    with SharedMemExecutor(workers=1) as ex:
        whole = _staged(ex, np.arange(64, dtype=np.float32))
        ticket = ex.submit(AXPY, [("x", whole[32:], False),
                                  ("y", np.zeros(32, np.float32), True)],
                           {"alpha": 1.0})
        np.testing.assert_array_equal(ex.wait(ticket).outputs["y"],
                                      np.arange(32, 64, dtype=np.float32))
        ex.release(ticket)
        assert not ex._lent                      # the staged one went back
        assert ex._pool.free_bytes == ex._pool.live_bytes
    assert shm_residue() == []


# -- (v) hygiene -------------------------------------------------------------

def _feeders():
    return [t for t in threading.enumerate()
            if t.name == "QueueFeederThread"]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("crash", [False, True])
def test_no_process_thread_segment_or_fd_survives(crash):
    SharedMemExecutor(workers=1).close()     # resource tracker is up now
    gc.collect()
    # A closed queue's feeder thread closes the pipe's write end itself.
    assert _eventually(lambda: not _feeders())
    fds = _open_fds()
    ex = SharedMemExecutor(workers=2)
    try:
        assert sorted(p.name for p in mp.active_children()
                      if p.name.startswith("repro-exec-")) == \
            ["repro-exec-0", "repro-exec-1"]
        first = ex.submit(DIE, [("x", _staged(ex, np.zeros(1024)), True)],
                          {}) if crash else \
            ex.submit(FILL, [("out", _staged(ex, np.zeros(1024)), True)],
                      {"value": 1.0})
        second = ex.submit(FILL, [("out", np.zeros(8), True)],
                           {"value": 1.0})
        with _within(10):
            try:
                ex.wait(first)
                assert not crash, "crash went unnoticed"
            except ExecError:
                assert crash
            ex.wait(second)
    finally:
        ex.close()
    assert shm_residue() == []
    assert not [p for p in mp.active_children()
                if p.name.startswith("repro-exec-")]
    assert _eventually(lambda: not _feeders())
    del ex
    gc.collect()
    assert _eventually(lambda: _open_fds() == fds), (_open_fds(), fds)
