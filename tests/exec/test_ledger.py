"""The pending-operation ledger: ordering, deferred copies, zombie
frees -- both as a pure unit and wired into a live System."""

import numpy as np
import pytest

from repro.compute.processor import KernelCost
from repro.core.system import System
from repro.exec import Binding, PendingLedger, kernel_spec
from repro.memory.units import MB
from repro.topology.builders import apu_two_level
from tests.exec import exec_gauge, kernels


# -- pure ledger semantics ---------------------------------------------------

def test_deferred_copies_drain_in_submission_order():
    led = PendingLedger()
    order = []
    a, b, c = (1, 1), (1, 2), (1, 3)
    led.defer_copy(lambda: order.append("first"), reads=[a], writes=[b],
                   deps=[])
    deps = led.conflicting(reads=(b,))
    assert len(deps) == 1
    led.defer_copy(lambda: order.append("second"), reads=[b], writes=[c],
                   deps=deps)
    assert led.active
    led.drain_all()
    assert order == ["first", "second"]
    assert not led.active


def test_complete_runs_dependencies_first():
    led = PendingLedger()
    order = []
    a, b = (1, 1), (1, 2)
    led.defer_copy(lambda: order.append("dep"), reads=[], writes=[a],
                   deps=[])
    dep_ops = led.conflicting(reads=(a,))
    led.defer_copy(lambda: order.append("op"), reads=[a], writes=[b],
                   deps=dep_ops)
    # Completing the *later* op must execute its dependency first.
    led.complete(led.conflicting(writes=(b,))[0])
    assert order == ["dep", "op"]


def test_conflicting_finds_writers_of_reads_and_all_on_writes():
    led = PendingLedger()
    a, b = (1, 1), (1, 2)
    led.defer_copy(lambda: None, reads=[a], writes=[b], deps=[])
    # A reader of `a` does not conflict with a mere reader of `a`...
    assert led.conflicting(reads=(a,)) == []
    # ...a reader of `b` conflicts with its pending writer...
    assert len(led.conflicting(reads=(b,))) == 1
    # ...and a writer of `a` conflicts with the pending reader.
    assert len(led.conflicting(writes=(a,))) == 1


def test_deferred_free_fires_when_last_op_retires():
    led = PendingLedger()
    slab = (1, 1)
    freed = []
    led.defer_copy(lambda: None, reads=[], writes=[slab], deps=[])
    led.defer_copy(lambda: None, reads=[slab], writes=[], deps=[])
    led.defer_free(slab, lambda: freed.append(slab))
    led.complete(led.conflicting(writes=(slab,))[0])
    assert not freed                       # one op still pending
    led.drain_all()
    assert freed == [slab]
    assert led.zombie_frees == 1


def test_defer_free_requires_pending_ops():
    led = PendingLedger()
    with pytest.raises(AssertionError):
        led.defer_free((1, 1), lambda: None)


# -- out-of-submission-order settles -----------------------------------------
#
# A consumer may settle any pending op first (a fetch of a late
# chunk); the dependency chains must still replay
# every earlier effect in submission order before the requested one.

def test_completing_last_op_first_replays_chain_in_submission_order():
    led = PendingLedger()
    order = []
    a, b, c = (1, 1), (1, 2), (1, 3)
    led.defer_copy(lambda: order.append("w(a)"), reads=[], writes=[a],
                   deps=[])
    led.defer_copy(lambda: order.append("a->b"), reads=[a], writes=[b],
                   deps=led.conflicting(reads=(a,)))
    led.defer_copy(lambda: order.append("b->c"), reads=[b], writes=[c],
                   deps=led.conflicting(reads=(b,)))
    # Settle the *last* link first: both uphill ops must run, oldest
    # first, exactly as the inline path would have ordered the bytes.
    led.complete(led.conflicting(writes=(c,))[0])
    assert order == ["w(a)", "a->b", "b->c"]
    assert not led.active


def test_deferred_free_survives_out_of_order_settles():
    led = PendingLedger()
    order = []
    freed = []
    s = (1, 1)
    led.defer_copy(lambda: order.append("write"), reads=[], writes=[s],
                   deps=[])
    writer = led.conflicting(reads=(s,))
    led.defer_copy(lambda: order.append("read1"), reads=[s], writes=[],
                   deps=list(writer))
    led.defer_copy(lambda: order.append("read2"), reads=[s], writes=[],
                   deps=list(writer))
    led.defer_free(s, lambda: freed.append(s))
    # Settling the *second* reader pulls in the writer but must not
    # fire the free: the first reader still needs the slab's bytes.
    reader2 = [op for op in led.conflicting(writes=(s,))][-1]
    led.complete(reader2)
    assert order == ["write", "read2"]
    assert not freed
    led.drain_all()
    assert order == ["write", "read2", "read1"]
    assert freed == [s]
    assert led.zombie_frees == 1


def test_conflicting_transfer_settled_first_runs_predecessors():
    """A move_down overwriting a slab a deferred move_up still reads:
    completing the overwrite first must run the pending transfer (and
    the merge it depends on) before clobbering the bytes."""
    led = PendingLedger()
    order = []
    staging, up = (1, 1), (0, 1)
    led.defer_copy(lambda: order.append("merge"), reads=[], writes=[staging],
                   deps=[])
    led.defer_copy(lambda: order.append("move_up"), reads=[staging],
                   writes=[up], deps=led.conflicting(reads=(staging,)))
    # Next chunk's move_down conflicts with *everything* pending on the
    # staging slab (readers and writers), in submission order.
    deps = led.conflicting(writes=(staging,))
    assert [type(d).__name__ for d in deps] == ["_CopyOp", "_CopyOp"]
    led.defer_copy(lambda: order.append("move_down"), reads=[],
                   writes=[staging], deps=deps)
    led.complete(led.conflicting(writes=(staging,))[-1])
    assert order == ["merge", "move_up", "move_down"]
    assert not led.active


# -- ledger wired into a live system -----------------------------------------

@pytest.fixture
def sys_async():
    s = System(apu_two_level(storage="ssd", storage_capacity=64 * MB,
                             staging_bytes=16 * MB), executor="shm")
    yield s
    s.close()


def _launch_fill(sys_, leaf, buf, n, value):
    gpu = leaf.processor_named("gpu-apu")
    spec = kernel_spec(kernels.fill,
                       Binding.update("out", buf, np.float32, (n,)),
                       value=value)
    sys_.launch(gpu, KernelCost(flops=1e6, bytes_read=0), writes=(buf,),
                kernel=spec)


def test_async_launch_defers_merge_until_read(sys_async):
    leaf = sys_async.tree.leaves()[0]
    buf = sys_async.alloc(1024, leaf)
    sys_async.preload(buf, np.zeros(256, dtype=np.float32))
    _launch_fill(sys_async, leaf, buf, 256, 7.0)
    led = sys_async.dispatch.ledger
    assert led.kernels == 1
    assert led.active
    # fetch() is a settle hook: pending writers of the slab merge first.
    out = sys_async.fetch(buf, np.float32)
    np.testing.assert_array_equal(out, np.full(256, 7.0, np.float32))
    assert led.merged == 1
    assert not led.active


def test_release_during_pending_work_credits_capacity_immediately(sys_async):
    leaf = sys_async.tree.leaves()[0]
    free0 = leaf.free
    buf = sys_async.alloc(1 * MB, leaf)
    sys_async.preload(buf, np.zeros(MB // 4, dtype=np.float32))
    _launch_fill(sys_async, leaf, buf, MB // 4, 3.0)
    assert leaf.free == free0 - 1 * MB
    led = sys_async.dispatch.ledger
    sys_async.release(buf)
    # Capacity comes back at logical release (apps size follow-on
    # blocks off node.free), even though the merge has not landed...
    assert leaf.free == free0
    assert exec_gauge(sys_async, "zombie_frees") == 0
    # ...and the physical storage teardown fires at drain.
    sys_async.drain_exec()
    assert exec_gauge(sys_async, "zombie_frees") == 1
    assert not led.active


def test_stacked_async_writers_merge_in_submission_order(sys_async):
    """Two kernels writing the same buffer: whichever thread finishes
    first, the merge replay must leave the *later submission's* bytes."""
    leaf = sys_async.tree.leaves()[0]
    buf = sys_async.alloc(1024, leaf)
    sys_async.preload(buf, np.zeros(256, dtype=np.float32))
    _launch_fill(sys_async, leaf, buf, 256, 3.0)
    _launch_fill(sys_async, leaf, buf, 256, 9.0)
    led = sys_async.dispatch.ledger
    assert led.kernels == 2
    out = sys_async.fetch(buf, np.float32)
    np.testing.assert_array_equal(out, np.full(256, 9.0, np.float32))
    assert led.merged == 2


def test_end_run_settles_everything(sys_async):
    leaf = sys_async.tree.leaves()[0]
    buf = sys_async.alloc(1024, leaf)
    sys_async.preload(buf, np.zeros(256, dtype=np.float32))
    _launch_fill(sys_async, leaf, buf, 256, 2.0)
    assert sys_async.dispatch.ledger.active
    sys_async.end_run()
    assert not sys_async.dispatch.ledger.active
    np.testing.assert_array_equal(sys_async.fetch(buf, np.float32),
                                  np.full(256, 2.0, np.float32))
