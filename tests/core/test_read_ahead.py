"""Plan-advised read-ahead at the ``System`` level: hints reach the file
backend in every cache mode, only with a core to spare, and change
nothing but wall-clock time; ``close`` and ``end_run`` leave no thread,
descriptor or file behind even when the run failed."""

import gc
import hashlib
import os
import threading

import numpy as np
import pytest

import repro.core.system as system_mod
import repro.memory.backends as backends_mod
from repro.apps import GemmApp, HotspotApp, SpmvApp
from repro.cache.manager import CacheConfig
from repro.cache.spec import FetchSpec
from repro.compute.processor import KernelCost
from repro.core.scheduler import InOrderScheduler, PipelinedScheduler
from repro.core.system import System
from repro.exec import Binding, ExecError, kernel_spec, shm_residue
from repro.memory.backends import FileBackend
from repro.memory.units import KB, MB
from repro.obs.report import RunReport
from repro.topology.builders import apu_two_level
from repro.workloads.sparse import uniform_random
from tests.exec import kernels
from tests.hygiene import io_threads as _io_threads
from tests.reference.eager import EagerScheduler
from tests.reference.random_order import RandomOrderScheduler


@pytest.fixture
def low_floor(monkeypatch):
    """The test problems' windows are a few KiB: put them above the
    floor, as the out-of-core sizes are above the real one."""
    monkeypatch.setattr(backends_mod, "READAHEAD_MIN_BYTES", 512)


def _cores(monkeypatch, count):
    monkeypatch.setattr(system_mod, "effective_cpu_count", lambda: count)


def _gemm(system):
    return GemmApp(system, m=160, k=160, n=160, seed=21)


def _hotspot(system):
    return HotspotApp(system, n=96, iterations=2, steps_per_pass=2, seed=22)


def _spmv(system):
    return SpmvApp(system, matrix=uniform_random(3000, 3000, nnz_per_row=6,
                                                 seed=23), seed=23)


APPS = {"gemm": _gemm, "hotspot": _hotspot, "spmv": _spmv}
SCHEDULERS = {"inorder": InOrderScheduler,
              "pipelined": PipelinedScheduler,
              "random": lambda: RandomOrderScheduler(5)}


def _run(tmp_path, tag, make_app, *, scheduler=None, executor=None,
         cache=None):
    backend = FileBackend(str(tmp_path / tag))
    tree = apu_two_level(storage="ssd", storage_capacity=64 * MB,
                         staging_bytes=128 * KB, storage_backend=backend)
    system = System(tree, executor=executor, cache=cache)
    try:
        app = make_app(system)
        app.run(system, scheduler=scheduler)
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        return (digest, system.makespan(), len(system.timeline.trace)), \
            dict(backend.readahead.counts)
    finally:
        system.close()


# -- identity: advice on vs suppressed ----------------------------------------

@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("app", sorted(APPS))
def test_advice_changes_no_result_makespan_or_trace(
        tmp_path, monkeypatch, low_floor, app, scheduler):
    _cores(monkeypatch, 1)
    plain, idle = _run(tmp_path, "off", APPS[app],
                       scheduler=SCHEDULERS[scheduler]())
    assert idle["advised"] == 0 and not _io_threads()
    _cores(monkeypatch, 2)
    ahead, counts = _run(tmp_path, "on", APPS[app],
                         scheduler=SCHEDULERS[scheduler]())
    assert ahead == plain
    assert counts["served"] + counts["late"] > 0, counts
    assert counts["failed"] == 0


@pytest.mark.parametrize("executor", ["shm"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_advice_is_exact_under_asynchronous_executors(
        tmp_path, monkeypatch, low_floor, app, executor):
    _cores(monkeypatch, 1)
    plain, _ = _run(tmp_path, "inline", APPS[app])
    _cores(monkeypatch, 64)                      # the gate forced open
    ahead, counts = _run(tmp_path, "on", APPS[app], executor=executor)
    assert ahead == plain
    assert counts["advised"] > 0
    assert shm_residue() == []


def test_full_cache_mode_plans_and_advises_from_one_hint_list(
        tmp_path, monkeypatch, low_floor):
    full = CacheConfig(mode="full", lookahead=2)
    _cores(monkeypatch, 1)
    plain, _ = _run(tmp_path, "off", _hotspot, cache=full)
    _cores(monkeypatch, 2)
    ahead, counts = _run(tmp_path, "on", _hotspot, cache=full)
    assert ahead == plain
    assert counts["advised"] > 0


def test_hints_are_collected_once_per_level_in_every_cache_mode(
        tmp_path, monkeypatch):
    calls = []
    real = HotspotApp.prefetch_hints
    monkeypatch.setattr(HotspotApp, "prefetch_hints",
                        lambda self, ctx, hints: (
                            calls.append(ctx.node.node_id),
                            real(self, ctx, hints))[1])
    seen = []
    monkeypatch.setattr(System, "will_need",
                        lambda self, hints: seen.append(len(hints)))
    for tag, cache in (("x", None), ("f", CacheConfig(mode="full")),
                       ("d", CacheConfig.disabled())):
        calls.clear()
        seen.clear()
        _run(tmp_path, tag, _hotspot, cache=cache)
        assert len(calls) == 1 and len(seen) == 1   # one pass, one level
        assert seen[0] > 0
    calls.clear()
    seen.clear()
    _run(tmp_path, "e", _hotspot, scheduler=EagerScheduler())
    assert not calls and not seen              # the reference path: no advice


# -- the gate -----------------------------------------------------------------

class _FakeExecutor:
    def __init__(self, asynchronous, workers):
        self.asynchronous, self.workers = asynchronous, workers


@pytest.mark.parametrize("cores, asynchronous, workers, advised", [
    (1, False, 1, False),
    (2, False, 1, True),
    (2, False, 4, True),      # an inline backend's worker count is moot
    (2, True, 1, False),
    (2, True, 2, False),
    (3, True, 1, True),
    (4, True, 2, True),
])
def test_will_need_wants_a_spare_core(tmp_path, monkeypatch, cores,
                                      asynchronous, workers, advised):
    backend = FileBackend(str(tmp_path / "s"))
    tree = apu_two_level(storage="ssd", storage_capacity=8 * MB,
                         staging_bytes=64 * KB, storage_backend=backend)
    system = System(tree)
    try:
        h = system.alloc(4096, tree.root)
        child = tree.root.children[0]
        got = []
        monkeypatch.setattr(backend, "advise", got.append)
        _cores(monkeypatch, cores)
        monkeypatch.setattr(system, "executor",
                            _FakeExecutor(asynchronous, workers))
        system.will_need([
            (child, FetchSpec.contiguous(h, 128, 1024)),
            (child, FetchSpec(h, offset=64, rows=4, row_bytes=16,
                              stride=256))])
        if advised:
            assert got == [[(h.alloc_id, 128, 1, 1024, 1024),
                            (h.alloc_id, 64, 4, 16, 256)]]
        else:
            assert got == []
    finally:
        monkeypatch.undo()
        system.close()


def test_mapped_handles_advise_their_parents_bytes(tmp_path, monkeypatch):
    backend = FileBackend(str(tmp_path / "s"))
    tree = apu_two_level(storage="ssd", storage_capacity=8 * MB,
                         staging_bytes=64 * KB, storage_backend=backend)
    system = System(tree)
    try:
        _cores(monkeypatch, 2)
        h = system.alloc(8192, tree.root)
        window = system.map_region(h, 4096, 2048)
        got = []
        monkeypatch.setattr(backend, "advise", got.append)
        system.will_need([(tree.root.children[0],
                           FetchSpec.contiguous(window, 100, 1000))])
        assert got == [[(h.alloc_id, 4196, 1, 1000, 1000)]]
    finally:
        system.close()


# -- lifecycle ----------------------------------------------------------------

def test_end_run_cancels_advice_and_close_stops_the_reader(
        tmp_path, monkeypatch, low_floor):
    _cores(monkeypatch, 2)
    backend = FileBackend(str(tmp_path / "s"))
    tree = apu_two_level(storage="ssd", storage_capacity=64 * MB,
                         staging_bytes=128 * KB, storage_backend=backend)
    system = System(tree)
    app = _gemm(system)
    app.run(system)
    assert _io_threads() == ["repro-io-read-ssd.root"]
    assert not backend.readahead._queue          # end_run cancelled the rest
    system.close()
    assert not _io_threads()


class _Exploding(GemmApp):
    fuse = 3

    def child_problem(self, ctx, chunk, bufs):
        self.fuse -= 1
        if self.fuse < 0:
            raise RuntimeError("mid-level failure")
        return super().child_problem(ctx, chunk, bufs)


def test_a_run_that_raised_mid_level_leaves_no_reader(
        tmp_path, monkeypatch, low_floor):
    _cores(monkeypatch, 2)
    backend = FileBackend(str(tmp_path / "s"))
    tree = apu_two_level(storage="ssd", storage_capacity=64 * MB,
                         staging_bytes=128 * KB, storage_backend=backend)
    system = System(tree)
    try:
        app = _Exploding(system, m=160, k=160, n=160, seed=21)
        with pytest.raises(RuntimeError, match="mid-level"):
            app.run(system)
        assert backend.readahead.counts["advised"] > 0
        assert not backend.readahead._queue      # cancelled by end_run
    finally:
        system.close()
    assert not _io_threads()
    assert not (tmp_path / "s").exists()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _feeders():
    return [t for t in threading.enumerate()
            if t.name == "QueueFeederThread"]


def _join_feeders(seconds=60.0):
    """Join the feeder threads of closed queues (each closes its pipe's
    ends before it returns); True when none is left."""
    for thread in _feeders():
        thread.join(seconds)
    return not _feeders()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc to count descriptors")
def test_close_after_a_failed_kernel_releases_everything(
        tmp_path, monkeypatch, low_floor):
    """``close`` drains first, and the drain re-raises a failed ticket:
    the pool, the backends and the reader must be closed anyway."""
    _cores(monkeypatch, 64)
    System(apu_two_level(storage_capacity=8 * MB, staging_bytes=64 * KB),
           executor="shm").close()               # resource tracker is up now
    gc.collect()
    # A closed queue's feeder thread closes the pipe's write end itself.
    assert _join_feeders()
    fds = _open_fds()
    backend = FileBackend(str(tmp_path / "s"))
    tree = apu_two_level(storage="ssd", storage_capacity=8 * MB,
                         staging_bytes=64 * KB, storage_backend=backend)
    system = System(tree, executor="shm")
    leaf = tree.root.children[0]
    root_buf = system.alloc(4096, tree.root)
    system.preload(root_buf, np.arange(1024, dtype=np.float32))
    system.will_need([(leaf, FetchSpec.contiguous(root_buf, 0, 4096))])
    assert _io_threads()
    x = system.alloc(1024, leaf)
    system.move_down(x, root_buf, 1024)
    proc = leaf.processors[0]
    system.launch(proc, KernelCost(flops=1.0, bytes_read=1.0), writes=(x,),
                  kernel=kernel_spec(kernels.boom,
                                     Binding.update("x", x, np.float32,
                                                    (256,))))
    with pytest.raises((ExecError, RuntimeError), match="exploded"):
        system.close()
    assert shm_residue() == []
    assert not _io_threads()
    assert not (tmp_path / "s").exists()
    del system, tree, backend
    gc.collect()
    assert _join_feeders()
    assert _open_fds() == fds


def test_tree_close_closes_every_device_when_one_raises(tmp_path):
    backend = FileBackend(str(tmp_path / "s"))
    tree = apu_two_level(storage="ssd", storage_capacity=8 * MB,
                         staging_bytes=64 * KB, storage_backend=backend)
    closed = []
    leaf = tree.root.children[0]
    leaf.device.close = lambda: closed.append("leaf")

    def bad_close():
        FileBackend.close(backend)
        raise OSError("disk on fire")
    tree.root.device.close = bad_close
    with pytest.raises(OSError, match="on fire"):
        tree.close()
    assert closed == ["leaf"]
    assert not (tmp_path / "s").exists()


# -- observability ------------------------------------------------------------

def test_readahead_metrics_and_report_line(tmp_path, monkeypatch, low_floor):
    _cores(monkeypatch, 2)
    backend = FileBackend(str(tmp_path / "s"))
    tree = apu_two_level(storage="ssd", storage_capacity=64 * MB,
                         staging_bytes=128 * KB, storage_backend=backend)
    system = System(tree)
    try:
        _gemm(system).run(system)
        snap = system.metrics.snapshot()
        by_outcome = {row["labels"]["outcome"]: row["value"]
                      for row in snap["readahead_windows"]}
        assert by_outcome == backend.readahead.counts
        assert by_outcome["advised"] == sum(
            v for k, v in by_outcome.items() if k != "advised")
        assert [r["value"] for r in snap["readahead_bytes"]] == \
            [backend.readahead.bytes]
        assert snap["readahead_wait_seconds"][0]["value"] >= 0.0
        table = RunReport.from_system(system).table()
        line = next(ln for ln in table.splitlines()
                    if ln.startswith("read-ahead:"))
        assert f"{by_outcome['served']} served" in line
        assert f"{by_outcome['advised']} windows advised" in line
    finally:
        system.close()
