"""Golden snapshot of ``system.metrics``: every family, every label set.

Whichever layer defines a gauge, a run's snapshot must read the same:
the same family names, the same label sets, and the same value for
every gauge and counter whose name does not end in ``_seconds`` (wall
time).  Histograms are pinned by their labels only.  Four runs cover
every collector:

* a GEMM over a file-backed root on the inline executor, with one
  snapshot taken while its level is running (the ``level_queue_*``
  rows) and one after the run;
* the same GEMM on the two-worker ``shm`` pool;
* a HotSpot over a file-backed root (``write_bands``, ``readahead_*``);
* a served two-tenant stream, one tenant with a cache reservation.

Which pool worker runs a kernel is up to the operating system, so the
per-worker ``exec_worker_*`` rows are pinned as one total across the
workers.  Read-ahead advice depends on the host's spare cores, so the
runs pin the core count.

``python tests/obs/test_metrics_golden.py`` rewrites the golden file.
"""

import json
import os
import sys

import pytest

from repro.apps import GemmApp, HotspotApp
from repro.bench import configs
from repro.core.system import System
from repro.exec.base import make_executor
from repro.memory.backends import FileBackend
from repro.memory.units import KB
from repro.serve import (Arrival, JobService, JobSpec, ServeConfig,
                         TenantQuota)
from repro.serve.gate import CooperativeScheduler
from repro.topology.builders import apu_two_level

GOLDEN = os.path.join(os.path.dirname(__file__), "metrics_golden.json")

#: Grants after which the stepped GEMM run takes its mid-level snapshot.
MID_LEVEL_GRANTS = 7

SERVED = [
    JobSpec("gemm", tenant="acme", params=dict(
        m=48, k=48, n=48, seed=3, force_tiles=(32, 32, 48))),
    JobSpec("spmv", tenant="beta", params=dict(nrows=512, seed=11)),
    JobSpec("gemm", tenant="beta", params=dict(
        m=48, k=48, n=48, seed=4, force_tiles=(32, 32, 48))),
]
QUOTAS = {"acme": TenantQuota(cache_reservation=8 * KB),
          "beta": TenantQuota(alloc_bytes=4 << 20)}


def normalise(snap: dict) -> dict:
    """``name -> [[labels, value], ...]``, values of ``*_seconds``
    families and histograms left out, per-worker rows summed."""
    out = {}
    for name, rows in snap.items():
        pinned = []
        total = 0
        for row in rows:
            labels = dict(row["labels"])
            if "worker" in labels:
                total += row["value"]
                continue
            if "value" in row and not name.endswith("_seconds"):
                pinned.append([labels, row["value"]])
            else:
                pinned.append([labels])
        if name.startswith("exec_worker_"):
            pinned.append(["all workers"] if name.endswith("_seconds")
                          else ["all workers", total])
        out[name] = pinned
    return out


def _file_tree(tmp):
    return apu_two_level(staging_bytes=96 * KB,
                         storage_backend=FileBackend(os.path.join(tmp,
                                                                  "root")))


def _stepped_run(app, system) -> dict:
    """Run ``app`` one task-graph node per step, as the job service
    does, and snapshot the metrics after :data:`MID_LEVEL_GRANTS`."""
    steps = app.steps(system, scheduler=CooperativeScheduler())
    node, grants, mid = None, 0, None
    try:
        while True:
            _plan, ready = steps.send(node)
            grants += 1
            if grants == MID_LEVEL_GRANTS:
                mid = system.metrics.snapshot()
            node = ready[0]
    except StopIteration:
        pass
    assert mid is not None, "the level finished before the snapshot"
    return mid


def gemm_snapshots(tmp, backend: str) -> dict:
    executor = make_executor(backend, workers=2)
    system = System(_file_tree(tmp), executor=executor)
    try:
        app = GemmApp(system, m=96, k=96, n=96, seed=2)
        out = {}
        if backend == "inline":
            out["mid_level"] = normalise(_stepped_run(app, system))
        else:
            app.run(system)
        app.result()
        out["after_run"] = normalise(system.metrics.snapshot())
        app.release_root_buffers()
        return out
    finally:
        system.close()
        executor.close()


def hotspot_snapshot(tmp) -> dict:
    with System(_file_tree(tmp)) as system:
        app = HotspotApp(system, n=128, iterations=2, steps_per_pass=1,
                         force_tile=48, seed=1)
        app.run(system)
        app.result()
        snap = normalise(system.metrics.snapshot())
        app.release_root_buffers()
        return snap


def served_snapshot() -> dict:
    system = System(configs.scaled_apu_tree("ssd"))
    try:
        service = JobService(system, ServeConfig(quotas=QUOTAS))
        jobs = service.run([Arrival(vt=i * 1e-4, spec=s)
                            for i, s in enumerate(SERVED)])
        snap = normalise(system.metrics.snapshot())
        for job in jobs:
            job.app.release_root_buffers()
        return snap
    finally:
        system.close()


def all_snapshots(tmp) -> dict:
    runs = {}
    for backend in ("inline", "shm"):
        for when, snap in gemm_snapshots(
                os.path.join(tmp, backend), backend).items():
            runs[f"gemm_{backend}_{when}"] = snap
    runs["hotspot"] = hotspot_snapshot(os.path.join(tmp, "hotspot"))
    runs["served"] = served_snapshot()
    return runs


def _pin_cores(monkeypatch_setattr):
    import repro.core.system
    monkeypatch_setattr(repro.core.system, "effective_cpu_count", lambda: 4)


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    try:
        _pin_cores(mp.setattr)
        return all_snapshots(str(tmp_path_factory.mktemp("golden")))
    finally:
        mp.undo()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("run", ["gemm_inline_mid_level",
                                 "gemm_inline_after_run",
                                 "gemm_shm_after_run", "hotspot", "served"])
def test_snapshot_matches_golden(snapshots, golden, run):
    got = json.loads(json.dumps(snapshots[run]))
    want = golden[run]
    assert sorted(got) == sorted(want), run
    for name in want:
        assert got[name] == want[name], (run, name)


def test_golden_covers_every_collector(golden):
    """The golden runs reach every layer's gauges."""
    names = set().union(*golden.values())
    for name in ("runtime_ops", "wall_ops", "trace_intervals",
                 "virtual_busy_seconds", "cache_hits", "fd_pool_opens",
                 "readahead_windows", "write_bands", "array_pool_reuses",
                 "level_queue_state", "exec_tasks_submitted",
                 "serve_live_jobs"):
        assert name in names, name
    assert "level_queue_state" in golden["gemm_inline_mid_level"]
    states = {row[0]["state"]: row[1]
              for row in golden["gemm_inline_mid_level"]["level_queue_state"]}
    assert 0 < states["done"] < sum(states.values())


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
    mp = pytest.MonkeyPatch()
    _pin_cores(mp.setattr)
    with tempfile.TemporaryDirectory() as tmp:
        data = all_snapshots(tmp)
    with open(GOLDEN, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
