"""Golden fingerprint of whole traces: every interval of five runs.

The figure regressions pin what a run computes (makespans, breakdown
sums); this test pins *how* it got there: for each run the interval
count, ``system.runtime_ops`` and a sha256 over ``repr()`` of every
``trace.span_rows()`` row -- start, end, phase, resource, label, bytes
and span id, in trace order.  A change to the host-side cost of the
framework must leave all three untouched.  The runs:

* GEMM, HotSpot, Sort and SpMV at smoke size over a file-backed root
  on ``apu_two_level`` (inline executor);
* a served three-job stream on ``scaled_apu_tree("ssd")``.

``python tests/sim/test_trace_golden.py`` rewrites the golden file.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.apps import GemmApp, HotspotApp, SortApp, SpmvApp
from repro.bench import configs
from repro.core.system import System
from repro.memory.backends import FileBackend
from repro.memory.units import KB
from repro.serve import Arrival, JobService, JobSpec, ServeConfig
from repro.topology.builders import apu_two_level
from repro.workloads import sparse

GOLDEN = os.path.join(os.path.dirname(__file__), "trace_golden.json")

#: name -> (staging bytes, app factory); sizes follow the perf
#: benchmark's smoke scale.
APPS = {
    "gemm": (256 * KB, lambda s: GemmApp(s, m=256, k=256, n=256, seed=1)),
    "hotspot": (128 * KB, lambda s: HotspotApp(
        s, n=256, iterations=4, steps_per_pass=2, seed=1)),
    "sort": (128 * KB, lambda s: SortApp(s, n=200_000, seed=1)),
    "spmv": (128 * KB, lambda s: SpmvApp(
        s, matrix=sparse.preset("circuit-like", nrows=20_000, seed=1),
        seed=1)),
}

SERVED = [
    JobSpec("gemm", tenant="acme", params=dict(
        m=48, k=48, n=48, seed=3, force_tiles=(32, 32, 48))),
    JobSpec("spmv", tenant="beta", params=dict(nrows=512, seed=11)),
    JobSpec("sort", tenant="acme", params=dict(n=20_000, seed=5)),
]


def fingerprint(system) -> dict:
    trace = system.timeline.trace
    digest = hashlib.sha256()
    for row in trace.span_rows():
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return {"intervals": len(trace), "runtime_ops": system.runtime_ops,
            "sha256": digest.hexdigest()}


def app_fingerprint(name: str, tmp: str) -> dict:
    staging, build = APPS[name]
    tree = apu_two_level(staging_bytes=staging,
                         storage_backend=FileBackend(os.path.join(tmp,
                                                                  "root")))
    with System(tree) as system:
        app = build(system)
        app.run(system)
        app.result()
        out = fingerprint(system)
        app.release_root_buffers()
        return out


def served_fingerprint() -> dict:
    with System(configs.scaled_apu_tree("ssd")) as system:
        service = JobService(system, ServeConfig())
        jobs = service.run([Arrival(vt=i * 1e-4, spec=s)
                            for i, s in enumerate(SERVED)])
        out = fingerprint(system)
        for job in jobs:
            job.app.release_root_buffers()
        return out


def fingerprint_of(run: str, tmp: str) -> dict:
    return served_fingerprint() if run == "served" \
        else app_fingerprint(run, tmp)


RUNS = [*APPS, "served"]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("run", RUNS)
def test_trace_matches_golden(golden, run, tmp_path):
    assert fingerprint_of(run, str(tmp_path)) == golden[run], run


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
    data = {}
    for run in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            data[run] = fingerprint_of(run, tmp)
    with open(GOLDEN, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
