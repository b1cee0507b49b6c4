"""The plan/execute split must be invisible: schedulers vs the eager
driver, bit for bit.

The lowering contract (DESIGN.md, "Plan layer") promises that the
in-order replay reproduces the eager schedule exactly and that *any*
topological order computes identical result bytes while moving exactly
the same bytes.  These tests enforce it on the figure configs (fig6's
apu/storage grid, fig8's discrete-GPU tree, fig11's stealing workload
rides in ``test_stealing``).
"""

import numpy as np
import pytest

from repro.apps.gemm import GemmApp
from repro.apps.hotspot import HotspotApp
from repro.apps.reduce import ReduceApp
from repro.apps.sort import SortApp
from repro.apps.spmv import SpmvApp
from repro.bench.configs import scaled_apu_tree, scaled_dgpu_tree
from repro.core.scheduler import InOrderScheduler, PipelinedScheduler
from repro.core.system import System
from repro.memory.units import KB
from repro.workloads.sparse import preset
from tests.reference.eager import EagerScheduler
from tests.reference.random_order import RandomOrderScheduler


def _make_app(name: str, system: System):
    if name == "gemm":
        return GemmApp(system, m=256, k=256, n=256, seed=2019)
    if name == "hotspot":
        return HotspotApp(system, n=256, iterations=4, steps_per_pass=4,
                          seed=2019)
    if name == "spmv":
        return SpmvApp(system, matrix=preset("circuit-like", nrows=8000,
                                             seed=2019), seed=2019)
    if name == "reduce":
        return ReduceApp(system, n=1 << 16, op="l2", seed=2019)
    if name == "sort":
        return SortApp(system, n=50_000, seed=2019)
    raise AssertionError(name)


def _run(app_name: str, make_tree, scheduler) -> tuple[float, bytes]:
    system = System(make_tree())
    try:
        app = _make_app(app_name, system)
        app.run(system, scheduler=scheduler)
        return system.makespan(), np.asarray(app.result()).tobytes()
    finally:
        system.close()


#: The fig6 grid (each app on ssd- and hdd-class APU trees) plus the
#: fig8-style discrete-GPU tree, at quick sizes.
CONFIGS = [
    ("apu-ssd", lambda: scaled_apu_tree("ssd")),
    ("apu-hdd", lambda: scaled_apu_tree("hdd")),
    ("dgpu-hdd", lambda: scaled_dgpu_tree("hdd")),
]
APPS = ["gemm", "hotspot", "spmv", "reduce", "sort"]


@pytest.mark.parametrize("config_name,make_tree", CONFIGS,
                         ids=[c[0] for c in CONFIGS])
@pytest.mark.parametrize("app_name", APPS)
def test_inorder_is_bit_identical_to_eager(app_name, config_name,
                                           make_tree):
    eager_mk, eager_out = _run(app_name, make_tree, EagerScheduler())
    inorder_mk, inorder_out = _run(app_name, make_tree, InOrderScheduler())
    assert float(inorder_mk).hex() == float(eager_mk).hex(), (
        f"{app_name}@{config_name}: lowering changed the makespan "
        f"({eager_mk!r} -> {inorder_mk!r})")
    assert inorder_out == eager_out, (
        f"{app_name}@{config_name}: lowering changed the result bytes")


@pytest.mark.parametrize("app_name", APPS)
def test_pipelined_preserves_results(app_name):
    _mk_e, eager_out = _run(app_name, lambda: scaled_apu_tree("hdd"),
                            EagerScheduler())
    _mk_p, pipe_out = _run(app_name, lambda: scaled_apu_tree("hdd"),
                           PipelinedScheduler())
    assert pipe_out == eager_out


@pytest.mark.parametrize("seed", range(5))
def test_any_topological_order_is_equivalent(seed):
    """Property: a seeded random topological execution order produces
    bit-identical result bytes AND moves exactly the same bytes."""
    def run(scheduler):
        system = System(scaled_apu_tree("ssd", staging_bytes=64 * KB))
        try:
            app = HotspotApp(system, n=256, iterations=4, steps_per_pass=4,
                             pipeline_depth=2, seed=2019)
            app.run(system, scheduler=scheduler)
            return (np.asarray(app.result()).tobytes(),
                    system.timeline.trace.bytes_moved())
        finally:
            system.close()

    eager_out, eager_bytes = run(EagerScheduler())
    random_out, random_bytes = run(RandomOrderScheduler(seed))
    assert random_out == eager_out, f"seed {seed} changed the results"
    assert random_bytes == eager_bytes, (
        f"seed {seed} moved {random_bytes} bytes, eager moved "
        f"{eager_bytes}")


def test_pipelined_wins_on_a_starved_channel():
    """The acceptance claim at test scale: on a half-duplex hdd-class
    channel with a small staging budget, overlapping chunk k+1's
    descent with chunk k's compute shortens the makespan."""
    def run(scheduler):
        system = System(scaled_apu_tree("hdd", staging_bytes=64 * KB))
        try:
            app = HotspotApp(system, n=256, iterations=4, steps_per_pass=4,
                             pipeline_depth=2, seed=5)
            app.run(system, scheduler=scheduler)
            return system.makespan(), np.asarray(app.result()).tobytes()
        finally:
            system.close()

    eager_mk, eager_out = run(EagerScheduler())
    pipe_mk, pipe_out = run(PipelinedScheduler())
    assert pipe_out == eager_out
    assert pipe_mk < eager_mk * 0.95, (
        f"expected >=5% overlap win, got {eager_mk / pipe_mk:.3f}x")
