"""Tests for the in-memory runs (Figure 6's normalisers): the real apps
on the one-node DRAM tree, and HotSpot's full-grid normaliser."""

import numpy as np
import pytest

from repro.apps import GemmApp, HotspotApp, SpmvApp
from repro.bench.cells import _hotspot_in_memory
from repro.compute.kernels.hotspot import default_params, hotspot_run
from repro.core.system import System
from repro.errors import ConfigError
from repro.memory.units import KB, MB
from repro.sim.trace import Phase
from repro.topology.builders import apu_two_level, in_memory_single_level
from repro.workloads.sparse import uniform_random
from repro.workloads.thermal import initial_temperature, power_grid


@pytest.fixture
def system():
    sys_ = System(in_memory_single_level(capacity=64 * MB))
    yield sys_
    sys_.close()


def test_gemm_baseline_correct_and_io_free(system):
    app = GemmApp(system, m=96, k=96, n=96, seed=1)
    app.run(system)
    np.testing.assert_allclose(app.result(), app.reference(),
                               rtol=1e-4, atol=1e-5)
    bd = system.breakdown()
    assert bd.gpu > 0
    assert bd.io == 0.0 and bd.dev_transfer == 0.0  # "excludes I/O"


def test_hotspot_baseline_correct(system):
    result = _hotspot_in_memory(system, 48, 3, 2)
    np.testing.assert_array_equal(result, hotspot_run(
        initial_temperature(48, 48, seed=2), power_grid(48, 48, seed=3),
        default_params(48, 48), 3))
    # One launch per iteration.
    launches = [iv for iv in system.timeline.trace
                if iv.phase is Phase.GPU_COMPUTE]
    assert len(launches) == 3
    assert system.executor.stats.submitted == 1


def test_spmv_baseline_correct(system):
    m = uniform_random(800, 800, nnz_per_row=6, seed=3)
    app = SpmvApp(system, matrix=m)
    app.run(system)
    np.testing.assert_allclose(app.result(), app.reference(),
                               rtol=1e-3, atol=1e-4)
    bd = system.breakdown()
    assert bd.by_phase[Phase.CPU_COMPUTE] > 0 and bd.gpu > 0  # binning + kernel
    assert bd.io == 0.0


def test_gemm_baseline_validation(system):
    with pytest.raises(ConfigError):
        GemmApp(system, m=0, k=1, n=1)
    with pytest.raises(ConfigError):
        HotspotApp(system, n=2)


def test_baseline_is_upper_bound_for_northup():
    """Fig 6's premise: the in-memory run is the performance upper bound."""
    base_sys = System(in_memory_single_level(capacity=64 * MB))
    ooc_sys = System(apu_two_level(storage_capacity=16 * MB,
                                   staging_bytes=128 * KB))
    try:
        for sys_ in (base_sys, ooc_sys):
            GemmApp(sys_, m=128, k=128, n=128, seed=5).run(sys_)
        assert base_sys.makespan() < ooc_sys.makespan()
    finally:
        base_sys.close()
        ooc_sys.close()
