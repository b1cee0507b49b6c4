"""Validate the scaling methodology itself (MODEL.md section 5).

EXPERIMENTS.md's numbers are measured at 1/16 linear scale under rules
claimed to preserve the full-scale compute:I/O ratios.  These tests
check the claim directly: running the same experiment at 1/16 and 1/32
scale must produce (approximately) the same normalized slowdowns.  If a
future change breaks a scaling rule -- say, forgets to scale a latency
-- the scales diverge and this fails.
"""

import numpy as np
import pytest

from repro.apps import GemmApp, HotspotApp
from repro.bench import configs
from repro.bench.cells import _hotspot_in_memory
from repro.core.system import System


def gemm_slowdown(linear_scale: int, storage: str) -> float:
    n = 16384 // linear_scale
    base_sys = System(configs.scaled_inmemory_tree(
        flop_bound_app=True, linear_scale=linear_scale))
    try:
        GemmApp(base_sys, m=n, k=n, n=n, seed=1).run(base_sys)
        base_time = base_sys.makespan()
    finally:
        base_sys.close()

    sys_ = System(configs.scaled_apu_tree(
        storage, flop_bound_app=True, linear_scale=linear_scale))
    try:
        app = GemmApp(sys_, m=n, k=n, n=n, seed=1)
        app.run(sys_)
        assert np.allclose(app.result(), app.reference(),
                           rtol=1e-3, atol=1e-3)
        return sys_.makespan() / base_time
    finally:
        sys_.close()


def hotspot_slowdown(linear_scale: int, storage: str) -> float:
    n = 16384 // linear_scale
    base_sys = System(configs.scaled_inmemory_tree(
        linear_scale=linear_scale))
    try:
        _hotspot_in_memory(base_sys, n, 8, 1)
        base_time = base_sys.makespan()
    finally:
        base_sys.close()

    sys_ = System(configs.scaled_apu_tree(
        storage, linear_scale=linear_scale))
    try:
        app = HotspotApp(sys_, n=n, iterations=8, steps_per_pass=8, seed=1)
        app.run(sys_)
        assert np.allclose(app.result(), app.reference(),
                           rtol=1e-4, atol=1e-4)
        return sys_.makespan() / base_time
    finally:
        sys_.close()


@pytest.mark.parametrize("storage", ["ssd", "hdd"])
def test_gemm_slowdown_invariant_across_scales(storage):
    s16 = gemm_slowdown(16, storage)
    s32 = gemm_slowdown(32, storage)
    assert s32 == pytest.approx(s16, rel=0.15)


@pytest.mark.parametrize("storage", ["ssd", "hdd"])
def test_hotspot_slowdown_invariant_across_scales(storage):
    s16 = hotspot_slowdown(16, storage)
    s32 = hotspot_slowdown(32, storage)
    assert s32 == pytest.approx(s16, rel=0.15)
