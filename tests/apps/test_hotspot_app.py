"""Tests for the out-of-core HotSpot-2D application."""

import numpy as np
import pytest

from repro.apps.hotspot import HotspotApp, choose_hotspot_tile
from repro.compute.kernels.hotspot import HotspotParams
from repro.core.system import System
from repro.errors import CapacityError, ConfigError
from repro.memory.units import KB, MB
from repro.topology.builders import apu_two_level, discrete_gpu_three_level
from tests.reference.padded_stencil import assert_bits_equal


def run_hotspot(tree, **kw):
    sys_ = System(tree)
    try:
        app = HotspotApp(sys_, **kw)
        app.run(sys_)
        assert_bits_equal(app.result(), app.reference())
        return sys_.breakdown(), app
    finally:
        sys_.close()


def test_tile_chooser_respects_budget():
    s = choose_hotspot_tile(1024, 1024, halo=2, depth=2,
                            budget_bytes=1 * MB)
    working = 2 * (2 * (s + 4) ** 2 + s * s) * 4
    assert working <= 1 * MB
    assert s % 16 == 0


def test_tile_chooser_impossible():
    with pytest.raises(CapacityError):
        choose_hotspot_tile(64, 64, halo=4, depth=2, budget_bytes=64)
    with pytest.raises(ConfigError):
        choose_hotspot_tile(64, 64, halo=0, depth=2, budget_bytes=MB)


def test_hotspot_single_pass_matches_reference():
    bd, _ = run_hotspot(apu_two_level(storage_capacity=16 * MB,
                                      staging_bytes=128 * KB),
                        n=96, iterations=1, seed=4)
    assert bd.gpu > 0 and bd.io > 0


def test_hotspot_multiple_passes():
    run_hotspot(apu_two_level(storage_capacity=16 * MB,
                              staging_bytes=128 * KB),
                n=64, iterations=3, seed=5)


def test_hotspot_fused_steps_per_pass():
    """steps_per_pass > 1 (ghost zones) computes the same temperatures."""
    bd, _ = run_hotspot(apu_two_level(storage_capacity=16 * MB,
                                      staging_bytes=256 * KB),
                        n=64, iterations=4, steps_per_pass=2, seed=6)


def test_fused_passes_reduce_io_traffic():
    """The calibration lever: K steps per pass amortise storage traffic."""
    from repro.sim.trace import Phase

    def io_bytes(steps_per_pass):
        sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                    staging_bytes=256 * KB))
        try:
            app = HotspotApp(sys_, n=64, iterations=4,
                             steps_per_pass=steps_per_pass, seed=6)
            app.run(sys_)
            assert_bits_equal(app.result(), app.reference())
            bd = sys_.breakdown()
            return (bd.bytes_by_phase.get(Phase.IO_READ, 0)
                    + bd.bytes_by_phase.get(Phase.IO_WRITE, 0))
        finally:
            sys_.close()

    assert io_bytes(4) < io_bytes(1) / 2


def test_hotspot_on_three_level_tree():
    bd, _ = run_hotspot(discrete_gpu_three_level(storage_capacity=16 * MB,
                                                 staging_bytes=256 * KB,
                                                 gpu_mem_bytes=64 * KB),
                        n=64, iterations=2, seed=7)
    assert bd.dev_transfer > 0


@pytest.mark.parametrize("three_level", [False, True])
def test_remainder_tile_narrower_than_the_halo(three_level):
    """n=98 in tiles of 48 leaves a 2-wide remainder, so the middle
    tiles' 4-wide halos cross the chip boundary.  A stiff step makes a
    stale ghost cell there show in the bits."""
    tree = (discrete_gpu_three_level(storage_capacity=16 * MB,
                                     staging_bytes=512 * KB,
                                     gpu_mem_bytes=256 * KB)
            if three_level else
            apu_two_level(storage_capacity=16 * MB, staging_bytes=512 * KB))
    stiff = HotspotParams(rx_inv=0.3, ry_inv=0.7, rz_inv=0.05,
                          step_div_cap=0.3)
    run_hotspot(tree, n=98, iterations=8, steps_per_pass=4, seed=3,
                force_tile=48, params=stiff)


def test_hotspot_releases_pooled_buffers():
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=128 * KB))
    try:
        app = HotspotApp(sys_, n=64, iterations=2, seed=1)
        app.run(sys_)
        assert sys_.registry.live_count == 3  # padded temp/power + out
        app.release_root_buffers()
        assert sys_.registry.live_count == 0
        assert sys_.tree.leaves()[0].used == 0
    finally:
        sys_.close()


def test_hotspot_validation():
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=128 * KB))
    try:
        with pytest.raises(ConfigError):
            HotspotApp(sys_, n=2)
        with pytest.raises(ConfigError):
            HotspotApp(sys_, n=64, iterations=3, steps_per_pass=2)
        with pytest.raises(ConfigError):
            HotspotApp(sys_, n=64, iterations=0)
    finally:
        sys_.close()
