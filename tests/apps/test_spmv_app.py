"""Tests for the out-of-core CSR-Adaptive SpMV application."""

import numpy as np
import pytest

from repro.apps.spmv import SpmvApp
from repro.core.system import System
from repro.memory.units import KB, MB
from repro.sim.trace import Phase
from repro.topology.builders import apu_two_level, discrete_gpu_three_level
from repro.workloads.sparse import banded, powerlaw_rows, uniform_random


def run_spmv(tree, matrix, **kw):
    sys_ = System(tree)
    try:
        app = SpmvApp(sys_, matrix=matrix, **kw)
        app.run(sys_)
        np.testing.assert_allclose(app.result(), app.reference(),
                                   rtol=1e-3, atol=1e-4)
        return sys_.breakdown(), sys_
    finally:
        sys_.close()


def test_spmv_uniform_matrix():
    m = uniform_random(2000, 2000, nnz_per_row=8, seed=1)
    bd, _ = run_spmv(apu_two_level(storage_capacity=16 * MB,
                                   staging_bytes=96 * KB), m)
    assert bd.gpu > 0 and bd.io > 0
    assert bd.by_phase[Phase.CPU_COMPUTE] > 0  # the binning pass


def test_spmv_banded_matrix():
    m = banded(1500, bandwidth=3, seed=2)
    run_spmv(apu_two_level(storage_capacity=16 * MB,
                           staging_bytes=96 * KB), m)


def test_spmv_powerlaw_forces_uneven_shards():
    m = powerlaw_rows(3000, 3000, alpha=1.5, max_row=512, seed=3)
    bd, _ = run_spmv(apu_two_level(storage_capacity=16 * MB,
                                   staging_bytes=128 * KB), m)


def test_spmv_on_three_level_tree():
    m = uniform_random(1200, 1200, nnz_per_row=6, seed=4)
    bd, _ = run_spmv(discrete_gpu_three_level(storage_capacity=16 * MB,
                                              staging_bytes=256 * KB,
                                              gpu_mem_bytes=64 * KB), m)
    assert bd.dev_transfer > 0


def test_spmv_shard_count_grows_with_smaller_staging():
    """The nnz-aware recursion produces more shards when the next level
    shrinks -- Northup's "unique advantage" in Section IV-C."""
    m = uniform_random(4000, 4000, nnz_per_row=8, seed=5)

    def shard_ios(staging):
        sys_ = System(apu_two_level(storage_capacity=32 * MB,
                                    staging_bytes=staging))
        try:
            app = SpmvApp(sys_, matrix=m)
            app.run(sys_)
            np.testing.assert_allclose(app.result(), app.reference(),
                                       rtol=1e-3, atol=1e-4)
            from repro.sim.trace import Phase
            return sum(1 for iv in sys_.timeline.trace
                       if iv.phase is Phase.IO_READ and iv.label == "data down")
        finally:
            sys_.close()

    assert shard_ios(96 * KB) > shard_ios(512 * KB)


def test_spmv_handles_empty_rows_and_matrix():
    from repro.compute.kernels.spmv import CSRMatrix
    m = CSRMatrix(row_ptr=np.array([0, 0, 3, 3, 5], dtype=np.int64),
                  col_id=np.array([0, 1, 2, 0, 3], dtype=np.int32),
                  data=np.ones(5, dtype=np.float32), ncols=5)
    run_spmv(apu_two_level(storage_capacity=16 * MB,
                           staging_bytes=64 * KB), m)


def test_spmv_releases_transients():
    m = uniform_random(1000, 1000, nnz_per_row=5, seed=6)
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=96 * KB))
    try:
        app = SpmvApp(sys_, matrix=m)
        app.run(sys_)
        # Five root buffers remain (row_ptr, col_id, data, x, y).
        assert sys_.registry.live_count == 5
        app.release_root_buffers()
        assert sys_.registry.live_count == 0
        assert sys_.tree.leaves()[0].used == 0
    finally:
        sys_.close()


def test_spmv_x_resident_at_leaf():
    """x is moved down once, not once per shard (Section IV-C)."""
    m = uniform_random(3000, 3000, nnz_per_row=8, seed=7)
    sys_ = System(apu_two_level(storage_capacity=32 * MB,
                                staging_bytes=128 * KB))
    try:
        app = SpmvApp(sys_, matrix=m)
        app.run(sys_)
        x_moves = [iv for iv in sys_.timeline.trace if iv.label == "x down"]
        assert len(x_moves) == 1
    finally:
        sys_.close()


def test_spmv_rows_strategy_on_regular_input():
    """The naive equal-rows split (Section IV-C's "simple strategy")
    works on regular inputs and gives the same answer."""
    m = banded(1500, bandwidth=3, seed=8)
    run_spmv(apu_two_level(storage_capacity=16 * MB,
                           staging_bytes=96 * KB), m, shard_strategy="rows")


def test_spmv_rejects_unknown_strategy():
    from repro.errors import ConfigError
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=96 * KB))
    try:
        with pytest.raises(ConfigError):
            SpmvApp(sys_, matrix=banded(100, bandwidth=2),
                    shard_strategy="random")
    finally:
        sys_.close()
