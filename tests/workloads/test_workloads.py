"""Unit tests for workload generators."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.system import System
from repro.errors import ConfigError
from repro.memory.units import MB
from repro.topology.builders import apu_two_level
from repro.workloads import matrices
from repro.workloads.matrices import (load_bands, random_dense,
                                      random_dense_bands)
from repro.workloads.sparse import (banded, powerlaw_rows, preset,
                                    preset_names, uniform_random)
from repro.workloads.thermal import (AMBIENT, initial_temperature,
                                     initial_temperature_bands, power_grid,
                                     power_grid_bands)


def test_random_dense_deterministic_and_bounded():
    a = random_dense(16, 8, seed=7)
    b = random_dense(16, 8, seed=7)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.float32
    assert np.abs(a).max() <= 1.0
    assert not np.array_equal(a, random_dense(16, 8, seed=8))
    with pytest.raises(ConfigError):
        random_dense(0, 4, seed=1)


def test_initial_temperature_near_ambient():
    t = initial_temperature(32, 32, seed=3)
    assert t.dtype == np.float32
    assert (t >= AMBIENT).all() and (t <= AMBIENT + 10).all()
    with pytest.raises(ConfigError):
        initial_temperature(0, 1, seed=0)


def test_power_grid_has_hot_blocks():
    p = power_grid(64, 64, seed=3, hot_blocks=4, peak=2.0)
    assert p.min() >= 0
    assert p.max() > 0.5  # hot blocks dominate the background
    flat = power_grid(64, 64, seed=3, hot_blocks=0)
    assert flat.max() < 0.05
    with pytest.raises(ConfigError):
        power_grid(8, 8, seed=0, hot_blocks=-1)


# -- band forms ---------------------------------------------------------------
#
# The one-shot generators as they were before the band forms existed:
# every band form must reproduce their RNG stream bit for bit.

def _dense_one_shot(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return (2.5 * (2.0 * rng.random((rows, cols)) - 1.0)).astype(np.float32)


def _temperature_one_shot(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return (AMBIENT + 10.0 * rng.random((rows, cols))).astype(np.float32)


def _power_one_shot(rows, cols, seed, hot_blocks):
    rng = np.random.default_rng(seed)
    power = (0.01 * 1.5 * rng.random((rows, cols))).astype(np.float32)
    for _ in range(hot_blocks):
        h, w = max(1, rows // 8), max(1, cols // 8)
        r0 = int(rng.integers(0, max(1, rows - h + 1)))
        c0 = int(rng.integers(0, max(1, cols - w + 1)))
        power[r0:r0 + h, c0:c0 + w] += 1.5 * (0.5 + 0.5 * rng.random())
    return power


def _assert_bands_tile(bands, rows, cols, band_rows):
    """Bands cover the rows in order, each at most ``band_rows`` tall."""
    first_rows = []
    blocks = []
    for first, block in bands:
        assert block.dtype == np.float32 and block.shape[1] == cols
        assert 1 <= len(block) <= band_rows
        first_rows.append(first)
        blocks.append(block)
    assert first_rows == list(np.cumsum([0] + [len(b) for b in blocks])[:-1])
    assert sum(len(b) for b in blocks) == rows
    return np.concatenate(blocks)


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint32)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40),
       band_rows=st.integers(1, 41), seed=st.integers(0, 2**32 - 1),
       hot_blocks=st.integers(0, 9))
@example(rows=1, cols=1, band_rows=1, seed=0, hot_blocks=4)
@example(rows=17, cols=9, band_rows=2, seed=3, hot_blocks=9)
def test_band_forms_equal_one_shot_generators(rows, cols, band_rows, seed,
                                              hot_blocks):
    """Every band size (down to one row) reproduces the one-shot arrays,
    hot blocks straddling band edges and touching chip edges included;
    the whole-array functions agree at the default band size."""
    with mock.patch.object(matrices, "BAND_BYTES", band_rows * 8 * cols):
        dense = _assert_bands_tile(random_dense_bands(
            rows, cols, seed=seed, scale=2.5), rows, cols, band_rows)
        temp = _assert_bands_tile(initial_temperature_bands(
            rows, cols, seed=seed), rows, cols, band_rows)
        power = _assert_bands_tile(power_grid_bands(
            rows, cols, seed=seed, hot_blocks=hot_blocks, peak=1.5),
            rows, cols, band_rows)
    expected_power = _power_one_shot(rows, cols, seed, hot_blocks)
    np.testing.assert_array_equal(_bits(dense),
                                  _bits(_dense_one_shot(rows, cols, seed)))
    np.testing.assert_array_equal(
        _bits(temp), _bits(_temperature_one_shot(rows, cols, seed)))
    np.testing.assert_array_equal(_bits(power), _bits(expected_power))
    np.testing.assert_array_equal(
        _bits(power_grid(rows, cols, seed=seed, hot_blocks=hot_blocks,
                         peak=1.5)), _bits(expected_power))
    np.testing.assert_array_equal(
        _bits(random_dense(rows, cols, seed=seed, scale=2.5)), _bits(dense))
    np.testing.assert_array_equal(
        _bits(initial_temperature(rows, cols, seed=seed)), _bits(temp))


def test_band_forms_reject_bad_shapes():
    for bands in (random_dense_bands(3, 0, seed=1),
                  initial_temperature_bands(0, 3, seed=1),
                  power_grid_bands(3, 3, seed=1, hot_blocks=-1)):
        with pytest.raises(ConfigError):
            next(bands)


def test_load_bands_writes_the_whole_array():
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=4 * MB))
    try:
        h = sys_.alloc(70 * 30 * 4, sys_.tree.root, label="A")
        with mock.patch.object(matrices, "BAND_BYTES", 8 * 8 * 30):
            load_bands(sys_, h, random_dense_bands(70, 30, seed=4))
        np.testing.assert_array_equal(
            sys_.fetch(h, np.float32, shape=(70, 30)),
            random_dense(70, 30, seed=4))
        assert sys_.breakdown().io == 0.0
    finally:
        sys_.close()


def test_uniform_random_row_lengths():
    m = uniform_random(200, 100, nnz_per_row=8, seed=5)
    lens = m.row_nnz()
    assert m.nrows == 200 and m.ncols == 100
    assert lens.min() >= 4 and lens.max() <= 12
    m.validate()


def test_banded_structure():
    m = banded(50, bandwidth=2)
    m.validate()
    assert m.nrows == m.ncols == 50
    assert m.row_nnz().max() == 5
    # Interior row r touches exactly [r-2, r+2].
    lo, hi = m.row_ptr[10], m.row_ptr[11]
    np.testing.assert_array_equal(np.sort(m.col_id[lo:hi]),
                                  np.arange(8, 13))


def test_powerlaw_rows_skew():
    m = powerlaw_rows(2000, 2000, alpha=1.6, max_row=256, seed=2)
    m.validate()
    lens = m.row_nnz()
    assert np.median(lens) <= 4
    assert lens.max() > 32  # heavy tail present
    with pytest.raises(ConfigError):
        powerlaw_rows(10, 10, alpha=1.0)


def test_presets():
    assert preset_names() == ["circuit-like", "stencil-like", "webgraph-like"]
    for name in preset_names():
        m = preset(name, nrows=256, seed=1)
        m.validate()
        assert m.nrows == 256
    with pytest.raises(ConfigError):
        preset("florida-actual")
    with pytest.raises(ConfigError):
        preset("circuit-like", nrows=4)


def test_preset_determinism():
    a = preset("webgraph-like", nrows=128, seed=9)
    b = preset("webgraph-like", nrows=128, seed=9)
    np.testing.assert_array_equal(a.row_ptr, b.row_ptr)
    np.testing.assert_array_equal(a.col_id, b.col_id)
    np.testing.assert_array_equal(a.data, b.data)
