"""Unit and property tests for the HotSpot-2D stencil kernel."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute.kernels.hotspot import (ChipEdges, HotspotParams,
                                           default_params, hotspot_block,
                                           hotspot_cost, hotspot_multistep,
                                           hotspot_run)
from repro.errors import KernelError
from tests.reference import padded_stencil
from tests.reference.padded_stencil import assert_bits_equal


def pad(grid, halo):
    """The chip with an edge-replicated halo: the app's padded frames."""
    return np.pad(grid, halo, mode="edge")


def grids(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    temp = (80 + 10 * rng.random((rows, cols))).astype(np.float32)
    power = (1e-3 * rng.random((rows, cols))).astype(np.float32)
    return temp, power


#: A stiff step on which a rounding or boundary slip shows in the bits.
#: With Rodinia's tiny step the final ``t + delta`` absorbs most inner
#: error, so equality there proves less.
STIFF = HotspotParams(rx_inv=0.3, ry_inv=0.7, rz_inv=0.05, step_div_cap=0.3)


def test_default_params_positive():
    p = default_params(64, 64)
    assert p.rx_inv > 0 and p.ry_inv > 0 and p.rz_inv > 0
    assert p.step_div_cap > 0
    with pytest.raises(KernelError):
        default_params(0, 4)


def test_params_validation():
    with pytest.raises(KernelError):
        HotspotParams(rx_inv=-1, ry_inv=1, rz_inv=1, step_div_cap=1)
    with pytest.raises(KernelError):
        HotspotParams(rx_inv=float("nan"), ry_inv=1, rz_inv=1, step_div_cap=1)


def test_uniform_grid_no_power_relaxes_to_ambient():
    """Physics sanity: with no power, temperature decays toward ambient."""
    params = default_params(16, 16)
    temp = np.full((16, 16), 100.0, dtype=np.float32)
    power = np.zeros_like(temp)
    out = hotspot_run(temp, power, params, steps=50)
    assert np.all(out < temp)  # cooling
    assert np.all(out > params.amb_temp - 1e-3)


def test_power_heats_cell():
    params = default_params(8, 8)
    temp = np.full((8, 8), params.amb_temp, dtype=np.float32)
    power = np.zeros_like(temp)
    power[4, 4] = 1.0
    out = hotspot_run(temp, power, params, 1)
    assert out[4, 4] > temp[4, 4]
    assert out[0, 0] == pytest.approx(temp[0, 0])  # untouched far cell


def test_step_shape_validation():
    params = default_params(4, 4)
    t, p = grids(4, 4)
    with pytest.raises(KernelError):
        hotspot_run(t, p[:2], params, 1)
    with pytest.raises(KernelError):
        hotspot_run(t[0], p[0], params, 1)


_MIXED = [(np.int32, np.int32), (np.int32, np.float32),
          (np.float32, np.float64), (np.float64, np.float32),
          (np.float32, np.float16)]


@pytest.mark.parametrize("tdt,pdt", _MIXED)
def test_non_float_or_mixed_dtypes_rejected(tdt, pdt):
    """An int grid would be truncated and a mixed pair silently rounded:
    every entry point refuses anything but one floating dtype."""
    t, p = grids(6, 5)
    t, p = t.astype(tdt), p.astype(pdt)
    params = default_params(6, 5)
    with pytest.raises(KernelError, match="floating dtype"):
        hotspot_run(t, p, params, 2)
    with pytest.raises(KernelError, match="floating dtype"):
        hotspot_multistep(pad(t, 1), pad(p, 1), params, 1,
                          ChipEdges.whole_chip())


def test_float64_grids_stay_float64():
    t, p = (g.astype(np.float64) for g in grids(6, 5))
    params = default_params(6, 5)
    assert hotspot_run(t, p, params, 3).dtype == np.float64


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 24), cols=st.integers(1, 24),
       br=st.integers(1, 8), bc=st.integers(1, 8), seed=st.integers(0, 999))
def test_blocked_step_equals_full_step(rows, cols, br, bc, seed):
    """The paper's decomposition invariant, width-1 border scheme:
    computing per block with a one-cell halo of neighbour data
    reproduces the full-grid step exactly."""
    temp, power = grids(rows, cols, seed)
    params = default_params(rows, cols)
    full = hotspot_run(temp, power, params, 1)
    t_pad, p_pad = pad(temp, 1), pad(power, 1)
    whole = ChipEdges.whole_chip()
    blocked = np.empty_like(temp)
    for r0 in range(0, rows, br):
        r1 = min(r0 + br, rows)
        for c0 in range(0, cols, bc):
            c1 = min(c0 + bc, cols)
            blocked[r0:r1, c0:c1] = hotspot_multistep(
                t_pad[r0:r1 + 2, c0:c1 + 2], p_pad[r0:r1 + 2, c0:c1 + 2],
                params, 1, whole.sub_block(r0, r1, c0, c1, rows, cols))
    assert_bits_equal(blocked, full)


def test_run_multiple_steps_converges_monotonically():
    params = default_params(12, 12)
    temp, power = grids(12, 12, 3)
    one = hotspot_run(temp, power, params, 1)
    two = hotspot_run(temp, power, params, 2)
    assert not np.array_equal(one, two)
    assert np.array_equal(hotspot_run(temp, power, params, 0), temp)
    with pytest.raises(KernelError):
        hotspot_run(temp, power, params, -1)


def test_out_parameter():
    params = default_params(6, 6)
    temp, power = grids(6, 6)
    out = np.empty_like(temp)
    res = hotspot_run(temp, power, params, 1, out=out)
    assert res is out
    assert_bits_equal(out, hotspot_run(temp, power, params, 1))


def test_hotspot_cost_bandwidth_bound_on_apu():
    from repro.compute.gpu import make_gpu_apu
    gpu = make_gpu_apu()
    c = hotspot_cost(1024, 1024)
    compute_t = c.flops / (gpu.peak_gflops * 1e9 * c.efficiency)
    memory_t = c.bytes_total / (gpu.mem_bw * c.bw_efficiency)
    assert memory_t > compute_t  # the opposite regime from GEMM
    assert c.bytes_total == pytest.approx(3 * 1024 * 1024 * 4)


def test_hotspot_cost_validation():
    with pytest.raises(KernelError):
        hotspot_cost(0, 5)


def test_chip_edges_helpers():
    whole = ChipEdges.whole_chip()
    e = whole.sub_block(0, 4, 2, 8, rows=8, cols=8)
    assert e == ChipEdges(north=0, south=4, west=2, east=0)
    assert e.sub_block(1, 3, 0, 6, rows=4, cols=6) == ChipEdges(
        north=1, south=5, west=2, east=0)
    assert ChipEdges().sub_block(0, 4, 2, 8, 8, 8) == ChipEdges()
    for bad in (True, -1, math.nan):
        with pytest.raises(KernelError):
            ChipEdges(north=bad)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 20), cols=st.integers(1, 20),
       steps=st.integers(1, 4),
       sides=st.tuples(*[st.just(math.inf) | st.integers(0, 4)] * 4),
       seed=st.integers(0, 999))
def test_sweep_matches_padded_expression_oracle(rows, cols, steps, sides,
                                                seed):
    """The flat-frame sweep issues the padded expression's float32
    operations in its order: every entry point is bit-identical to the
    retained oracle.  (Blocked-vs-full equality alone would not catch a
    reassociated formula, which moves both sides the same way.)  Uses
    the stiff step and wide-range fields, where a reordered sum changes
    about one cell in ten."""
    def fields(r, c, s):
        rng = np.random.default_rng(s)
        return (1000 * rng.random((r, c))).astype(np.float32), \
            (100 * rng.random((r, c))).astype(np.float32)
    temp, power = fields(rows, cols, seed)
    params = STIFF
    assert_bits_equal(hotspot_run(temp, power, params, 1),
                      padded_stencil.step(temp, power, params))
    assert_bits_equal(hotspot_run(temp, power, params, steps),
                      padded_stencil.run(temp, power, params, steps))
    tp, pp = fields(rows + 2 * steps, cols + 2 * steps, seed + 2)
    edges = ChipEdges(*sides)
    assert_bits_equal(
        hotspot_multistep(tp, pp, params, steps, edges),
        padded_stencil.multistep(tp, pp, params, steps, edges))


def test_multistep_whole_chip_equals_run():
    temp, power = grids(12, 10, 4)
    params = default_params(12, 10)
    K = 3
    out = hotspot_multistep(pad(temp, K), pad(power, K), params,
                            K, ChipEdges.whole_chip())
    assert_bits_equal(out, hotspot_run(temp, power, params, K))


def _blocked_multistep(temp, power, params, steps, rcuts, ccuts):
    """``steps`` ghost-zone steps per block of the partition given by
    ``rcuts``/``ccuts``, each block sliced with its K-wide halo from the
    chip's edge-padded frame (which offsets by K)."""
    rows, cols = temp.shape
    t_pad, p_pad = pad(temp, steps), pad(power, steps)
    blocked, whole = np.empty_like(temp), ChipEdges.whole_chip()
    for r0, r1 in itertools.pairwise(rcuts):
        for c0, c1 in itertools.pairwise(ccuts):
            edges = whole.sub_block(r0, r1, c0, c1, rows, cols)
            tp = t_pad[r0:r1 + 2 * steps, c0:c1 + 2 * steps]
            pp = p_pad[r0:r1 + 2 * steps, c0:c1 + 2 * steps]
            blocked[r0:r1, c0:c1] = hotspot_multistep(tp, pp, params,
                                                      steps, edges)
    return blocked


def _params(stiff, rows, cols):
    return STIFF if stiff else default_params(rows, cols)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 20), cols=st.integers(1, 20),
       steps=st.integers(1, 4), stiff=st.booleans(),
       seed=st.integers(0, 999), data=st.data())
def test_multistep_blocked_equals_full(rows, cols, steps, stiff, seed, data):
    """Ghost-zone decomposition invariant: K steps per blocked pass with
    K-wide halos reproduce K full-grid iterations bit for bit, on any
    partition into blocks of side >= 1."""
    temp, power = grids(rows, cols, seed)
    params = _params(stiff, rows, cols)
    rcuts, ccuts = ([0, *sorted(data.draw(st.sets(st.integers(1, n - 1),
                                                  max_size=6))), n]
                    if n > 1 else [0, n] for n in (rows, cols))
    assert_bits_equal(
        _blocked_multistep(temp, power, params, steps, rcuts, ccuts),
        hotspot_run(temp, power, params, steps))


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 20), cols=st.integers(1, 20),
       br=st.integers(1, 9), bc=st.integers(1, 9), steps=st.integers(1, 4),
       stiff=st.booleans(), seed=st.integers(0, 999))
def test_multistep_uniform_tiling_equals_full(rows, cols, br, bc, steps,
                                              stiff, seed):
    """The app's ceil-div tiling: a remainder tile narrower than the halo
    (rows=7, br=3, K=3 gives [3,6) and [6,7)) puts the chip boundary
    inside the halo of a block that does not touch it, whose ghost cells
    beyond the boundary must still be re-replicated every step."""
    temp, power = grids(rows, cols, seed)
    params = _params(stiff, rows, cols)
    rcuts = [*range(0, rows, br), rows]
    ccuts = [*range(0, cols, bc), cols]
    assert_bits_equal(
        _blocked_multistep(temp, power, params, steps, rcuts, ccuts),
        hotspot_run(temp, power, params, steps))


@pytest.mark.parametrize("rows,br,steps", [(7, 3, 3), (98, 48, 4)])
def test_remainder_tile_narrower_than_halo(rows, br, steps):
    """Regression: the middle tile's halo crosses the chip boundary.
    Before distances, ``ChipEdges`` only marked blocks touching the
    boundary, so these halos kept stale edge-padded rows."""
    temp, power = grids(rows, rows, 5)
    cuts = [*range(0, rows, br), rows]
    assert_bits_equal(
        _blocked_multistep(temp, power, STIFF, steps, cuts, cuts),
        hotspot_run(temp, power, STIFF, steps))


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 20), cols=st.integers(1, 20),
       outer=st.integers(1, 9), inner=st.integers(1, 5),
       steps=st.integers(1, 4), seed=st.integers(0, 999))
def test_multistep_nested_tiling_equals_full(rows, cols, outer, inner,
                                             steps, seed):
    """Two-level decomposition, as on a three-level tree: sub-blocks are
    sliced from their parent's padded block, and their distances to the
    chip boundary compose through :meth:`ChipEdges.sub_block`."""
    temp, power = grids(rows, cols, seed)
    t_pad, p_pad = pad(temp, steps), pad(power, steps)
    blocked = np.empty_like(temp)
    whole, k2 = ChipEdges.whole_chip(), 2 * steps
    for r0 in range(0, rows, outer):
        r1 = min(r0 + outer, rows)
        for c0 in range(0, cols, outer):
            c1 = min(c0 + outer, cols)
            parent = whole.sub_block(r0, r1, c0, c1, rows, cols)
            tp, pp = (g[r0:r1 + k2, c0:c1 + k2] for g in (t_pad, p_pad))
            for s0 in range(0, r1 - r0, inner):
                s1 = min(s0 + inner, r1 - r0)
                for u0 in range(0, c1 - c0, inner):
                    u1 = min(u0 + inner, c1 - c0)
                    edges = parent.sub_block(s0, s1, u0, u1, r1 - r0,
                                             c1 - c0)
                    blocked[r0 + s0:r0 + s1, c0 + u0:c0 + u1] = \
                        hotspot_multistep(tp[s0:s1 + k2, u0:u1 + k2],
                                          pp[s0:s1 + k2, u0:u1 + k2],
                                          STIFF, steps, edges)
    assert_bits_equal(blocked, hotspot_run(temp, power, STIFF, steps))


@pytest.mark.parametrize("halo", [1, 2, 3, 4])
def test_block_every_chip_edge_combination(halo):
    """One block per combination of per-side distances to the chip
    boundary (on it, one cell off, a full halo off): the ghost refresh
    and the real-halo sides match the full grid exactly, through
    :func:`hotspot_block` (the executor entry point) too."""
    rows, cols = 13, 11
    temp, power = grids(rows, cols, 7)
    want_all = hotspot_run(temp, power, STIFF, halo)
    t_pad, p_pad = pad(temp, halo), pad(power, halo)
    whole = ChipEdges.whole_chip()
    for n, s, w, e in itertools.product((0, 1, halo), repeat=4):
        r0, r1, c0, c1 = n, rows - s, w, cols - e
        edges = whole.sub_block(r0, r1, c0, c1, rows, cols)
        want = want_all[r0:r1, c0:c1]
        tp = t_pad[r0:r1 + 2 * halo, c0:c1 + 2 * halo]
        pp = p_pad[r0:r1 + 2 * halo, c0:c1 + 2 * halo]
        assert_bits_equal(hotspot_multistep(tp, pp, STIFF, halo, edges),
                          want)
        out = np.full_like(want, np.nan)
        hotspot_block(tp, pp, out, params=STIFF, halo=halo, edges=edges)
        assert_bits_equal(out, want)


def test_block_leaves_padded_inputs_untouched():
    """``t_pad``/``p_pad`` are read-only operands of the launch: the
    kernel must not reuse them as a working frame."""
    temp, power = grids(16, 12, 2)
    params = default_params(16, 12)
    halo = 3
    tp = pad(temp, halo)[:10, 2:]  # a strided view, like a tile
    pp = pad(power, halo)[:10, 2:]
    t0, p0 = tp.tobytes(), pp.tobytes()
    edges = ChipEdges(north=0, south=2, east=1)
    out = np.empty((10 - 2 * halo, tp.shape[1] - 2 * halo), np.float32)
    hotspot_block(tp, pp, out, params=params, halo=halo, edges=edges)
    hotspot_multistep(tp, pp, params, halo, edges)
    assert tp.tobytes() == t0 and pp.tobytes() == p0


def test_multistep_validation():
    params = default_params(8, 8)
    t, p = grids(8, 8)
    with pytest.raises(KernelError):
        hotspot_multistep(t, p, params, 0, ChipEdges.whole_chip())
    with pytest.raises(KernelError):
        hotspot_multistep(t, p[:4], params, 1, ChipEdges.whole_chip())
    with pytest.raises(KernelError):
        hotspot_multistep(t, p, params, 4, ChipEdges.whole_chip())
