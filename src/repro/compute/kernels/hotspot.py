"""HotSpot-2D thermal stencil kernel (paper Section IV-B).

HotSpot models on-die heat: each grid cell's temperature is advanced by
a 5-point stencil combining neighbour diffusion (through lateral thermal
resistances Rx/Ry), vertical dissipation to the ambient (Rz), and the
cell's own power draw.  The Rodinia formulation advanced one explicit
Euler step per kernel launch is reproduced here.

The blocked (Northup) execution loads a sub-block plus a ``K``-wide
halo of neighbour cells per level and runs ``K`` ghost-zone steps on it
(:func:`hotspot_multistep`); ``K = 1`` is the paper's width-1 border
scheme.  Both entry points run one stencil sweep (:func:`_sweep`) with
one float32 operation order, so a blocked step is bit-identical to the
full-grid step -- the invariant the tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.compute.processor import KernelCost
from repro.errors import KernelError

#: Rodinia chip constants.
_CHIP_HEIGHT = 0.016  # m
_CHIP_WIDTH = 0.016   # m
_T_CHIP = 0.0005      # m, die thickness
_K_SI = 100.0         # W/(m K), silicon conductivity
_SPEC_HEAT_SI = 1.75e6
_FACTOR_CHIP = 0.5
_AMB_TEMP = 80.0      # Rodinia's ambient, in its scaled units
_MAX_PD = 3.0e6       # max power density


@dataclass(frozen=True)
class HotspotParams:
    """Discretised coefficients for one grid resolution.

    ``step_div_cap`` and the inverse resistances are precomputed, matching
    the Rodinia kernel's single fused update:

    ``t' = t + step/cap * (p + (tn + ts - 2t)/Ry + (te + tw - 2t)/Rx
    + (amb - t)/Rz)``
    """

    rx_inv: float
    ry_inv: float
    rz_inv: float
    step_div_cap: float
    amb_temp: float = _AMB_TEMP

    def __post_init__(self) -> None:
        for field_name in ("rx_inv", "ry_inv", "rz_inv", "step_div_cap"):
            v = getattr(self, field_name)
            if not np.isfinite(v) or v <= 0:
                raise KernelError(f"{field_name} must be positive and finite, got {v}")


def default_params(rows: int, cols: int) -> HotspotParams:
    """Rodinia coefficients for a ``rows x cols`` grid.

    The explicit-Euler step is chosen from the grid's thermal constants
    (PRECISION/max_slope in Rodinia), keeping the update stable at any
    resolution.
    """
    if rows < 1 or cols < 1:
        raise KernelError(f"grid must be at least 1x1, got {rows}x{cols}")
    grid_height = _CHIP_HEIGHT / rows
    grid_width = _CHIP_WIDTH / cols
    cap = _FACTOR_CHIP * _SPEC_HEAT_SI * _T_CHIP * grid_width * grid_height
    rx = grid_width / (2.0 * _K_SI * _T_CHIP * grid_height)
    ry = grid_height / (2.0 * _K_SI * _T_CHIP * grid_width)
    rz = _T_CHIP / (_K_SI * grid_height * grid_width)
    max_slope = _MAX_PD / (_FACTOR_CHIP * _T_CHIP * _SPEC_HEAT_SI)
    step = 0.001 / max_slope  # PRECISION = 0.001
    return HotspotParams(rx_inv=1.0 / rx, ry_inv=1.0 / ry, rz_inv=1.0 / rz,
                         step_div_cap=step / cap)


@dataclass(frozen=True)
class ChipEdges:
    """How far each side of a block lies from the chip boundary, in cells:
    ``0`` where the side is chip boundary, ``inf`` (the default) where it
    is not known to be near it.  A block next to a remainder tile narrower
    than the halo lies a cell or two off, and its halo crosses the chip."""

    north: float = math.inf
    south: float = math.inf
    west: float = math.inf
    east: float = math.inf

    def __post_init__(self) -> None:
        for d in (self.north, self.south, self.west, self.east):
            if isinstance(d, bool) or not d >= 0:
                raise KernelError(f"chip-edge distances are cell counts "
                                  f">= 0 or inf, got {d!r}")

    @classmethod
    def whole_chip(cls) -> "ChipEdges":
        """All four sides are chip boundary (an undecomposed grid)."""
        return cls(north=0, south=0, west=0, east=0)

    def sub_block(self, r0: int, r1: int, c0: int, c1: int, rows: int,
                  cols: int) -> "ChipEdges":
        """Edges of sub-block [r0:r1, c0:c1] of the rows x cols block
        whose edges these are; on ``whole_chip()``, of a chip block."""
        return ChipEdges(north=self.north + r0, south=self.south + rows - r1,
                         west=self.west + c0, east=self.east + cols - c1)


def _refresh_chip_ghosts(padded: np.ndarray, halo: int,
                         edges: ChipEdges) -> None:
    """Reset the ghost cells beyond the chip boundary to the replicated
    chip edge (Rodinia's boundary condition), however stale they have
    become.  A side ``d`` cells from the boundary has ``halo - d`` such
    rows (or columns), none once ``d >= halo``."""
    n, s, w, e = (max(halo - d, 0) for d in
                  (edges.north, edges.south, edges.west, edges.east))
    if n:
        padded[:n, :] = padded[n, :]
    if s:
        padded[-s:, :] = padded[-s - 1, :]
    if w:
        padded[:, :w] = padded[:, w][:, None]
    if e:
        padded[:, -e:] = padded[:, -e - 1][:, None]


def _sweep(temp: np.ndarray, power: np.ndarray, params: HotspotParams,
           steps: int, *, halo: int = 0,
           edges: ChipEdges = ChipEdges.whole_chip(),
           out: np.ndarray | None = None) -> np.ndarray:
    """``steps`` Euler steps in one flat padded frame.  Returns the cells
    ``halo`` in from the grid's sides, into ``out`` if given.

    ``temp``/``power`` share one shape and floating dtype, the scratch's
    (an int grid would truncate, a mixed pair round silently).  The
    frame's ring extends the ``halo`` band by one: before each step the
    ghost cells in both beyond the chip boundary are re-replicated.
    Flattened, the N/S/W/E neighbours of rows 1..R are the slices at
    ``-(C+2)``, ``+(C+2)``, ``-1``, ``+1``: one step is 14 ufuncs into
    scratch and the other frame, in the association of Rodinia's
    ``t + cap*(p + (n + s - 2t)*ry + (e + w - 2t)*rx + (amb - t)*rz)``.
    IEEE ops round alike on any layout, so that one order keeps blocked
    steps bit-identical to full-grid ones.  The sweep also writes the
    ring's columns (wrapped rows), which only ghost cells ever read.
    """
    if temp.ndim != 2 or temp.shape != power.shape:
        raise KernelError(f"temp {temp.shape} and power {power.shape} "
                          "must be 2-D grids of one shape")
    if temp.dtype != power.dtype or not np.issubdtype(temp.dtype, np.floating):
        raise KernelError(f"temp ({temp.dtype}) and power ({power.dtype}) "
                          "must share one floating dtype")
    rows, cols = temp.shape
    w = cols + 2
    span = rows * w
    cur, nxt = (np.zeros((rows + 2, w), dtype=temp.dtype) for _ in range(2))
    cur[1:-1, 1:-1] = temp
    p = np.zeros(span, dtype=temp.dtype)
    p.reshape(rows, w)[:, 1:-1] = power
    a, b, c = (np.empty(span, dtype=temp.dtype) for _ in range(3))
    for _ in range(steps):
        _refresh_chip_ghosts(cur, halo + 1, edges)
        f = cur.ravel()
        t = f[w:w + span]
        np.add(f[:span], f[2 * w:], out=a)                  # north + south
        np.multiply(2.0, t, out=b)                          # 2 * temp
        np.subtract(a, b, out=a)
        np.multiply(a, params.ry_inv, out=a)
        np.add(p, a, out=a)
        np.add(f[w + 1:w + 1 + span], f[w - 1:w - 1 + span],
               out=c)                                       # east + west
        np.subtract(c, b, out=c)
        np.multiply(c, params.rx_inv, out=c)
        np.add(a, c, out=a)
        np.subtract(params.amb_temp, t, out=b)
        np.multiply(b, params.rz_inv, out=b)
        np.add(a, b, out=a)
        np.multiply(params.step_div_cap, a, out=a)
        np.add(t, a, out=nxt.ravel()[w:w + span])
        cur, nxt = nxt, cur
    k = halo + 1
    if out is None:
        return cur[k:-k, k:-k].copy()
    np.copyto(out, cur[k:-k, k:-k])
    return out


def hotspot_multistep(t_pad: np.ndarray, p_pad: np.ndarray,
                      params: HotspotParams, steps: int, edges: ChipEdges,
                      out: np.ndarray | None = None) -> np.ndarray:
    """``steps`` Euler steps on a halo-padded block (the ghost-zone /
    "pyramid" scheme of the Rodinia GPU kernel the paper uses).

    ``t_pad``/``p_pad`` carry the block plus a ``steps``-wide halo of
    neighbour data; ``edges`` says where the chip boundary falls in it,
    and the cells beyond it are re-replicated every step.  Each step
    invalidates one more halo ring; after ``steps`` steps the interior
    ``[steps:-steps, steps:-steps]`` is bit-identical to ``steps``
    full-grid iterations -- the property the tests pin down.  Returns
    that valid interior (into ``out`` if given); the inputs are left
    untouched."""
    if steps < 1 or min(t_pad.shape) <= 2 * steps:
        raise KernelError(f"{steps} ghost-zone steps need steps >= 1 and "
                          f"a block wider than {2 * steps}, got {t_pad.shape}")
    return _sweep(t_pad, p_pad, params, steps, halo=steps, edges=edges,
                  out=out)


def hotspot_run(temp: np.ndarray, power: np.ndarray, params: HotspotParams,
                steps: int, out: np.ndarray | None = None) -> np.ndarray:
    """``steps`` full-grid iterations, into ``out`` if given: the
    reference result, and the kernel of the Figure 6 HotSpot normaliser
    (:mod:`repro.bench.cells`)."""
    if steps < 0:
        raise KernelError(f"steps must be >= 0, got {steps}")
    return _sweep(temp, power, params, steps, out=out)


#: Bytes per grid cell: the kernel runs in single precision.
DTYPE_SIZE = 4


def hotspot_cost(rows: int, cols: int, *, steps: int = 1) -> KernelCost:
    """Roofline cost of ``steps`` stencil launches on a block.

    Per cell: ~14 flops; traffic is one read of temp and power and one
    write of temp (neighbour reuse is caught by the hardware cache), so
    the kernel is strongly bandwidth-bound -- the reason HotSpot cannot
    hide slow storage the way GEMM does (Section V-B).
    """
    if rows < 1 or cols < 1:
        raise KernelError(f"grid must be at least 1x1, got {rows}x{cols}")
    cells = float(rows * cols)
    # bw_efficiency is calibrated, not theoretical: the paper's APU GPU
    # sustains roughly 0.2 Gcell/s on HotSpot-2D (consistent with its
    # "8x over the CPU" measurement and Rodinia-era Kaveri results),
    # i.e. ~12% of the 20 GB/s DRAM interface once launch gaps, border
    # handling, and uncoalesced edges are paid.
    return KernelCost(flops=14.0 * cells * steps,
                      bytes_read=2.0 * cells * DTYPE_SIZE * steps,
                      bytes_written=1.0 * cells * DTYPE_SIZE * steps,
                      efficiency=0.55,
                      bw_efficiency=0.12)


def hotspot_block(t_pad: np.ndarray, p_pad: np.ndarray, out: np.ndarray, *,
                  params: HotspotParams, halo: int,
                  edges: ChipEdges) -> None:
    """Executor entry point (module-level, picklable): run ``halo``
    ghost-zone steps on a padded block, writing the valid interior into
    ``out``.  ``params`` and ``edges`` ride along as picklable kwargs."""
    hotspot_multistep(t_pad, p_pad, params, halo, edges, out=out)
