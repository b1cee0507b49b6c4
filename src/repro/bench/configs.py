"""The scaled experimental setup.

The paper's evaluation (Section V-A) runs 16k/32k dense matrices and a
16M-row sparse matrix against a 2 GB DRAM staging buffer, an SSD at
1400/600 MB/s, and a 125 MB/s disk.  The bench machines are the
:mod:`repro.topology.builders` machines rescaled to 1/16 linear scale by
:func:`at_bench_scale`, which states the rules that keep every figure's
ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.channel import Link, default_link_for
from repro.memory.device import DeviceSpec
from repro.memory.units import MB
from repro.topology.builders import (STAGING_BUFFER_BYTES, apu_two_level,
                                     discrete_gpu_three_level,
                                     in_memory_single_level)
from repro.topology.tree import TopologyTree

LINEAR_SCALE = 16
BYTE_SCALE = LINEAR_SCALE ** 2

#: Paper staging buffer: 2 GB of DRAM for out-of-core runs.
STAGING_BYTES = STAGING_BUFFER_BYTES // BYTE_SCALE

#: Figure 9's storage ladder: the evaluated SSD up to the fastest
#: PCIe parts of the day, in (read, write) bytes/s.
FIG9_LADDER = [
    (1400 * MB, 600 * MB),
    (1900 * MB, 900 * MB),
    (2400 * MB, 1300 * MB),
    (3000 * MB, 1700 * MB),
    (3500 * MB, 2100 * MB),
]


@dataclass(frozen=True)
class WorkloadScale:
    """Scaled workload sizes (paper sizes divided per the rules of
    :func:`at_bench_scale`)."""

    gemm_n: int = 16384 // LINEAR_SCALE          # 16k -> 1024
    hotspot_n: int = 16384 // LINEAR_SCALE       # 16k -> 1024
    hotspot_iterations: int = 8
    hotspot_steps_per_pass: int = 8
    spmv_rows: int = 16_000_000 // BYTE_SCALE    # 16M -> 62500
    spmv_preset: str = "circuit-like"
    seed: int = 2019


DEFAULT_SCALE = WorkloadScale()


def at_bench_scale(tree: TopologyTree, *, flop_bound_app: bool = False,
                   linear_scale: int = LINEAR_SCALE) -> TopologyTree:
    """Rescale a built machine to bench scale, in place; returns ``tree``.

    The rules keep the *ratios* every figure depends on:

    * problem edges shrink by ``linear_scale`` (16), so working sets and
      per-level transfer volumes shrink by its square (``BYTE_SCALE``,
      256); the caller shrinks the staging buffer the same way (2 GB ->
      8 MB), keeping the chunk-count structure (a 16k matrix against
      2 GB behaves like a 1k matrix against 8 MB);
    * device and link latencies shrink by ``BYTE_SCALE``, keeping the
      seek:transfer balance (a full-scale chunk costs seconds against a
      12 ms seek; a scaled chunk must see a scaled seek), and so do
      kernel launch overheads;
    * bandwidths are untouched -- transfer times scale with bytes;
    * bandwidth-bound kernels (HotSpot, SpMV) need no further change:
      their compute time scales with bytes automatically.  FLOP-bound
      GEMM does: its compute scales as edge^3, so with
      ``flop_bound_app`` every FLOP rate is divided by ``linear_scale``,
      restoring the full-scale compute:I/O ratio.
    """
    byte_scale = linear_scale ** 2
    # Field by field: ``dataclasses.replace`` costs twice as much in the
    # serve bench's timed setup.  Capacity and duplex stay unchanged, as
    # ``Device`` derived its allocator and read/write resources from them.
    for node in tree.nodes():
        s = node.device.spec
        node.device.spec = DeviceSpec(s.name, s.kind, s.capacity, s.read_bw,
                                      s.write_bw, s.latency / byte_scale,
                                      s.duplex)
        link = node.uplink
        if link is not None:
            node.uplink = Link(link.name, link.bandwidth,
                               link.latency / byte_scale, link.duplex)
        for proc in node.processors:
            proc.launch_overhead = proc.launch_overhead / byte_scale
            if flop_bound_app:
                proc.peak_gflops = proc.peak_gflops / linear_scale
    return tree


def scaled_apu_tree(storage: str = "ssd", *,
                    flop_bound_app: bool = False,
                    staging_bytes: int | None = None,
                    read_bw: float | None = None,
                    write_bw: float | None = None,
                    linear_scale: int = LINEAR_SCALE) -> TopologyTree:
    """:func:`~repro.topology.builders.apu_two_level` at bench scale.

    ``read_bw``/``write_bw`` override the storage device for the
    Figure 9 ladder (the staging link is chosen from the overridden
    device); ``linear_scale`` overrides the 1/16 default (the
    scaling-invariance tests compare scales against each other).
    """
    if staging_bytes is None:
        staging_bytes = STAGING_BUFFER_BYTES // linear_scale ** 2
    tree = apu_two_level(storage=storage, staging_bytes=staging_bytes)
    if read_bw is not None or write_bw is not None:
        root = tree.root
        root.device.spec = root.device.spec.scaled(read_bw=read_bw,
                                                   write_bw=write_bw)
        (staging,) = root.children
        staging.uplink = default_link_for(root.device.spec,
                                          staging.device.spec)
    return at_bench_scale(tree, flop_bound_app=flop_bound_app,
                          linear_scale=linear_scale)


def scaled_dgpu_tree(storage: str = "hdd", *,
                     flop_bound_app: bool = False,
                     staging_bytes: int = STAGING_BYTES,
                     gpu_mem_bytes: int = STAGING_BYTES // 4) -> TopologyTree:
    """:func:`~repro.topology.builders.discrete_gpu_three_level` (Figure
    8) at bench scale.

    GPU device memory is scaled below the staging buffer so the extra
    level actually decomposes (the W9100's 16 GB would otherwise swallow
    every scaled working set whole).
    """
    return at_bench_scale(
        discrete_gpu_three_level(storage=storage, staging_bytes=staging_bytes,
                                 gpu_mem_bytes=gpu_mem_bytes),
        flop_bound_app=flop_bound_app)


def scaled_inmemory_tree(*, flop_bound_app: bool = False,
                         linear_scale: int = LINEAR_SCALE) -> TopologyTree:
    """:func:`~repro.topology.builders.in_memory_single_level` at bench
    scale: the tree every Figure 6 in-memory bar runs on."""
    return at_bench_scale(in_memory_single_level(),
                          flop_bound_app=flop_bound_app,
                          linear_scale=linear_scale)


# -- Figure 11 calibration ----------------------------------------------------

#: Aggregate APU-GPU HotSpot throughput (cells/s) in the load-balancing
#: study; the CPU sustains ~24% of it (the ratio behind the paper's
#: "up to 24%" improvement).
FIG11_GPU_CELLS_PER_S = 1.2e8
FIG11_CPU_CELLS_PER_S = 0.24 * FIG11_GPU_CELLS_PER_S

#: Stencil steps fused per resident chunk in the load-balancing study.
#: The paper notes "the parameter n has to be big enough so there are
#: enough elements per queue"; at 1/16 scale the per-chunk task count
#: shrinks 16x, so fusing steps restores enough tasks per queue for the
#: distribution quantisation not to mask the CPU's contribution.
FIG11_STEPS_PER_CHUNK = 32
