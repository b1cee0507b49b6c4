"""The scaled experimental setup.

The paper's evaluation (Section V-A) runs 16k/32k dense matrices and a
16M-row sparse matrix against a 2 GB DRAM staging buffer, an SSD at
1400/600 MB/s, and a 125 MB/s disk.  This module reproduces that setup
at 1/16 linear scale with rules chosen so the *ratios* every figure
depends on are preserved:

* problem edges shrink by ``LINEAR_SCALE`` (16), so working sets and
  per-level transfer volumes shrink by ``BYTE_SCALE`` (256);
* the staging buffer shrinks by ``BYTE_SCALE`` (2 GB -> 8 MB), keeping
  the chunk-count structure (a 16k matrix against 2 GB behaves like a
  1k matrix against 8 MB);
* device/link latencies and kernel launch overheads shrink by
  ``BYTE_SCALE``, keeping the seek:transfer balance (a full-scale chunk
  costs seconds against a 12 ms seek; a scaled chunk must see a scaled
  seek);
* bandwidths are untouched -- transfer times scale with bytes;
* bandwidth-bound kernels (HotSpot, SpMV) need no further change: their
  compute time scales with bytes automatically.  FLOP-bound GEMM does:
  its compute scales as edge^3, so the GPU's FLOP rate is divided by
  ``LINEAR_SCALE``, restoring the full-scale compute:I/O ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compute.cpu import make_cpu_steamroller
from repro.compute.gpu import make_gpu_apu, make_gpu_w9100
from repro.compute.processor import Processor
from repro.errors import ConfigError
from repro.memory.catalog import spec as device_spec
from repro.memory.channel import Link, default_link_for
from repro.memory.device import Device, DeviceSpec
from repro.memory.units import GB, MB
from repro.topology.tree import TopologyTree
from repro.topology.validate import validate_tree

LINEAR_SCALE = 16
BYTE_SCALE = LINEAR_SCALE ** 2

#: Paper staging buffer: 2 GB of DRAM for out-of-core runs.
STAGING_BYTES = 2 * GB // BYTE_SCALE

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
    """Scaled workload sizes (paper sizes divided per the module rules)."""

    gemm_n: int = 16384 // LINEAR_SCALE          # 16k -> 1024
    hotspot_n: int = 16384 // LINEAR_SCALE       # 16k -> 1024
    hotspot_iterations: int = 8
    hotspot_steps_per_pass: int = 8
    spmv_rows: int = 16_000_000 // BYTE_SCALE    # 16M -> 62500
    spmv_preset: str = "circuit-like"
    seed: int = 2019


DEFAULT_SCALE = WorkloadScale()


def _scaled_spec(spec: DeviceSpec, *, capacity: int | None = None,
                 byte_scale: int = BYTE_SCALE) -> DeviceSpec:
    return DeviceSpec(
        name=spec.name, kind=spec.kind,
        capacity=capacity if capacity is not None else spec.capacity,
        read_bw=spec.read_bw, write_bw=spec.write_bw,
        latency=spec.latency / byte_scale, duplex=spec.duplex)


def _scaled_link(link: Link, *, byte_scale: int = BYTE_SCALE) -> Link:
    return Link(name=link.name, bandwidth=link.bandwidth,
                latency=link.latency / byte_scale, duplex=link.duplex)


def _scaled_processor(proc: Processor, *, scale_flops: bool,
                      linear_scale: int = LINEAR_SCALE) -> Processor:
    proc = replace(proc)  # shallow copy; Processor is a plain dataclass
    proc.launch_overhead = proc.launch_overhead / (linear_scale ** 2)
    if scale_flops:
        proc.peak_gflops = proc.peak_gflops / linear_scale
    return proc


def scaled_apu_tree(storage: str = "ssd", *,
                    flop_bound_app: bool = False,
                    staging_bytes: int | None = None,
                    read_bw: float | None = None,
                    write_bw: float | None = None,
                    linear_scale: int = LINEAR_SCALE) -> TopologyTree:
    """The paper's APU system at bench scale.

    ``flop_bound_app=True`` applies the GEMM FLOP-rate scaling;
    ``read_bw``/``write_bw`` override the storage device for the
    Figure 9 ladder; ``linear_scale`` overrides the 1/16 default (the
    scaling-invariance tests compare scales against each other).
    """
    if storage not in ("ssd", "hdd", "nvm", "ssd-fast"):
        raise ConfigError(f"unsupported storage {storage!r}")
    byte_scale = linear_scale ** 2
    if staging_bytes is None:
        staging_bytes = 2 * GB // byte_scale
    tree = TopologyTree()
    spec = _scaled_spec(device_spec(storage), byte_scale=byte_scale)
    if read_bw is not None or write_bw is not None:
        spec = spec.scaled(read_bw=read_bw, write_bw=write_bw)
    root = tree.add_node(Device(spec=spec, instance=f"{storage}.root"))
    procs = [_scaled_processor(make_gpu_apu(), scale_flops=flop_bound_app,
                               linear_scale=linear_scale),
             _scaled_processor(make_cpu_steamroller(),
                               scale_flops=flop_bound_app,
                               linear_scale=linear_scale)]
    dram_spec = _scaled_spec(device_spec("dram"), capacity=staging_bytes,
                             byte_scale=byte_scale)
    tree.add_node(Device(spec=dram_spec, instance="dram.staging"),
                  parent=root, processors=procs,
                  link=_scaled_link(default_link_for(spec, dram_spec),
                                    byte_scale=byte_scale))
    validate_tree(tree)
    return tree


def scaled_dgpu_tree(storage: str = "hdd", *,
                     flop_bound_app: bool = False,
                     staging_bytes: int = STAGING_BYTES,
                     gpu_mem_bytes: int = STAGING_BYTES // 4) -> TopologyTree:
    """The discrete-GPU system (Figure 8) at bench scale.

    GPU device memory is scaled below the staging buffer so the extra
    level actually decomposes (the W9100's 16 GB would otherwise swallow
    every scaled working set whole).
    """
    tree = TopologyTree()
    root_spec = _scaled_spec(device_spec(storage))
    root = tree.add_node(Device(spec=root_spec, instance=f"{storage}.root"))
    dram_spec = _scaled_spec(device_spec("dram"), capacity=staging_bytes)
    dram = tree.add_node(
        Device(spec=dram_spec, instance="dram.staging"), parent=root,
        processors=[_scaled_processor(make_cpu_steamroller(),
                                      scale_flops=flop_bound_app)],
        link=_scaled_link(default_link_for(root_spec, dram_spec)))
    gpu_spec = _scaled_spec(device_spec("gpu-mem"), capacity=gpu_mem_bytes)
    tree.add_node(
        Device(spec=gpu_spec, instance="gpu-mem.w9100"), parent=dram,
        processors=[_scaled_processor(make_gpu_w9100(),
                                      scale_flops=flop_bound_app)],
        link=_scaled_link(default_link_for(dram_spec, gpu_spec)))
    validate_tree(tree)
    return tree


def scaled_inmemory_tree(*, flop_bound_app: bool = False,
                         linear_scale: int = LINEAR_SCALE) -> TopologyTree:
    """The in-memory baseline system at bench scale."""
    byte_scale = linear_scale ** 2
    tree = TopologyTree()
    dram_spec = _scaled_spec(device_spec("dram"), byte_scale=byte_scale)
    tree.add_node(
        Device(spec=dram_spec, instance="dram.main"),
        processors=[
            _scaled_processor(make_gpu_apu(), scale_flops=flop_bound_app,
                              linear_scale=linear_scale),
            _scaled_processor(make_cpu_steamroller(),
                              scale_flops=flop_bound_app,
                              linear_scale=linear_scale)])
    validate_tree(tree)
    return tree


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
