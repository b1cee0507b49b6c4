"""Unit tests for processor models and the roofline."""

import pytest

from repro.compute.cpu import make_cpu_steamroller
from repro.compute.gpu import make_gpu_apu, make_gpu_w9100
from repro.compute.processor import KernelCost, Processor, ProcessorKind
from repro.errors import ConfigError
from repro.sim.trace import Phase


def test_kernel_cost_validation():
    with pytest.raises(ConfigError):
        KernelCost(flops=-1, bytes_read=0)
    with pytest.raises(ConfigError):
        KernelCost(flops=1, bytes_read=0, efficiency=0.0)
    with pytest.raises(ConfigError):
        KernelCost(flops=1, bytes_read=0, bw_efficiency=1.5)


def test_kernel_cost_plus_weighted_efficiency():
    a = KernelCost(flops=100, bytes_read=10, efficiency=1.0, bw_efficiency=1.0)
    b = KernelCost(flops=300, bytes_read=30, efficiency=0.5, bw_efficiency=0.5)
    c = a.plus(b)
    assert c.flops == 400
    assert c.bytes_read == 40
    assert c.efficiency == pytest.approx((100 * 1.0 + 300 * 0.5) / 400)
    assert c.bw_efficiency == pytest.approx((10 * 1.0 + 30 * 0.5) / 40)


def test_roofline_compute_bound():
    p = Processor(name="p", kind=ProcessorKind.GPU, peak_gflops=100,
                  mem_bw=1e12, launch_overhead=0.0)
    cost = KernelCost(flops=100e9, bytes_read=1.0)
    assert p.exec_time(cost) == pytest.approx(1.0)


def test_roofline_bandwidth_bound():
    p = Processor(name="p", kind=ProcessorKind.GPU, peak_gflops=1e6,
                  mem_bw=10e9, launch_overhead=0.0)
    cost = KernelCost(flops=1.0, bytes_read=5e9, bytes_written=5e9)
    assert p.exec_time(cost) == pytest.approx(1.0)


def test_efficiency_scales_compute_time():
    p = Processor(name="p", kind=ProcessorKind.GPU, peak_gflops=100,
                  mem_bw=1e12, launch_overhead=0.0)
    cost = KernelCost(flops=100e9, bytes_read=1.0, efficiency=0.5)
    assert p.exec_time(cost) == pytest.approx(2.0)


def test_launch_overhead_added():
    p = Processor(name="p", kind=ProcessorKind.GPU, peak_gflops=100,
                  mem_bw=1e9, launch_overhead=0.25)
    assert p.exec_time(KernelCost(flops=0, bytes_read=0)) == pytest.approx(0.25)


def test_phase_by_kind():
    assert make_cpu_steamroller().phase is Phase.CPU_COMPUTE
    assert make_gpu_apu().phase is Phase.GPU_COMPUTE


def test_paper_calibration():
    """Peak numbers from Section V-A hardware."""
    apu = make_gpu_apu()
    assert apu.peak_gflops == pytest.approx(737.0)
    assert apu.mem_bw == pytest.approx(20e9)  # shares host DRAM
    w9100 = make_gpu_w9100()
    assert w9100.peak_gflops == pytest.approx(5240.0)
    assert w9100.mem_bw == pytest.approx(320e9)
    cpu = make_cpu_steamroller()
    assert cpu.peak_gflops == pytest.approx(118.4)


def test_cpu_cores_scale_peak():
    one = make_cpu_steamroller(cores=1)
    four = make_cpu_steamroller(cores=4)
    assert four.peak_gflops == pytest.approx(4 * one.peak_gflops)


def test_invalid_processor_rejected():
    with pytest.raises(ConfigError):
        Processor(name="x", kind=ProcessorKind.CPU, peak_gflops=0, mem_bw=1)
    with pytest.raises(ConfigError):
        Processor(name="x", kind=ProcessorKind.CPU, peak_gflops=1, mem_bw=0)


def test_gpu_occupancy_curve():
    gpu = make_gpu_apu()  # 8 SIMD x 4 waves -> knee at 32
    assert gpu.occupancy(0) == 0.0
    assert gpu.occupancy(8) == pytest.approx(0.25)
    assert gpu.occupancy(16) == pytest.approx(0.5)
    assert gpu.occupancy(32) == 1.0
    assert gpu.occupancy(64) == 1.0
    assert gpu.effective_gflops(16) == pytest.approx(737.0 / 2)
    assert gpu.effective_mem_bw(8) == pytest.approx(5e9)
    with pytest.raises(ConfigError):
        gpu.occupancy(-1)


def test_gpu_validation():
    with pytest.raises(ConfigError):
        make_gpu_apu().__class__(name="g", kind=ProcessorKind.GPU,
                                 peak_gflops=1, mem_bw=1, compute_units=0)
