"""Unit tests for the scaled bench configuration."""

import pytest

from repro.bench import configs
from repro.errors import ConfigError
from repro.memory.units import GB, MB


def test_scale_constants():
    assert configs.LINEAR_SCALE == 16
    assert configs.BYTE_SCALE == 256
    assert configs.STAGING_BYTES == 2 * GB // 256


def test_workload_scale_matches_paper_divided():
    s = configs.DEFAULT_SCALE
    assert s.gemm_n == 1024           # 16k / 16
    assert s.hotspot_n == 1024
    assert s.spmv_rows == 62500       # 16M / 256


def test_scaled_apu_tree_structure():
    tree = configs.scaled_apu_tree("ssd")
    assert tree.get_max_treelevel() == 1
    (leaf,) = tree.leaves()
    assert leaf.capacity == configs.STAGING_BYTES
    # Bandwidths unscaled, latencies scaled.
    assert tree.root.device.spec.read_bw == 1400 * MB
    assert tree.root.device.spec.latency == pytest.approx(80e-6 / 256)
    assert leaf.uplink.latency == pytest.approx(10e-6 / 256)
    tree.close()


def test_flop_scaling_applies_only_when_requested():
    plain = configs.scaled_apu_tree("ssd")
    scaled = configs.scaled_apu_tree("ssd", flop_bound_app=True)
    gpu_plain = plain.leaves()[0].processor_named("gpu-apu")
    gpu_scaled = scaled.leaves()[0].processor_named("gpu-apu")
    assert gpu_plain.peak_gflops == pytest.approx(737.0)
    assert gpu_scaled.peak_gflops == pytest.approx(737.0 / 16)
    assert gpu_plain.mem_bw == gpu_scaled.mem_bw  # bandwidth untouched
    plain.close()
    scaled.close()


def test_storage_bandwidth_override():
    tree = configs.scaled_apu_tree("ssd", read_bw=3500 * MB,
                                   write_bw=2100 * MB)
    assert tree.root.device.spec.read_bw == 3500 * MB
    tree.close()


def test_scaled_dgpu_tree_structure():
    tree = configs.scaled_dgpu_tree("hdd")
    assert tree.get_max_treelevel() == 2
    (leaf,) = tree.leaves()
    assert leaf.capacity == configs.STAGING_BYTES // 4
    tree.close()


def test_unknown_storage_rejected():
    with pytest.raises(ConfigError):
        configs.scaled_apu_tree("tape")


def test_fig9_ladder_matches_paper_endpoints():
    assert configs.FIG9_LADDER[0] == (1400 * MB, 600 * MB)
    assert configs.FIG9_LADDER[-1] == (3500 * MB, 2100 * MB)
    reads = [r for r, _ in configs.FIG9_LADDER]
    assert reads == sorted(reads)


def test_fig11_inputs_scaled_from_paper():
    # The paper's (16k, 4k), (32k, 4k), (32k, 8k) inputs at 1/16 scale.
    from repro.tools.experiment.config import find_scenario, load_scenario
    matrix = load_scenario(find_scenario("fig11")).matrix
    assert matrix["input"] == [f"{m // configs.LINEAR_SCALE}x"
                               f"{n // configs.LINEAR_SCALE}"
                               for m, n in ((16384, 4096), (32768, 4096),
                                            (32768, 8192))]
    assert matrix["gpu_queues"] == [8, 16, 32]
    assert configs.FIG11_CPU_CELLS_PER_S == pytest.approx(
        0.24 * configs.FIG11_GPU_CELLS_PER_S)
