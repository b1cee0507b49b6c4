"""Unit tests for the CPU+GPU work-stealing simulation (Figure 11)."""

import pytest

from repro.core.queues import WorkQueue
from repro.core.stealing import (GPU_SATURATION_WORKGROUPS, StealConfig,
                                 _distribute, gpu_only_config, simulate,
                                 simulate_chunk)
from repro.errors import ConfigError


def config(**overrides):
    base = dict(
        matrix_dim=4096, chunk_dim=1024, gpu_queues=32, cpu_threads=4,
        gpu_cells_per_s=1.2e8, cpu_cells_per_s=2.9e7,
        ssd_read_bw=1400e6, ssd_write_bw=600e6)
    base.update(overrides)
    return StealConfig(**base)


def speedup_vs_gpu_only(cfg):
    """Figure 11's metric: makespan improvement over GPU-only Northup."""
    return simulate(gpu_only_config(cfg)).makespan / simulate(cfg).makespan


def test_config_derived_quantities():
    cfg = config(steps_per_chunk=4)
    assert cfg.num_chunks == 16
    assert cfg.tasks_per_chunk == 64 * 4
    assert cfg.cells_per_task == 16 * 1024
    assert cfg.chunk_load_time == pytest.approx(1024 * 1024 * 8 / 1400e6)
    assert cfg.chunk_writeback_time == pytest.approx(1024 * 1024 * 4 / 600e6)


def test_config_validation():
    with pytest.raises(ConfigError):
        config(chunk_dim=8192)           # chunk larger than matrix
    with pytest.raises(ConfigError):
        config(matrix_dim=4097)          # not divisible
    with pytest.raises(ConfigError):
        config(chunk_dim=1000)           # block height doesn't divide
    with pytest.raises(ConfigError):
        config(gpu_queues=0)
    with pytest.raises(ConfigError):
        config(cpu_threads=-1)
    with pytest.raises(ConfigError):
        config(gpu_cells_per_s=0)
    with pytest.raises(ConfigError):
        config(steps_per_chunk=0)


def test_per_worker_rates():
    cfg = config(gpu_queues=8)
    # Below saturation every workgroup runs at 1/32 of aggregate peak.
    assert cfg.gpu_rate_per_workgroup() == pytest.approx(1.2e8 / 32)
    cfg64 = config(gpu_queues=64)
    assert cfg64.gpu_rate_per_workgroup() == pytest.approx(1.2e8 / 64)
    assert config(cpu_threads=4).cpu_rate_per_thread() == pytest.approx(2.9e7 / 4)


def test_all_tasks_complete():
    cfg = config()
    stats = simulate(cfg)
    assert stats.tasks_total == cfg.num_chunks * cfg.tasks_per_chunk
    assert stats.makespan > 0


def test_chunk_outcome_work_conservation():
    cfg = config()
    out = simulate_chunk(cfg)
    total_cells = cfg.tasks_per_chunk * cfg.cells_per_task
    done_gpu = out.gpu_busy * cfg.gpu_rate_per_workgroup()
    done_cpu = out.cpu_busy * cfg.cpu_rate_per_thread()
    assert done_gpu + done_cpu == pytest.approx(total_cells)
    assert out.duration >= out.gpu_busy / cfg.gpu_queues


def test_gpu_only_runs_all_tasks_on_gpu():
    cfg = gpu_only_config(config())
    stats = simulate(cfg)
    assert stats.tasks_cpu == 0
    assert stats.tasks_gpu == cfg.num_chunks * cfg.tasks_per_chunk


def test_overloaded_cpu_queues_trigger_stealing():
    # CPU threads at half the calibrated rate: their weighted share is
    # more than they can finish alongside the GPU.
    cfg = config(cpu_cells_per_s=1.45e7)
    gpu = [WorkQueue(f"gpu-q{i}") for i in range(cfg.gpu_queues)]
    cpu = [WorkQueue(f"cpu-q{i}") for i in range(cfg.cpu_threads)]
    _distribute(cfg.tasks_per_chunk, gpu, cpu)
    out = simulate_chunk(cfg)
    assert out.steals > 0
    # Every task dealt to a CPU queue ran on its owner or was stolen.
    assert out.tasks_cpu + out.steals == sum(len(q) for q in cpu)
    # Without stealing the over-weighted CPU queues are the critical path.
    cpu_drain = max(len(q) for q in cpu) * cfg.cells_per_task \
        / cfg.cpu_rate_per_thread()
    assert out.duration < cpu_drain


def test_cpu_and_gpu_share_work():
    stats = simulate(config())
    assert stats.tasks_cpu > 0
    assert stats.tasks_gpu > stats.tasks_cpu  # GPU is much faster


def test_more_queues_beat_fewer():
    """Figure 11's headline: 32 queues best among 8/16/32."""
    times = {q: simulate(config(gpu_queues=q)).makespan for q in (8, 16, 32)}
    assert times[32] < times[16] < times[8]


def test_speedup_vs_gpu_only_positive_at_32_queues():
    s = speedup_vs_gpu_only(config(gpu_queues=32))
    assert s > 1.05   # CPU help is visible
    assert s < 1.35   # bounded by the CPU:GPU throughput ratio


def test_underoccupied_gpu_slower_than_baseline():
    # 8 queues = 1/4 occupancy: worse than the full-occupancy baseline
    # even with CPU help -- the mechanism behind "32 queues is best".
    assert speedup_vs_gpu_only(config(gpu_queues=8)) < 1.0


def test_determinism():
    a = simulate(config())
    b = simulate(config())
    assert a.makespan == b.makespan
    assert (a.tasks_cpu, a.tasks_gpu, a.steals) == \
           (b.tasks_cpu, b.tasks_gpu, b.steals)


def test_saturated_gpu_queue_count_constant():
    assert GPU_SATURATION_WORKGROUPS == 32


def test_writeback_tail_counted():
    # Makespan must cover the final writeback, not just the last kernel.
    cfg = config()
    stats = simulate(cfg)
    assert stats.makespan >= stats.chunk_compute_time * cfg.num_chunks * 0.9


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(gpu_queues=st.sampled_from([4, 8, 16, 32, 48]),
       cpu_threads=st.integers(0, 6),
       cpu_rate=st.floats(0.5e7, 6e7),
       steps=st.integers(1, 8))
def test_work_conservation_property(gpu_queues, cpu_threads, cpu_rate,
                                    steps):
    """Whatever the configuration, every task executes exactly once and
    busy time accounts for exactly the total cells."""
    cfg = StealConfig(
        matrix_dim=2048, chunk_dim=512, gpu_queues=gpu_queues,
        cpu_threads=cpu_threads, gpu_cells_per_s=1.2e8,
        cpu_cells_per_s=cpu_rate, ssd_read_bw=1400e6, ssd_write_bw=600e6,
        steps_per_chunk=steps)
    out = simulate_chunk(cfg)
    assert out.tasks_gpu + out.tasks_cpu == cfg.tasks_per_chunk
    total_cells = cfg.tasks_per_chunk * cfg.cells_per_task
    done = (out.gpu_busy * cfg.gpu_rate_per_workgroup()
            + out.cpu_busy * cfg.cpu_rate_per_thread())
    assert done == pytest.approx(total_cells)
    # Duration is at least the perfectly-balanced lower bound.
    aggregate = (cfg.gpu_rate_per_workgroup() * cfg.gpu_queues
                 + cfg.cpu_rate_per_thread() * cfg.cpu_threads)
    assert out.duration >= total_cells / aggregate - 1e-9
