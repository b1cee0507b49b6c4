"""Figure 11: HotSpot CPU+GPU work stealing vs GPU-only Northup.

Thin shim over ``benchmarks/scenarios/fig11.toml``.  The same cell
runner backs ``benchmarks/scenarios/fig11_autotune.toml``, where the
critical-path-guided tuner searches this knob space.

Paper shape: with work stealing across CPU threads and GPU workgroups,
the stencil improves by up to 24% over GPU-only execution; 32 GPU
queues perform best among {8, 16, 32} because the GPU needs multiple
workgroups per SIMD engine to hide latency.
"""

from repro.bench.cells import run_records
from repro.bench.reporting import format_fig11


def test_fig11_load_balancing(benchmark, report, tmp_path):
    records = benchmark.pedantic(run_records,
                                 args=("fig11", str(tmp_path / "fig11")),
                                 rounds=1, iterations=1)
    report("fig11_load_balancing", format_fig11(records))

    by_input = {}
    for r in records:
        by_input.setdefault((r["matrix_dim"], r["chunk_dim"]),
                            {})[r["gpu_queues"]] = r
    for qs in by_input.values():
        assert qs[32]["speedup"] > qs[16]["speedup"] > qs[8]["speedup"]
        assert 1.10 < qs[32]["speedup"] < 1.30   # "up to 24%"
        assert qs[32]["steals"] > 0               # stealing actually fires
        assert 0 < qs[32]["cpu_share"] < 0.5
    # The stealing sim is GPU-compute-bound at every measured point --
    # the attribution the autotune scenario's knob search keys on.
    assert all(r["binding"] == "compute" for r in records)
