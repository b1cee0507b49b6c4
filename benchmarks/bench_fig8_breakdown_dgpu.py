"""Figure 8: execution breakdown on the 3-level discrete-GPU tree.

Thin shim over ``benchmarks/scenarios/fig8.toml``.

Paper shape: adding a disjoint GPU memory level introduces an "OpenCL
transfer" component (7% / 12% / 33% of time for GEMM / HotSpot /
CSR-Adaptive there).  At bench scale the host<->device per-op overheads
scale with the model while real driver overheads would not, so our
shares are smaller; what must hold is that the category exists for all
apps and that every byte that reaches the GPU crossed it.
"""

from repro.bench.cells import run_records
from repro.bench.reporting import format_breakdown


def test_fig8_breakdown_dgpu(benchmark, report, tmp_path):
    records = benchmark.pedantic(run_records,
                                 args=("fig8", str(tmp_path / "fig8")),
                                 rounds=1, iterations=1)
    assert all(r["verified"] for r in records)
    report("fig8_breakdown_dgpu",
           format_breakdown(records, "Figure 8: breakdown, "
                                     "discrete-GPU tree "
                                     "(busy-time shares)"))

    for r in records:
        assert r["dev_transfer_busy_s"] > 0
        assert r["shares"]["dev_transfer"] > 0
        # Storage I/O still present above the device transfers.
        assert r["io_busy_s"] > 0
