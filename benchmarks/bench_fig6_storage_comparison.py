"""Figure 6: normalized runtime -- in-memory vs Northup on SSD vs disk.

Thin shim over ``benchmarks/scenarios/fig6.toml``: the experiment
harness expands the (app x config) matrix and this test asserts the
paper shape on the cell records.

Paper shape: GEMM hides slow storage almost entirely (~1x on SSD);
HotSpot-2D and CSR-Adaptive slow down 1.3-2.4x on the SSD and 2-2.5x+
on the disk drive.
"""

from repro.bench.cells import run_records
from repro.bench.reporting import fig6_slowdowns, format_fig6


def test_fig6_storage_comparison(benchmark, report, tmp_path):
    records = benchmark.pedantic(run_records,
                                 args=("fig6", str(tmp_path / "fig6")),
                                 rounds=1, iterations=1)
    assert all(r["verified"] for r in records)
    report("fig6_storage_comparison", format_fig6(records))

    slowdowns = fig6_slowdowns(records)
    # Qualitative shape checks (the paper's claims, not its numbers).
    for s in slowdowns.values():
        assert 1.0 <= s["ssd"] <= s["hdd"]
    assert slowdowns["gemm"]["ssd"] < 1.2          # compute hides I/O
    assert slowdowns["hotspot"]["ssd"] < slowdowns["spmv"]["ssd"]
    assert slowdowns["hotspot"]["hdd"] > 2.0       # disk clearly hurts
