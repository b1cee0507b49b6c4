"""Figure 7: execution breakdown on the 2-level APU tree.

Thin shim over ``benchmarks/scenarios/fig7.toml``.

Paper shape: GEMM spends the majority of busy time on the GPU; the GPU
share of HotSpot-2D and CSR-Adaptive rises substantially when the disk
is replaced by the SSD (22% -> 59% and 28% -> 41% in the paper);
CSR-Adaptive shows visible CPU time (row binning).
"""

from repro.bench.cells import run_records
from repro.bench.reporting import format_breakdown


def test_fig7_breakdown_apu(benchmark, report, tmp_path):
    records = benchmark.pedantic(run_records,
                                 args=("fig7", str(tmp_path / "fig7")),
                                 rounds=1, iterations=1)
    assert all(r["verified"] for r in records)
    report("fig7_breakdown_apu",
           format_breakdown(records, "Figure 7: breakdown, APU "
                                     "tree (busy-time shares)"))

    by_key = {(r["app"], r["storage"]): r["shares"] for r in records}
    for app in ("gemm", "hotspot", "spmv"):
        assert by_key[(app, "ssd")]["gpu"] > by_key[(app, "hdd")]["gpu"]
    assert by_key[("gemm", "ssd")]["gpu"] > 0.5       # GPU-majority
    assert by_key[("spmv", "ssd")]["cpu"] > 0          # binning visible
    # CSR-Adaptive remains the most transfer-bound app on the SSD.
    assert (by_key[("spmv", "ssd")]["transfer"]
            > by_key[("gemm", "ssd")]["transfer"])
