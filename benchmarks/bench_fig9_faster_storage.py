"""Figure 9: first-order projection onto faster storage parts.

Thin shim over ``benchmarks/scenarios/fig9.toml``.

Paper shape: moving from the 1400/600 MB/s SSD to a 3500/2100 MB/s part
improves I/O time by up to ~65% and overall time by up to ~30% for the
bandwidth-bound apps; the remaining gap to in-memory processing is
5% / 15% / 30% for GEMM / HotSpot / SpMV -- about 17% on average, the
abstract's headline number.
"""

from repro.bench.cells import run_records
from repro.bench.reporting import format_fig9


def test_fig9_faster_storage(benchmark, report, tmp_path):
    records = benchmark.pedantic(run_records,
                                 args=("fig9", str(tmp_path / "fig9")),
                                 rounds=1, iterations=1)
    assert all(r["verified"] for r in records)
    report("fig9_faster_storage", format_fig9(records))

    for r in records:
        ios = r["io_norm"]
        overall = r["overall_norm"]
        assert ios == sorted(ios, reverse=True)
        # I/O gains substantially exceed overall gains (Amdahl).
        assert ios[-1] < 0.45            # >= ~55% I/O improvement
        assert overall[-1] > ios[-1]
        assert r["gap_to_in_memory"] > 0  # in-memory stays the bound
    gaps = {r["app"]: r["gap_to_in_memory"] for r in records}
    assert gaps["gemm"] < gaps["hotspot"] < gaps["spmv"]
    avg = sum(gaps.values()) / len(gaps)
    assert 0.10 < avg < 0.30             # headline: ~17% on average
