"""Buffer-cache policy ablation on the Figure 6 applications.

Thin shim over ``benchmarks/scenarios/ablation_cache_policies.toml``.

Each app runs uncached and then under LRU, cost-aware, and Belady-oracle
eviction with the transparent cache.  Caching must never change results
(bit-identical), GEMM's runtime-owned reuse must pay off, and the SpMV
cyclic sweep must show the classic policy gap: LRU gains nothing while
the oracle retains a stable prefix of the working set.
"""

from repro.bench.cells import run_records
from repro.bench.reporting import format_cache_policies


def test_ablation_cache_policies(benchmark, report, tmp_path):
    records = benchmark.pedantic(
        run_records, args=("ablation_cache_policies",
                           str(tmp_path / "cache_policies")),
        rounds=1, iterations=1)
    rows = records[0]["rows"]
    report("ablation_cache_policies", format_cache_policies(rows))
    assert all(r["identical"] for r in rows)
    by = {(r["app"], r["variant"]): r for r in rows}
    # GEMM: the cache-backed row-shard reuse beats no cache.
    assert by[("gemm", "lru")]["makespan"] <= by[("gemm", "off")]["makespan"]
    assert (by[("gemm", "lru")]["io_read_bytes"]
            < by[("gemm", "off")]["io_read_bytes"])
    # HotSpot: the read-only power grid hits from pass two on.
    assert (by[("hotspot", "lru")]["makespan"]
            < by[("hotspot", "off")]["makespan"])
    assert by[("hotspot", "lru")]["hits"] > 0
    # SpMV cyclic sweep under pressure: the oracle beats both LRU and
    # no-cache; LRU churns (many evictions, no win).
    oracle = by[("spmv", "oracle")]
    assert oracle["makespan"] < by[("spmv", "off")]["makespan"]
    assert oracle["makespan"] < by[("spmv", "lru")]["makespan"]
    assert oracle["evictions"] < by[("spmv", "lru")]["evictions"]
    assert oracle["io_read_bytes"] < by[("spmv", "off")]["io_read_bytes"]
