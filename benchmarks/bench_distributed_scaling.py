"""Distributed task-graph scaling: one plan sharded across workers.

Thin shim over ``benchmarks/scenarios/distributed_scaling.toml``
(runner ``distributed`` in :mod:`repro.bench.cells`);
``BENCH_distributed.json`` is this scenario's ``experiment collect``
document:

* **equivalence** cells -- each paper app under the distributed
  scheduler + worker-process executor at 2 and 4 workers, byte-identical
  (results) and bit-identical (virtual makespans, trace shape) to the
  single-process in-order run, or the cell raises;
* **scaling** cells -- the projected worker-count curve per app over
  the modeled loopback network channel (deterministic virtual numbers).

Wall-clock cost of the distributed backend is ``benchmarks/perf``'s
``gemm_dist2`` workload, not this bench.
"""

from repro.bench.cells import run_records


def test_distributed_scaling(tmp_path):
    records = run_records("distributed_scaling", str(tmp_path / "dist"))
    equivalence = [r for r in records if "rows" not in r]
    scaling = [r for r in records if "rows" in r]
    assert len(equivalence) == 8 and len(scaling) == 4
    for r in equivalence:
        assert r["result_identical"] and r["makespan_identical"]
        assert r["trace_identical"] and r["dist_residue"] == []
    for r in scaling:
        rows = r["rows"]
        assert rows[0]["workers"] == 1
        assert rows[0]["speedup"] == 1.0
        assert max(row["speedup"] for row in rows) >= 1.0, (
            f"{r['app']}: projected distribution should never lose to "
            f"serial")
