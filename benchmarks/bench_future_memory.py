"""Forward-looking analyses (Sections V-D and VI).

Thin shims over ``benchmarks/scenarios/future_memory.toml`` and
``benchmarks/scenarios/future_spmv_structures.toml``.

* Storage generations: disk -> SSD -> block NVM shrinks the gap to
  in-memory processing ("the extremely wide gap between DRAM and
  storage can be filled").
* SpMV input structure: irregular (power-law) inputs shard into
  variable-size pieces and pay a larger out-of-core penalty than
  regular (banded) inputs -- the paper's HotSpot-vs-CSR observation,
  isolated inside one app.
"""

from repro.bench.cells import run_records
from repro.bench.reporting import format_generations, format_spmv_structures


def test_storage_generations(benchmark, report, tmp_path):
    records = benchmark.pedantic(
        run_records, args=("future_memory", str(tmp_path / "future")),
        rounds=1, iterations=1)
    assert all(r["verified"] for r in records)
    report("future_storage_generations", format_generations(records))

    by_app = {}
    for r in records:
        by_app.setdefault(r["app"], {})[r["storage"]] = r["slowdown"]
    for app, per_storage in by_app.items():
        # Each storage generation strictly narrows the gap.
        assert per_storage["nvm"] < per_storage["ssd"] < per_storage["hdd"]
    # With block NVM even the bandwidth-bound apps come close to memory.
    assert by_app["hotspot"]["nvm"] < 1.25
    assert by_app["spmv"]["nvm"] < 1.6


def test_spmv_input_structures(benchmark, report, tmp_path):
    records = benchmark.pedantic(
        run_records, args=("future_spmv_structures",
                           str(tmp_path / "spmv")),
        rounds=1, iterations=1)
    rows = records[0]["rows"]
    report("future_spmv_structures", format_spmv_structures(rows))

    by_key = {(r["preset"], r["strategy"]): r for r in rows}
    # nnz-aware sharding always completes and stays balanced -- on every
    # input, including the adversarial one.
    for preset in ("circuit-like", "stencil-like", "webgraph-like",
                   "adversarial-skew"):
        nnz = by_key[(preset, "nnz")]
        assert nnz["completed"] and nnz["slowdown"] >= 1.0
    # Naive equal-rows sharding produces more variable shards on
    # power-law inputs...
    web_rows = by_key[("webgraph-like", "rows")]
    web_nnz = by_key[("webgraph-like", "nnz")]
    assert web_rows["shard_size_cv"] > web_nnz["shard_size_cv"]
    # ...and cannot fit the next level at all on the adversarial input
    # ("Northup has a unique advantage to handle this situation").
    assert not by_key[("adversarial-skew", "rows")]["completed"]
    # On the regular stencil input the strategies are interchangeable.
    assert by_key[("stencil-like", "rows")]["completed"]
