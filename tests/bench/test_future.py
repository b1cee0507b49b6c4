"""The forward-looking analyses' cell runners."""

import math

from repro.bench.cells import future_generation_cell, future_spmv_cell


def test_storage_generations_monotone():
    # SpMV, the most bandwidth-bound app, and the cheapest to run; the
    # bench shim asserts the same order for all three apps.
    records = [future_generation_cell("spmv", storage)
               for storage in ("hdd", "ssd", "nvm")]
    assert all(r["verified"] for r in records)
    hdd, ssd, nvm = (r["slowdown"] for r in records)
    assert nvm < ssd < hdd


def test_spmv_structures_nnz_always_completes():
    rows = future_spmv_cell()["rows"]
    assert "adversarial-skew" in {r["preset"] for r in rows}
    for r in rows:
        if r["strategy"] == "nnz":
            assert r["completed"]
            assert math.isfinite(r["slowdown"])
