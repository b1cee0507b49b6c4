"""Pipelined task-graph scheduling vs in-order program replay.

Thin shim over ``benchmarks/scenarios/pipeline_overlap.toml``: the
harness runs one cell per starved-channel case (runner ``pipeline`` in
:mod:`repro.bench.cells`, which has the mechanism) and this test asserts
the shape on the records.  All numbers are virtual makespans, so timing
noise cannot move them; ``BENCH_pipeline.json`` is this scenario's
``experiment collect`` document.
"""

from repro.bench.cells import run_records

#: Acceptance floor for the starved-channel case (measures ~1.18x).
TARGET_SPEEDUP = 1.10


def test_pipeline_overlap(tmp_path):
    records = run_records("pipeline_overlap", str(tmp_path / "pipeline"))
    by_case = {r["case"]: r for r in records}
    starved = by_case["hotspot_hdd_starved"]
    assert starved["speedup"] >= TARGET_SPEEDUP, (
        f"pipelined scheduler only {starved['speedup']}x over in-order on "
        f"the starved channel (floor {TARGET_SPEEDUP}x)")
    assert len(by_case) == 3
    for r in records:
        assert r["results_identical"]
        assert r["pipelined_makespan_s"] <= r["inorder_makespan_s"]
