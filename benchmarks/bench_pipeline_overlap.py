"""Pipelined task-graph scheduling vs in-order program replay.

Thin shim over :mod:`repro.bench.pipeline` (the moved bench body, also
behind ``benchmarks/scenarios/pipeline_overlap.toml``): the pipelined
scheduler's starved-channel overlap win over the in-order replay.  See
the module docstring for the mechanism.

``REPRO_PIPELINE_SCALE=ci`` shrinks the grids; the floor relaxes
slightly because fewer chunks amortise the pipeline fill/drain less.

Writes ``BENCH_pipeline.json`` at the repository root.  Run directly
(``python benchmarks/bench_pipeline_overlap.py``) or via pytest.
"""

from __future__ import annotations

from repro.bench.pipeline import RESULT_PATH, format_table, run_bench


def test_pipeline_overlap():
    result = run_bench()
    target = result["meta"]["target_speedup"]
    by_case = result["by_case"]
    starved = by_case["hotspot_hdd_starved"]
    assert starved["speedup"] >= target, (
        f"pipelined scheduler only {starved['speedup']}x over in-order on "
        f"the starved channel (floor {target}x)")
    for c in result["cases"]:
        assert c["results_identical"]


if __name__ == "__main__":
    out = run_bench()
    print(format_table(out))
    print(f"wrote {RESULT_PATH}")
