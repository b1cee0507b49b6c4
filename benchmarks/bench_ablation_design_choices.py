"""Ablations of the design choices DESIGN.md calls out.

Thin shim over ``benchmarks/scenarios/ablation_design_choices.toml``:
the scenario runs all four families once; each test asserts its own
family's shape on the shared records.

* GEMM row-shard reuse (Section IV-A's optimisation): storage reads
  drop when the row shard stays resident.
* HotSpot steps-per-pass (ghost-zone temporal blocking): storage
  traffic amortises over fused steps.
* Pipeline depth (buffer sets): depth >= 2 enables the multi-stage
  transfer overlap of Section III-C.
* Blocking size (staging budget): Section V-B notes over-fine
  decomposition costs calls and utilisation.
"""

from repro.bench.cells import run_records
from repro.bench.reporting import format_ablation

_FAMILIES: dict[str, list[dict]] = {}


def _family(tmp_path_factory, name: str) -> list[dict]:
    """All four families come from one scenario run, paid once."""
    if not _FAMILIES:
        out = str(tmp_path_factory.mktemp("ablations"))
        for rec in run_records("ablation_design_choices", out):
            _FAMILIES[rec["ablation"]] = rec["rows"]
    return _FAMILIES[name]


def test_ablation_gemm_reuse(benchmark, report, tmp_path_factory):
    rows = benchmark.pedantic(_family,
                              args=(tmp_path_factory, "gemm_reuse"),
                              rounds=1, iterations=1)
    report("ablation_gemm_reuse",
           format_ablation(rows, "Ablation: GEMM row-shard reuse"))
    by = {r["variant"]: r for r in rows}
    assert by["reuse"]["io_read_bytes"] < by["no-reuse"]["io_read_bytes"]
    assert by["reuse"]["makespan"] <= by["no-reuse"]["makespan"]


def test_ablation_hotspot_fusion(benchmark, report, tmp_path_factory):
    rows = benchmark.pedantic(_family,
                              args=(tmp_path_factory, "hotspot_fusion"),
                              rounds=1, iterations=1)
    report("ablation_hotspot_fusion",
           format_ablation(rows, "Ablation: HotSpot steps per pass"))
    by = {r["variant"]: r for r in rows}
    assert by["K=8"]["io_read_bytes"] < by["K=1"]["io_read_bytes"]
    assert by["K=8"]["makespan"] < by["K=1"]["makespan"]


def test_ablation_pipeline_depth(benchmark, report, tmp_path_factory):
    rows = benchmark.pedantic(_family,
                              args=(tmp_path_factory, "pipeline_depth"),
                              rounds=1, iterations=1)
    report("ablation_pipeline_depth",
           format_ablation(rows, "Ablation: pipeline (prefetch) depth"))
    by = {r["variant"]: r for r in rows}
    assert by["depth=2"]["makespan"] <= by["depth=1"]["makespan"]


def test_ablation_blocking_size(benchmark, report, tmp_path_factory):
    rows = benchmark.pedantic(_family,
                              args=(tmp_path_factory, "blocking_size"),
                              rounds=1, iterations=1)
    report("ablation_blocking_size",
           format_ablation(rows, "Ablation: staging-buffer (blocking) size"))
    # Section V-B's two-sided point: blocks must be "small enough to fit
    # into the storage and big enough to fully utilize the GPU" -- and,
    # we find, small enough that several chunks exist to pipeline.  A
    # staging buffer holding the whole problem degenerates to one
    # load -> compute -> store chain with no overlap, so the largest
    # budget must not be the fastest.
    spans = {r["variant"]: r["makespan"] for r in rows}
    largest = rows[-1]["variant"]
    assert spans[largest] > min(spans.values())
