"""The figure cell runners and their committed scenarios: the paper's
qualitative shapes, asserted on the records the harness produces."""

import pytest

from repro.apps import GemmApp, HotspotApp, SpmvApp
from repro.bench import configs
from repro.bench.cells import overhead_cell
from repro.bench.reporting import (fig6_slowdowns, format_ablation,
                                   format_breakdown, format_fig6,
                                   format_fig9, format_fig11,
                                   format_overhead)
from repro.core.system import System
from repro.workloads.sparse import preset

APPS = ["gemm", "hotspot", "spmv"]


def test_figure6_shape_ordering(scenario_records):
    records = scenario_records("fig6")
    assert all(r["verified"] for r in records)
    slowdowns = fig6_slowdowns(records)
    assert list(slowdowns) == APPS
    for s in slowdowns.values():
        # Fig 6's qualitative result: in-memory <= SSD <= disk.
        assert 1.0 <= s["ssd"] <= s["hdd"]
    text = format_fig6(records)
    assert "Figure 6" in text and "gemm" in text


def test_figure6_gemm_hides_storage_best(scenario_records):
    """GEMM's compute intensity hides slow storage better than the
    bandwidth-bound apps (Section V-B)."""
    slowdowns = fig6_slowdowns(scenario_records("fig6"))
    assert slowdowns["gemm"]["ssd"] < slowdowns["spmv"]["ssd"]


def test_figure7_shares_sum_and_shift(scenario_records):
    records = scenario_records("fig7")
    for r in records:
        assert r["verified"]
        assert sum(r["shares"].values()) == pytest.approx(1.0)
    by_key = {(r["app"], r["storage"]): r["shares"] for r in records}
    # GPU busy share grows when storage gets faster (disk -> SSD).
    for app in APPS:
        assert by_key[(app, "ssd")]["gpu"] > by_key[(app, "hdd")]["gpu"]
    assert "Fig7" in format_breakdown(records, "Fig7")


def test_figure8_has_device_transfers(scenario_records):
    records = scenario_records("fig8")
    for r in records:
        assert r["dev_transfer_busy_s"] > 0
        assert r["shares"]["dev_transfer"] > 0
    assert "dev-xfer" in format_breakdown(records, "Fig8")


def test_figure9_monotone_and_positive_gap(scenario_records):
    records = scenario_records("fig9")
    for r in records:
        ios = r["io_norm"]
        assert ios[0] == pytest.approx(1.0)
        assert ios == sorted(ios, reverse=True)
        assert r["overall_norm"] == sorted(r["overall_norm"], reverse=True)
        assert r["gap_to_in_memory"] > 0.0
    assert "Figure 9" in format_fig9(records)


def test_figure11_rows_and_queue_ordering(scenario_records):
    records = scenario_records("fig11")
    assert len(records) == 9
    by_input = {}
    for r in records:
        by_input.setdefault((r["matrix_dim"], r["chunk_dim"]),
                            {})[r["gpu_queues"]] = r
    assert len(by_input) == 3
    for qs in by_input.values():
        # 32 queues always best; paper's headline "up to 24%".
        assert qs[32]["speedup"] > qs[16]["speedup"] > qs[8]["speedup"]
        assert 1.10 < qs[32]["speedup"] < 1.30
        assert qs[32]["steals"] > 0
    assert "Figure 11" in format_fig11(records)


def test_runtime_overhead_below_one_percent(scenario_records):
    records = scenario_records("overhead_runtime")
    assert [r["app"] for r in records] == APPS
    for r in records:
        assert r["runtime_fraction"] < 0.01  # the Section V-B claim
    assert "V-B" in format_overhead(records)


def _runtime_ops(app: str) -> int:
    """``System.runtime_ops`` after one Figure 6 SSD run of ``app``."""
    scale = configs.DEFAULT_SCALE
    system = System(configs.scaled_apu_tree(
        "ssd", flop_bound_app=(app == "gemm")))
    try:
        if app == "gemm":
            n = scale.gemm_n
            job = GemmApp(system, m=n, k=n, n=n, seed=scale.seed)
        elif app == "hotspot":
            job = HotspotApp(system, n=scale.hotspot_n,
                             iterations=scale.hotspot_iterations,
                             steps_per_pass=scale.hotspot_steps_per_pass,
                             seed=scale.seed)
        else:
            job = SpmvApp(system, matrix=preset(scale.spmv_preset,
                                                nrows=scale.spmv_rows,
                                                seed=scale.seed),
                          seed=scale.seed)
        job.run(system)
        return system.runtime_ops
    finally:
        system.close()


@pytest.mark.parametrize("app", APPS)
def test_overhead_cell_reports_the_systems_runtime_op_count(app):
    """The op count is the system's counter, not the charged runtime
    divided back by the per-op cost (a float quotient that truncates to
    one op short)."""
    assert overhead_cell(app)["runtime_ops"] == _runtime_ops(app)


@pytest.fixture(scope="module")
def ablations(scenario_records):
    return {r["ablation"]: r["rows"]
            for r in scenario_records("ablation_design_choices")}


def test_ablation_gemm_reuse_saves_reads(ablations):
    # Needs a working set larger than the staging buffer, otherwise a
    # single tile covers the problem and both variants read A once.
    rows = ablations["gemm_reuse"]
    by = {r["variant"]: r for r in rows}
    assert by["reuse"]["io_read_bytes"] < by["no-reuse"]["io_read_bytes"]
    assert "makespan" in format_ablation(rows, "reuse ablation")


def test_ablation_hotspot_fusion_reduces_io(ablations):
    by = {r["variant"]: r for r in ablations["hotspot_fusion"]}
    assert by["K=4"]["io_read_bytes"] < by["K=1"]["io_read_bytes"]


def test_ablation_pipeline_depth_runs(ablations):
    rows = ablations["pipeline_depth"]
    assert [r["variant"] for r in rows] == ["depth=1", "depth=2", "depth=3"]
    for r in rows:
        assert r["makespan"] > 0


def test_ablation_blocking_size_runs(ablations):
    rows = ablations["blocking_size"]
    assert len(rows) == 3
    for r in rows:
        assert r["makespan"] > 0
