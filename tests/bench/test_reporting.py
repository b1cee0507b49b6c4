"""Unit tests for bench table formatting (tables from cell records)."""

from repro.bench.reporting import (fig6_slowdowns, format_ablation,
                                   format_breakdown, format_fig6,
                                   format_fig9, format_fig11,
                                   format_generations, format_overhead,
                                   format_spmv_structures)


def _fig6(app, in_memory, ssd, hdd):
    return [{"app": app, "config": config, "makespan_s": makespan}
            for config, makespan in (("in-memory", in_memory),
                                     ("ssd", ssd), ("hdd", hdd))]


def _breakdown(shares, dev_transfer_share):
    return {"app": "x", "storage": "ssd", "shares": shares,
            "dev_transfer_share": dev_transfer_share}


def test_format_fig6_columns():
    records = _fig6("gemm", 0.010, 0.012, 0.035)
    text = format_fig6(records)
    assert "10.00 ms" in text
    assert "1.20x" in text and "3.50x" in text
    header, sep = text.splitlines()[1:3]
    assert header.split()[:3] == ["app", "in-memory", "norm"]
    assert set(sep) <= {"-", " "}


def test_fig6_slowdowns_group_by_app_in_record_order():
    records = _fig6("spmv", 1.0, 2.0, 8.0) + _fig6("gemm", 1.0, 1.1, 3.0)
    assert fig6_slowdowns(records) == {"spmv": {"ssd": 2.0, "hdd": 8.0},
                                       "gemm": {"ssd": 1.1, "hdd": 3.0}}


def test_format_breakdown_handles_missing_dev_share():
    record = _breakdown({"cpu": 0.0, "gpu": 0.6, "setup": 0.0,
                         "transfer": 0.4, "runtime": 0.0}, 0.0)
    text = format_breakdown([record], "T")
    assert "60.0%" in text and "40.0%" in text


def test_format_breakdown_zero_busy_total():
    record = _breakdown({"cpu": 0.0, "gpu": 0.0, "setup": 0.0,
                         "transfer": 0.0, "runtime": 0.0}, 0.0)
    text = format_breakdown([record], "T")
    assert "0.0%" in text


def test_format_fig9_average_line():
    records = [{"app": "a", "io_norm": [1.0, 0.5],
                "overall_norm": [1.0, 0.75], "gap_to_in_memory": 0.5}]
    text = format_fig9(records)
    assert "average gap" in text
    assert "+50.0%" in text


def test_format_fig11_and_overhead():
    text = format_fig11([{"matrix_dim": 1024, "chunk_dim": 256,
                          "gpu_queues": 32, "speedup": 1.23, "steals": 5,
                          "cpu_share": 0.19}])
    assert "1.23x" in text and "(1024, 256)" in text
    text = format_overhead([{"app": "gemm", "runtime_fraction": 0.0006,
                             "runtime_ops": 42}])
    assert "0.060%" in text and "42" in text


def test_format_ablation_dash_for_missing_bytes():
    text = format_ablation([
        {"name": "n", "variant": "a", "makespan": 0.001, "io_read_bytes": 0},
        {"name": "n", "variant": "b", "makespan": 0.002,
         "io_read_bytes": 5_000_000},
    ], "T")
    lines = text.splitlines()
    assert lines[-2].rstrip().endswith("-")
    assert "5.0 MB" in lines[-1]


def test_format_future_tables():
    text = format_generations([{"app": "spmv", "storage": "nvm",
                                "slowdown": 1.234}])
    assert "nvm" in text and "1.23x" in text
    text = format_spmv_structures([
        {"preset": "p", "strategy": "nnz", "completed": True,
         "slowdown": 1.5, "shard_count": 4, "shard_size_cv": 0.25},
        {"preset": "p", "strategy": "rows", "completed": False,
         "slowdown": float("inf"), "shard_count": 0,
         "shard_size_cv": float("inf")}])
    assert "1.50x" in text and "OVERFLOWS" in text
