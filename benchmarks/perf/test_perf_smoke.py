"""Smoke test of the perf benchmark at ``--scale smoke``.

Runs the whole suite once (every workload well under 2 s, one timed
rep, tracing on) and checks the contract between ``BENCHMARK.json``,
the metric tables and what the benchmark actually emits.  Not part of
tier-1 (``testpaths = ["tests"]``); run it explicitly::

    python -m pytest benchmarks/perf/test_perf_smoke.py -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
RUN = os.path.join(HERE, "run.py")
# The benchmark's modules and the package they drive, importable
# whatever PYTHONPATH the test run was given.
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [sys.executable, RUN, "--scale", "smoke", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_metric_tables():
    import summarize
    import workloads
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in BENCHMARK["end_to_end"]]
    assert sorted(declared) == sorted(summarize.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"])
                for m in BENCHMARK["per_layer"]]
    assert declared == list(summarize.PER_LAYER)
    assert WORKLOADS == [w.name for w in workloads.WORKLOADS]
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]), m["unit"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in BENCHMARK["end_to_end"])


def test_every_declared_metric_is_emitted_and_nothing_else(suite):
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert list(suite["workloads"]) == WORKLOADS
    for name, wl in suite["workloads"].items():
        assert {k: v["unit"] for k, v in wl["end_to_end"].items()} == e2e, name
        assert {k: v["unit"] for k, v in wl["per_layer"].items()} == layer, \
            name
        for row in wl["end_to_end"].values():
            assert row["median"] > 0 and row["n"] >= 1


def test_no_operation_failed(suite):
    for name, wl in suite["workloads"].items():
        assert wl["correct"] and wl["fail_frac"] == 0, (name, wl["failures"])
        assert wl["attempted"] >= 1


def test_layer_self_times_sum_to_the_traced_run(suite):
    for name, wl in suite["workloads"].items():
        total = sum(wl["ledger"].values())
        assert total == pytest.approx(wl["traced_run_s"], rel=0.01), name
        assert wl["per_layer"]["trace.sum_check_frac"]["value"] < 0.01, name
        assert set(wl["ledger"]) <= set(wl["per_layer"]), name


def test_layers_appear_only_where_they_run(suite):
    value = {n: {k: v["value"] for k, v in wl["per_layer"].items()}
             for n, wl in suite["workloads"].items()}
    for name, layers in value.items():
        pooled = name in ("gemm_shm2", "gemm_dist2")
        for key in ("exec.tasks", "exec.wait_s", "exec.pool_start_s"):
            assert (layers[key] > 0) == pooled, (name, key)
        for key in ("dist.grant_bytes", "plan.partition_s"):
            assert (layers[key] > 0) == (name == "gemm_dist2"), (name, key)
        for key in ("serve.grants", "serve.loop_self_s", "serve.handoff_s"):
            assert (layers[key] > 0) == (name == "serve_mix"), (name, key)
        assert layers["trace.spans"] > 0
    # Same input on three backends: same bytes, same virtual time.
    gemm = [suite["workloads"][n] for n in ("gemm_ooc", "gemm_shm2",
                                            "gemm_dist2")]
    assert len({w["digest"] for w in gemm}) == 1
    assert len({w["virtual_makespan"] for w in gemm}) == 1


def test_single_workload_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "spmv_fine", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--scale", "smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"]
                                    for m in BENCHMARK["end_to_end"]}
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0


def test_fails_without_the_source_tree(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    import shutil
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    bare = tmp_path / "benchmarks" / "perf"
    shutil.copytree(HERE, bare, ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "gemm_ooc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
