"""Regression gate: classification rules, recursion, CLI exit codes."""

import copy
import dataclasses
import json

import pytest

from repro.obs.regress import BASELINES, Finding, compare, main

BASELINE = {
    "framework_ops_scaling": {
        "baseline_naive_s": 4.0,
        "indexed_s": 0.1,
        "speedup": 40.0,
        "makespan_s": 0.001234,
        "virtual_time_identical": True,
    },
    "apps": [
        {"app": "gemm", "wall_s": 0.5, "makespan_s": 0.002,
         "trace_intervals": 67},
        {"app": "hotspot", "wall_s": 0.8, "makespan_s": 0.003,
         "trace_intervals": 120},
    ],
    "meta": {"host": "ci-runner", "python": "3.11"},
}


def _fresh(**edits):
    doc = copy.deepcopy(BASELINE)
    for dotted, value in edits.items():
        node = doc
        *parents, last = dotted.split("__")
        for key in parents:
            node = node[int(key)] if key.isdigit() else node[key]
        node[int(last) if last.isdigit() else last] = value
    return doc


def paths(findings):
    return [f.path for f in findings]


def test_identical_runs_produce_no_findings():
    assert compare(BASELINE, copy.deepcopy(BASELINE)) == []


def test_wall_seconds_slower_is_regression():
    """There is no tolerance band: a leaf outside ``meta`` is a virtual
    figure, and +10% is as much a failure as +100%."""
    fresh = _fresh(framework_ops_scaling__indexed_s=0.11)
    findings = compare(BASELINE, fresh)
    assert paths(findings) == ["framework_ops_scaling.indexed_s"]
    assert "0.1 -> 0.11" in findings[0].message


def test_speedup_loss_is_regression():
    fresh = _fresh(framework_ops_scaling__speedup=39.9)
    assert paths(compare(BASELINE, fresh)) == [
        "framework_ops_scaling.speedup"]


def test_makespan_drift_is_exact_regression():
    """Virtual time is deterministic: even a tiny drift fails."""
    fresh = _fresh(apps__1__makespan_s=0.003 + 1e-9)
    assert paths(compare(BASELINE, fresh)) == ["apps[1].makespan_s"]


def test_flag_flip_is_regression():
    fresh = _fresh(framework_ops_scaling__virtual_time_identical=False)
    assert paths(compare(BASELINE, fresh)) == [
        "framework_ops_scaling.virtual_time_identical"]
    # A flag that turned into the number it compares equal to is a change.
    fresh = _fresh(framework_ops_scaling__virtual_time_identical=1)
    assert len(compare(BASELINE, fresh)) == 1


def test_count_change_is_regression():
    fresh = _fresh(apps__0__trace_intervals=68)
    assert paths(compare(BASELINE, fresh)) == ["apps[0].trace_intervals"]


def test_structural_drift_is_regression():
    """A missing key and a new key are both failures, one finding each."""
    fresh = copy.deepcopy(BASELINE)
    del fresh["framework_ops_scaling"]["speedup"]
    fresh["new_bench"] = {"x_s": 1.0}
    findings = compare(BASELINE, fresh)
    assert paths(findings) == ["framework_ops_scaling.speedup", "new_bench"]
    assert "missing" in findings[0].message
    assert "new key" in findings[1].message


def test_meta_subtree_ignored():
    fresh = _fresh(meta__host="other-machine")
    fresh["apps"][0]["meta"] = {"wall_s": 9.9}      # nested, one side only
    assert compare(BASELINE, fresh) == []


def test_list_length_change_is_regression():
    fresh = copy.deepcopy(BASELINE)
    fresh["apps"].append({"app": "fft", "wall_s": 1.0})
    findings = compare(BASELINE, fresh)
    assert paths(findings) == ["apps"]
    assert "list length" in findings[0].message


def test_finding_is_frozen_dataclass():
    f = Finding("a.b", "changed: 1 -> 2")
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.path = "c"


# -- CLI ----------------------------------------------------------------------

def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_identical_exits_zero(tmp_path, capsys):
    base = _write(tmp_path, "base.json", BASELINE)
    fresh = _write(tmp_path, "fresh.json", BASELINE)
    assert main([base, fresh]) == 0
    assert "0 regression(s)" in capsys.readouterr().out


def test_cli_regression_exits_one(tmp_path, capsys):
    base = _write(tmp_path, "base.json", BASELINE)
    fresh = _write(tmp_path, "fresh.json",
                   _fresh(framework_ops_scaling__indexed_s=0.9))
    assert main([base, fresh]) == 1
    assert "REGRESSION" in capsys.readouterr().out


@pytest.mark.parametrize("option", [["--warn-only"], ["--rtol", "0.5"]])
def test_cli_has_no_way_to_soften_the_gate(tmp_path, option):
    base = _write(tmp_path, "base.json", BASELINE)
    with pytest.raises(SystemExit) as exc:
        main([base, base, *option])
    assert exc.value.code == 2


def test_cli_unreadable_file_exits_two(tmp_path, capsys):
    base = _write(tmp_path, "base.json", BASELINE)
    assert main([base, str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main([str(bad), base]) == 2


def test_cli_against_committed_baselines(capsys):
    """The committed bench artifacts gate cleanly against themselves."""
    for name in BASELINES:
        assert main([name, name]) == 0


def test_cli_missing_baseline_warns_and_exits_zero(tmp_path, capsys):
    """A bench run on a branch that predates the baseline must not fail
    the gate: no committed baseline is a warning, not a regression."""
    fresh = _write(tmp_path, "fresh.json", BASELINE)
    assert main([str(tmp_path / "no_baseline.json"), fresh]) == 0
    out = capsys.readouterr().out
    assert "warning" in out
    assert "no committed baseline" in out


def test_cli_missing_fresh_still_exits_two(tmp_path, capsys):
    """Only the *baseline* side is optional; a missing fresh result is
    a broken bench run and keeps the hard error."""
    base = _write(tmp_path, "base.json", BASELINE)
    assert main([base, str(tmp_path / "no_fresh.json")]) == 2


# -- exactness on a committed document ----------------------------------------

def _served(doc):
    """The fair-policy record of a ``BENCH_serve.json`` document."""
    cells = doc["serve_throughput"]["cells"]
    return next(c["record"] for c in cells if c["params"]["policy"] == "fair")


def _edit_digest(doc):
    _served(doc)["dispatch_digest"] = "0" * 64


def _edit_latency(doc):
    _served(doc)["p99_latency_s"] *= 1.0 + 1e-12


def _edit_count(doc):
    _served(doc)["grants"] += 1


def _edit_missing(doc):
    del _served(doc)["mouse_p99_latency_s"]


def _edit_new(doc):
    _served(doc)["p999_latency_s"] = 0.004


@pytest.mark.parametrize("edit", [_edit_digest, _edit_latency, _edit_count,
                                  _edit_missing, _edit_new])
def test_cli_any_change_outside_meta_exits_one(tmp_path, capsys, edit):
    with open("BENCH_serve.json") as fh:
        doc = json.load(fh)
    edit(doc)
    fresh = _write(tmp_path, "fresh.json", doc)
    assert main(["BENCH_serve.json", fresh]) == 1
    out = capsys.readouterr().out
    assert "1 regression(s)" in out and "serve_throughput.cells[" in out


def test_cli_changes_under_meta_exit_zero(tmp_path):
    with open("BENCH_serve.json") as fh:
        doc = json.load(fh)
    doc["serve_throughput"]["meta"]["wall_s"] = 99.0
    _served(doc)["meta"]["wall"]["wall_jobs_per_s"] = 1.0
    _served(doc)["meta"]["host"] = "elsewhere"
    assert main(["BENCH_serve.json",
                 _write(tmp_path, "fresh.json", doc)]) == 0
