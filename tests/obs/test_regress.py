"""Regression gate: classification rules, recursion, CLI exit codes."""

import copy
import json

from repro.obs.regress import Finding, compare, main

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


def kinds(findings):
    return [f.kind for f in findings]


def test_identical_runs_produce_no_findings():
    assert compare(BASELINE, copy.deepcopy(BASELINE)) == []


def test_wall_seconds_within_band_ok():
    fresh = _fresh(framework_ops_scaling__indexed_s=0.11)  # +10% < 25%
    assert compare(BASELINE, fresh) == []


def test_wall_seconds_slower_is_regression():
    fresh = _fresh(framework_ops_scaling__indexed_s=0.2)   # +100%
    findings = compare(BASELINE, fresh)
    assert kinds(findings) == ["regression"]
    assert findings[0].path == "framework_ops_scaling.indexed_s"
    assert "slower" in findings[0].message
    assert findings[0].is_regression


def test_wall_seconds_faster_is_improvement():
    fresh = _fresh(apps__0__wall_s=0.2)
    findings = compare(BASELINE, fresh)
    assert kinds(findings) == ["improvement"]
    assert findings[0].path == "apps[gemm].wall_s"


def test_speedup_loss_is_regression():
    fresh = _fresh(framework_ops_scaling__speedup=20.0)
    findings = compare(BASELINE, fresh)
    assert kinds(findings) == ["regression"]
    assert "speedup lost" in findings[0].message


def test_speedup_gain_is_silent():
    fresh = _fresh(framework_ops_scaling__speedup=80.0)
    assert compare(BASELINE, fresh) == []


def test_makespan_drift_is_exact_regression():
    """Virtual time is deterministic: even a tiny drift fails."""
    fresh = _fresh(apps__1__makespan_s=0.003 + 1e-9)
    findings = compare(BASELINE, fresh)
    assert kinds(findings) == ["regression"]
    assert "deterministic" in findings[0].message


def test_flag_flip_is_regression():
    fresh = _fresh(framework_ops_scaling__virtual_time_identical=False)
    findings = compare(BASELINE, fresh)
    assert kinds(findings) == ["regression"]
    assert "flag flipped" in findings[0].message


def test_count_change_is_warning():
    fresh = _fresh(apps__0__trace_intervals=68)
    findings = compare(BASELINE, fresh)
    assert kinds(findings) == ["warning"]


def test_structural_drift_is_warning():
    fresh = copy.deepcopy(BASELINE)
    del fresh["framework_ops_scaling"]["speedup"]
    fresh["new_bench"] = {"x_s": 1.0}
    findings = compare(BASELINE, fresh)
    assert sorted(kinds(findings)) == ["warning", "warning"]
    paths = {f.path for f in findings}
    assert paths == {"framework_ops_scaling.speedup", "new_bench"}


def test_meta_subtree_ignored():
    fresh = _fresh(meta__host="other-machine")
    assert compare(BASELINE, fresh) == []


def test_list_length_change_is_warning():
    fresh = copy.deepcopy(BASELINE)
    fresh["apps"].append({"app": "fft", "wall_s": 1.0})
    findings = compare(BASELINE, fresh)
    assert kinds(findings) == ["warning"]
    assert "list length" in findings[0].message


def test_rtol_widens_band():
    fresh = _fresh(framework_ops_scaling__indexed_s=0.14)  # +40%
    assert kinds(compare(BASELINE, fresh)) == ["regression"]
    assert compare(BASELINE, fresh, rtol=0.5) == []


def test_finding_is_frozen_dataclass():
    f = Finding("a.b", "ok", "fine")
    assert not f.is_regression


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


def test_cli_warn_only_exits_zero(tmp_path, capsys):
    base = _write(tmp_path, "base.json", BASELINE)
    fresh = _write(tmp_path, "fresh.json",
                   _fresh(framework_ops_scaling__indexed_s=0.9))
    assert main([base, fresh, "--warn-only"]) == 0
    assert "warn-only" in capsys.readouterr().out


def test_cli_unreadable_file_exits_two(tmp_path, capsys):
    base = _write(tmp_path, "base.json", BASELINE)
    assert main([base, str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main([str(bad), base]) == 2


def test_cli_against_committed_baselines(capsys):
    """The committed bench artifacts gate cleanly against themselves."""
    for name in ("BENCH_pipeline.json", "BENCH_distributed.json"):
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
