"""Tests for the declarative experiment harness."""

import json
import os

import pytest

from repro.errors import ConfigError
from repro.tools.experiment.artifact import Artifact
from repro.tools.experiment.cli import main as cli_main
from repro.tools.experiment.config import (Scenario, load_scenario,
                                           parse_scenario)
from repro.tools.experiment.registry import register, run_cell
from repro.tools.experiment.runner import run_scenario


@register("toy-product")
def toy_product_cell(a: int, b: int, bias: int = 0) -> dict:
    """Toy cell runner: deterministic arithmetic, no simulator."""
    return {"makespan_s": float(a * b + bias), "total": a + b + bias}


# -- config parsing -----------------------------------------------------------


def minimal_doc():
    return {"scenario": {"name": "toy", "runner": "toy-product"},
            "matrix": {"a": [1, 2], "b": [3, 4]}}


def test_parse_minimal_defaults():
    s = parse_scenario(minimal_doc())
    assert s.name == "toy"
    assert s.repeats == 1
    assert s.tuner is None
    assert s.cell_count == 4


def test_parse_rejects_missing_scenario_table():
    with pytest.raises(ConfigError, match=r"\[scenario\]"):
        parse_scenario({"matrix": {"a": [1]}})


def test_parse_rejects_unknown_tables():
    doc = minimal_doc()
    doc["matirx"] = {"a": [1]}
    with pytest.raises(ConfigError, match="matirx"):
        parse_scenario(doc)


def test_scenario_rejects_matrix_and_cells():
    with pytest.raises(ConfigError, match="both"):
        Scenario(name="x", runner="toy-product",
                 matrix={"a": [1]}, cells=({"a": 2},))


def test_scenario_rejects_non_scalar_params():
    with pytest.raises(ConfigError, match="scalar"):
        Scenario(name="x", runner="toy-product", fixed={"a": [1, 2]})


def test_expand_crosses_in_declaration_order():
    s = parse_scenario(minimal_doc())
    assert s.expand() == [{"a": 1, "b": 3}, {"a": 1, "b": 4},
                          {"a": 2, "b": 3}, {"a": 2, "b": 4}]


def test_expand_merges_fixed_under_cells():
    s = Scenario(name="x", runner="toy-product", fixed={"bias": 7},
                 cells=({"a": 1, "b": 2}, {"a": 3, "b": 4, "bias": 0}))
    assert s.expand() == [{"bias": 7, "a": 1, "b": 2},
                          {"bias": 0, "a": 3, "b": 4}]


def test_parse_rejects_a_scales_table():
    """The reduced-scale tier is gone: ``[scales.*]`` is an unknown table."""
    doc = minimal_doc()
    doc["scales"] = {"ci": {"fixed": {"bias": 100}}}
    with pytest.raises(ConfigError, match="scales"):
        parse_scenario(doc)


def test_load_scenario_toml_roundtrip(tmp_path):
    path = tmp_path / "toy.toml"
    path.write_text(
        '[scenario]\nname = "toy"\nrunner = "toy-product"\n'
        '[fixed]\nbias = 1\n[matrix]\na = [1, 2]\nb = [3]\n')
    s = load_scenario(str(path))
    assert s.fixed == {"bias": 1}
    assert s.expand() == [{"bias": 1, "a": 1, "b": 3},
                          {"bias": 1, "a": 2, "b": 3}]


def test_run_cell_checks_runner_and_record():
    assert run_cell("toy-product", {"a": 2, "b": 5}) == {
        "makespan_s": 10.0, "total": 7}
    with pytest.raises(ConfigError, match="unknown cell runner"):
        run_cell("no-such-runner", {})


# -- matrix execution + artifact layout ---------------------------------------


def test_matrix_run_artifact_layout(tmp_path):
    s = parse_scenario(minimal_doc())
    out = str(tmp_path / "run")
    result = run_scenario(s, out_dir=out)
    assert result.executed == 4 and result.reused == 0

    art = Artifact(out)
    assert art.complete
    assert sorted(os.listdir(out)) == ["cells", "meta.json", "report.md",
                                       "summary.json"]
    assert sorted(os.listdir(os.path.join(out, "cells"))) == [
        f"cell-{i:04d}.json" for i in range(4)]

    meta = art.read_meta()
    assert [p["params"] for p in meta["plan"]] == s.expand()

    summary = art.read_summary()
    assert summary["scenario"] == "toy"
    assert summary["cell_count"] == 4
    # Cells land in plan order with their records attached.
    assert [c["record"]["makespan_s"] for c in summary["cells"]] == \
        [3.0, 4.0, 6.0, 8.0]
    # Wall-clock hides under the regress-ignored "meta" key.
    assert "wall_s" in summary["meta"]


def test_run_refuses_to_clobber_existing_artifact(tmp_path):
    s = parse_scenario(minimal_doc())
    out = str(tmp_path / "run")
    run_scenario(s, out_dir=out)
    with pytest.raises(ConfigError, match="already holds"):
        run_scenario(s, out_dir=out)


def test_repeats_multiply_the_plan(tmp_path):
    doc = minimal_doc()
    doc["scenario"]["repeats"] = 2
    s = parse_scenario(doc)
    result = run_scenario(s, out_dir=str(tmp_path / "run"))
    assert result.executed == 8
    repeats = [c["repeat"] for c in result.summary["cells"]]
    assert repeats == [0, 1] * 4


# -- CLI ----------------------------------------------------------------------


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "toy.toml"
    path.write_text(
        '[scenario]\nname = "toy"\ntitle = "Toy sweep"\n'
        'runner = "toy-product"\n[matrix]\na = [1, 2]\nb = [3, 4]\n')
    return str(path)


def test_cli_run_and_report(scenario_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli_main(["run", scenario_file, "--out", out, "--quiet"]) == 0
    assert "4 cell(s) run" in capsys.readouterr().out
    assert cli_main(["report", out]) == 0
    report = capsys.readouterr().out
    assert "# Experiment: toy" in report
    assert "toy-product" in report


def test_cli_collect(scenario_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    cli_main(["run", scenario_file, "--out", out, "--quiet"])
    bundle = str(tmp_path / "BENCH.json")
    assert cli_main(["collect", bundle, out]) == 0
    doc = json.loads(open(bundle).read())
    assert list(doc) == ["toy"]
    assert doc["toy"]["cell_count"] == 4


def test_cli_collect_rejects_incomplete_dir(tmp_path, capsys):
    incomplete = tmp_path / "partial"
    (incomplete / "cells").mkdir(parents=True)
    (incomplete / "meta.json").write_text('{"layout": 1, "plan": []}')
    rc = cli_main(["collect", str(tmp_path / "o.json"), str(incomplete)])
    assert rc == 2
    assert "not a finished artifact" in capsys.readouterr().err


def test_cli_unknown_scenario_is_an_error(capsys):
    assert cli_main(["run", "definitely-not-a-scenario"]) == 2
    assert "no scenario" in capsys.readouterr().err


def test_committed_scenarios_all_load_and_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    # Every committed scenario parses (no "[unreadable: ...]" rows).
    assert "unreadable" not in out
    for name in ("fig6", "fig11", "fig11_autotune", "library_reduce"):
        assert name in out
