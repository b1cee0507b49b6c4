"""The committed scenarios and the ``BENCH_*.json`` documents collected
from them: every TOML is runnable as written, carries no reduced-scale
tier, and regenerates its committed figures exactly."""

import glob
import inspect
import json
import os
import tomllib

import pytest

from repro.obs.regress import BASELINES, compare
from repro.tools.experiment.config import (default_scenario_dir,
                                           load_scenario)
from repro.tools.experiment.registry import get_runner, list_runners
from repro.tools.experiment.runner import run_scenario

REPO = os.path.dirname(os.path.dirname(default_scenario_dir()))
SCENARIOS = {os.path.splitext(os.path.basename(p))[0]: p for p in sorted(
    glob.glob(os.path.join(default_scenario_dir(), "*.toml")))}


def _committed(scenario: str) -> dict | None:
    """The scenario's summary inside its committed BENCH document."""
    for fname, names in BASELINES.items():
        if scenario in names:
            with open(os.path.join(REPO, fname)) as fh:
                return json.load(fh)[scenario]
    return None


def test_every_baseline_scenario_is_committed():
    assert len(SCENARIOS) == 17
    for names in BASELINES.values():
        assert set(names) <= set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_committed_scenario_is_runnable_as_written(name):
    with open(SCENARIOS[name], "rb") as fh:
        assert "scales" not in tomllib.load(fh)
    scenario = load_scenario(SCENARIOS[name])
    assert scenario.name == name
    signature = inspect.signature(get_runner(scenario.runner))
    cells = scenario.expand()
    assert len(cells) * scenario.repeats == scenario.cell_count
    if scenario.tuner is None:
        for params in cells:
            signature.bind(**params)        # TypeError on a stray knob
    committed = _committed(name)
    if committed is not None and scenario.tuner is None:
        assert committed["cell_count"] == scenario.cell_count
        assert [c["params"] for c in committed["cells"]] == cells


def test_no_registered_runner_takes_a_scale():
    for name in list_runners():
        assert "scale" not in inspect.signature(get_runner(name)).parameters


@pytest.mark.parametrize("name", ["pipeline_overlap", "distributed_scaling"])
def test_harness_regenerates_the_committed_figures(name, tmp_path):
    """Every leaf outside ``meta`` is virtual: a fresh run through the
    harness equals the committed document.  (``serve_throughput`` takes
    ~2.5 s and is gated the same way by CI's serve-smoke job.)"""
    fresh = run_scenario(load_scenario(SCENARIOS[name]),
                         out_dir=str(tmp_path / name)).summary
    assert compare(_committed(name), fresh) == []
