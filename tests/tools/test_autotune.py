"""Critical-path-guided autotuner: units plus the fig11 acceptance
criterion (within 5% of the grid-best knob setting while evaluating
under half of the cross product)."""

import itertools
import json
import os

import pytest

from repro.errors import ConfigError
from repro.tools.autotune import (Autotuner, CATEGORIES, Evaluation,
                                  classify_resource)
from repro.tools.experiment.config import (KnobSpec, find_scenario,
                                           load_scenario)
from repro.tools.experiment.registry import run_cell
from repro.tools.experiment.runner import run_scenario


# -- resource classification --------------------------------------------------


@pytest.mark.parametrize("resource,category", [
    ("workers", "compute"), ("gpu0", "compute"), ("gpu-apu", "compute"),
    ("cpu1", "cpu"), ("ssd.ch", "channel"), ("hdd.ch", "channel"),
    ("net0", "net"), ("node1.tx", "net"), ("node0.rx", "net"),
    ("cache:ssd", "cache"), ("runtime", "runtime"),
    ("frobnicator", "other"),
])
def test_classify_resource(resource, category):
    assert classify_resource(resource) == category


def test_fig11_cell_attributes_its_binding_resource():
    record = run_cell("fig11", {"input": "1024x256", "gpu_queues": 8,
                                "cpu_threads": 4, "steps_per_chunk": 32})
    assert record["binding"] in CATEGORIES
    assert record["attribution"]
    assert all(secs >= 0 for secs in record["attribution"].values())


# -- synthetic search behaviour -----------------------------------------------


def bowl_objective(optimum, binding="compute"):
    """Quadratic bowl over the knob values, peak at ``optimum``."""
    def objective(params):
        score = -sum((params[k] - v) ** 2 for k, v in optimum.items())
        return Evaluation(params=params, score=score, binding=binding)
    return objective


def knobs2():
    return [KnobSpec("x", (1, 2, 4, 8), relieves=("compute",)),
            KnobSpec("y", (2, 4, 8), relieves=("channel",))]


def test_climbs_to_the_optimum():
    t = Autotuner(knobs2(), bowl_objective({"x": 4, "y": 8}), budget=12)
    result = t.tune()
    assert result.best.params == {"x": 4, "y": 8}
    assert result.converged
    assert result.evaluated <= 12


def test_budget_defaults_to_half_the_grid():
    t = Autotuner(knobs2(), bowl_objective({"x": 1, "y": 2}))
    assert t.grid_size == 12
    assert t.budget == 6


def test_cached_reevaluations_do_not_consume_budget():
    calls = []
    def objective(params):
        calls.append(dict(params))
        return Evaluation(params=params, score=-params["x"],
                          binding="compute")
    t = Autotuner([KnobSpec("x", (1, 2, 4, 8))], objective,
                  goal="min", budget=8)
    result = t.tune()
    assert result.best.params == {"x": 8}   # min of -x is the largest x
    assert len(calls) == result.evaluated
    assert len(calls) == len({tuple(c.items()) for c in calls})


def test_goal_min_inverts_comparison():
    t = Autotuner(knobs2(), bowl_objective({"x": 8, "y": 2}),
                  goal="min", budget=12)
    # Minimising the bowl walks away from its peak to a corner.
    result = t.tune(start={"x": 8, "y": 2})
    assert result.best.score < -0.0
    assert result.best.params != {"x": 8, "y": 2}


def test_binding_resource_steers_knob_order():
    seen = []
    def objective(params):
        seen.append(dict(params))
        return Evaluation(params=params, score=float(params["y"]),
                          binding="channel")
    Autotuner(knobs2(), objective, budget=4).tune()
    # With "channel" binding, the relieving knob y moves before x.
    assert seen[0] == {"x": 1, "y": 2}
    assert seen[1] == {"x": 1, "y": 4}


def test_seeded_trajectories_are_reproducible():
    for seed in (0, 7, 2019):
        runs = [Autotuner(knobs2(), bowl_objective({"x": 4, "y": 4}),
                          seed=seed, budget=10).tune() for _ in range(2)]
        assert [e.params for e in runs[0].evaluations] == \
            [e.params for e in runs[1].evaluations]


def test_seed_zero_breaks_ties_toward_first_declared_knob():
    # Both unit moves from (1, 2) score identically; seed 0 must take
    # the earlier-declared knob's move (first-declared wins).
    def objective(params):
        return Evaluation(params=params,
                          score=float(params["x"] + params["y"]),
                          binding="other")
    t = Autotuner([KnobSpec("x", (1, 3)), KnobSpec("y", (2, 4))],
                  objective, seed=0, budget=3)
    result = t.tune()
    assert result.evaluations[1].params == {"x": 3, "y": 2}


def test_rejects_bad_objectives_and_starts():
    t = Autotuner(knobs2(), lambda params: 1.0)
    with pytest.raises(ConfigError, match="Evaluation"):
        t.tune()
    t2 = Autotuner(knobs2(), bowl_objective({"x": 1, "y": 2}))
    with pytest.raises(ConfigError, match="unknown knob"):
        t2.tune(start={"z": 1})
    with pytest.raises(ConfigError, match="not in"):
        t2.tune(start={"x": 3})


# -- fig11 acceptance ---------------------------------------------------------


def full_grid_best(scenario):
    spec = scenario.tuner
    names = [k.name for k in spec.knobs]
    best = None
    for combo in itertools.product(*(k.values for k in spec.knobs)):
        record = run_cell(scenario.runner,
                          {**scenario.fixed, **dict(zip(names, combo))})
        score = float(record[spec.objective])
        if best is None or score > best:
            best = score
    return best


def test_fig11_autotune_meets_the_acceptance_criterion(tmp_path):
    scenario = load_scenario(find_scenario("fig11_autotune"))
    out = str(tmp_path / "tune")
    result = run_scenario(scenario, out_dir=out)

    assert result.tuned is not None
    tuned = result.tuned
    # Evaluates under half of the 36-point cross product...
    assert tuned["grid_size"] == 36
    assert tuned["evaluated"] / tuned["grid_size"] < 0.5
    assert tuned["converged"]
    # ...and still lands within 5% of the best hand-picked setting.
    grid_best = full_grid_best(scenario)
    assert tuned["best"]["score"] >= 0.95 * grid_best

    # The tuned config is recorded in the experiment artifact.
    on_disk = json.load(open(os.path.join(out, "tuned.json")))
    assert on_disk["best"]["params"] == tuned["best"]["params"]
    assert on_disk["coverage"] < 0.5
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["tuned"]["best_params"] == tuned["best"]["params"]
