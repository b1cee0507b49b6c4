"""Scenario execution: expand the matrix, fan out, persist as you go.

:func:`run_scenario` is the one entry point the CLI, the bench shims
and the tests all share.  It writes ``meta.json`` (including the full
expanded cell list) *before* any cell executes, then runs the cells through
:func:`repro.bench.parallel.run_parallel` with an ``on_result`` hook
that lands each cell file atomically as it completes.  A run killed at
any point therefore leaves a valid partial artifact, and
``resume=True`` diffs the recorded cell list against the completed
cell files to execute only what is missing.

Scenarios with a ``[tuner]`` block run the critical-path-guided search
of :mod:`repro.tools.autotune` instead of the full matrix: each
objective evaluation is persisted as a cell, and the tuned-config
artifact lands in ``tuned.json``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

from repro.bench.parallel import run_parallel
from repro.errors import ConfigError
from repro.tools.experiment import registry
from repro.tools.experiment.artifact import Artifact
from repro.tools.experiment.config import Scenario


class _CellTask:
    """Picklable adapter: one scenario cell across the pool boundary."""

    def __init__(self, runner: str) -> None:
        self.runner = runner

    def __call__(self, params: dict[str, Any]) -> dict[str, Any]:
        return registry.run_cell(self.runner, params)


@dataclass
class ExperimentResult:
    """What one :func:`run_scenario` call did."""

    scenario: Scenario
    artifact: Artifact
    summary: dict[str, Any]
    tuned: dict[str, Any] | None = None
    executed: int = 0
    reused: int = 0

    @property
    def out_dir(self) -> str:
        return self.artifact.root


def _plan(scenario: Scenario) -> list[dict[str, Any]]:
    """The expanded cell list recorded in ``meta.json``: one entry per
    (cell, repeat), in deterministic execution order."""
    plan = []
    index = 0
    for params in scenario.expand():
        for repeat in range(scenario.repeats):
            plan.append({"index": index, "params": params,
                         "repeat": repeat})
            index += 1
    return plan


def _summarize(scenario: Scenario,
               cells: list[dict[str, Any]], *, wall_s: float,
               workers: int, tuned: dict[str, Any] | None
               ) -> dict[str, Any]:
    """The ``summary.json`` document.

    Virtual metrics sit at the top level where ``repro regress``
    compares them; wall-clock and pool size live under ``meta``, which
    regress ignores, so machine speed never gates a comparison.
    """
    summary: dict[str, Any] = {
        "scenario": scenario.name,
        "runner": scenario.runner,
        "cell_count": len(cells),
        "cells": cells,
        "meta": {"wall_s": round(wall_s, 3), "workers": workers,
                 "source": scenario.source},
    }
    if tuned is not None:
        summary["tuned"] = {
            "best_params": tuned["best"]["params"],
            "best_score": tuned["best"]["score"],
            "evaluated": tuned["evaluated"],
            "grid_size": tuned["grid_size"],
            "coverage": tuned["coverage"],
            "converged": tuned["converged"],
        }
    return summary


def _run_matrix(scenario: Scenario, art: Artifact, *,
                workers: int, resume: bool) -> ExperimentResult:
    plan = _plan(scenario)
    done: dict[int, dict[str, Any]] = {}
    if resume and art.exists:
        meta = art.read_meta()
        if meta.get("scenario", {}).get("name") != scenario.name:
            raise ConfigError(
                f"{art.root} holds scenario "
                f"{meta.get('scenario', {}).get('name')!r}, not "
                f"{scenario.name!r}; refusing to resume into it")
        recorded = meta.get("plan", [])
        if [p["params"] for p in recorded] != [p["params"] for p in plan]:
            raise ConfigError(
                f"{art.root} was planned from a different cell list; "
                f"refusing to resume (use a fresh --out dir)")
        done = art.completed_cells()
    else:
        if art.exists and not resume:
            raise ConfigError(f"{art.root} already holds an experiment "
                              f"artifact; pass --resume or a fresh dir")
        art.begin({"scenario": scenario.to_doc(), "plan": plan,
                   "mode": "matrix"})

    todo = [entry for entry in plan if entry["index"] not in done]
    start = time.perf_counter()
    if todo:
        def persist(position: int, record: dict[str, Any]) -> None:
            entry = todo[position]
            art.write_cell(entry["index"], entry["params"],
                           entry["repeat"], record)

        run_parallel(_CellTask(scenario.runner),
                     [entry["params"] for entry in todo],
                     workers=workers, on_result=persist)
    wall_s = time.perf_counter() - start

    completed = art.completed_cells()
    missing = [e["index"] for e in plan if e["index"] not in completed]
    if missing:
        raise ConfigError(f"cells {missing} missing after run in {art.root}")
    cells = [{"params": completed[e["index"]]["params"],
              "repeat": completed[e["index"]]["repeat"],
              "record": completed[e["index"]]["record"]} for e in plan]
    summary = _summarize(scenario, cells, wall_s=wall_s,
                         workers=workers, tuned=None)
    from repro.tools.experiment.report import render_report
    art.finish(summary, render_report(summary))
    return ExperimentResult(scenario=scenario, artifact=art,
                            summary=summary, executed=len(todo),
                            reused=len(plan) - len(todo))


def _run_tuner(scenario: Scenario, art: Artifact, *,
               resume: bool) -> ExperimentResult:
    from repro.tools.autotune import tune_spec
    if art.exists:
        if not resume:
            raise ConfigError(f"{art.root} already holds an experiment "
                              f"artifact; pass --resume or a fresh dir")
        if art.complete:
            summary = art.read_summary()
            return ExperimentResult(
                scenario=scenario, artifact=art, summary=summary,
                tuned=summary.get("tuned"), executed=0,
                reused=summary.get("cell_count", 0))
        # An interrupted tuner run re-runs from the start: the search
        # is deterministic and each evaluation is cheap virtual time,
        # so replay is simpler and equally reproducible.
    art.begin({"scenario": scenario.to_doc(), "plan": [], "mode": "tune"})

    assert scenario.tuner is not None
    cells: list[dict[str, Any]] = []
    start = time.perf_counter()

    def evaluate(params: dict[str, Any]) -> dict[str, Any]:
        record = registry.run_cell(scenario.runner, params)
        index = len(cells)
        art.write_cell(index, params, 0, record)
        cells.append({"params": params, "repeat": 0, "record": record})
        return record

    result = tune_spec(scenario.tuner, evaluate, fixed=scenario.fixed)
    wall_s = time.perf_counter() - start
    tuned = result.to_doc()
    art.write_tuned(tuned)
    summary = _summarize(scenario, cells, wall_s=wall_s,
                         workers=1, tuned=tuned)
    from repro.tools.experiment.report import render_report
    art.finish(summary, render_report(summary))
    return ExperimentResult(scenario=scenario, artifact=art,
                            summary=summary, tuned=tuned,
                            executed=len(cells), reused=0)


def run_scenario(scenario: Scenario, *, out_dir: str, workers: int = 1,
                 resume: bool = False) -> ExperimentResult:
    """Execute one scenario into an artifact directory.

    Parameters
    ----------
    scenario:
        A loaded :class:`Scenario` (see :func:`load_scenario`).
    out_dir:
        Artifact directory.  Must be fresh unless ``resume=True``.
    workers:
        Process-pool width for matrix cells (tuner runs are inherently
        sequential: each move depends on the previous evaluation).
    resume:
        Complete a previously interrupted run in ``out_dir`` instead of
        refusing to touch it.
    """
    # Fail on an unknown runner before any directory is created.
    registry.get_runner(scenario.runner)
    art = Artifact(os.path.abspath(out_dir))
    if scenario.tuner is not None:
        return _run_tuner(scenario, art, resume=resume)
    return _run_matrix(scenario, art, workers=workers, resume=resume)
