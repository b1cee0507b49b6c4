"""Declarative experiment harness: scenario configs -> run matrices.

The 16 ``benchmarks/bench_*.py`` scripts used to hand-pick chunk sizes,
pipeline depths, staging budgets, cache policies, schedulers and
executor backends as inline constants.  This package collapses them
onto one scenario layer:

* :mod:`~repro.tools.experiment.config` -- the declarative scenario
  model (TOML/JSON): a registered cell runner, a knob matrix (or an
  explicit cell list), and an optional tuner spec.
* :mod:`~repro.tools.experiment.registry` -- named, picklable cell
  runners (``repro.bench.cells`` registers one per bench family).
* :mod:`~repro.tools.experiment.runner` -- matrix expansion and
  execution through the :mod:`repro.bench.parallel` pool, with cells
  persisted as they finish so a killed run leaves a valid partial
  artifact that ``--resume`` completes.
* :mod:`~repro.tools.experiment.artifact` -- the artifact directory
  (``meta.json``, ``cells/``, ``summary.json``, ``report.md``).
* :mod:`~repro.tools.experiment.cli` -- ``python -m repro experiment
  run | report | collect | list``.

Scenario configs for every paper figure live in
``benchmarks/scenarios/``; the bench scripts are thin shims that run
their scenario and assert the paper's qualitative shape on the rows.
"""

from repro.tools.experiment.config import Scenario, load_scenario
from repro.tools.experiment.registry import (get_runner, list_runners,
                                             register)
from repro.tools.experiment.runner import (ExperimentResult, run_scenario,
                                           run_scenario_file)

__all__ = [
    "Scenario", "load_scenario", "register", "get_runner", "list_runners",
    "ExperimentResult", "run_scenario", "run_scenario_file",
]
