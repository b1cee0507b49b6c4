"""The declarative scenario model.

A scenario is one experiment family: a registered cell runner plus the
knob settings to run it at.  The on-disk form is TOML (or JSON with the
same structure)::

    [scenario]
    name = "fig6"
    title = "Figure 6: normalized runtime vs in-memory"
    runner = "fig6"

    [fixed]                # constants merged into every cell
    cpu_threads = 4

    [matrix]               # knob grid, crossed in declaration order
    app = ["gemm", "hotspot", "spmv"]
    config = ["in-memory", "ssd", "hdd"]

Instead of ``[matrix]`` a scenario may enumerate explicit cells (for
ragged spaces where the knobs are not a full cross product)::

    [[cells]]
    ablation = "gemm-reuse"
    variant = "reuse"

An optional ``[tuner]`` table turns the scenario into an autotune run
(see :mod:`repro.tools.autotune`)::

    [tuner]
    objective = "speedup"   # record key to optimise
    goal = "max"
    seed = 2019
    budget = 18
    [[tuner.knobs]]
    name = "gpu_queues"
    values = [8, 16, 32]
    relieves = ["compute"]

Cell parameters are plain data (str/int/float/bool) so cells can cross
a process boundary and land in JSON artifacts unchanged.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError

_SCALAR = (str, int, float, bool)


def _check_params(where: str, params: dict[str, Any]) -> None:
    for key, value in params.items():
        if not isinstance(key, str):
            raise ConfigError(f"{where}: parameter names must be strings, "
                              f"got {key!r}")
        if not isinstance(value, _SCALAR):
            raise ConfigError(f"{where}: parameter {key!r} must be a "
                              f"scalar, got {type(value).__name__}")


@dataclass(frozen=True)
class KnobSpec:
    """One tunable axis of a scenario's search space."""

    name: str
    values: tuple[Any, ...]
    #: Resource categories this knob can relieve when binding (see
    #: :func:`repro.tools.autotune.classify_resource`).  Empty means
    #: "always a candidate".
    relieves: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("knob needs a name")
        if not self.values:
            raise ConfigError(f"knob {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"knob {self.name!r} has duplicate values")


@dataclass(frozen=True)
class TunerSpec:
    """Declarative autotune block of a scenario."""

    objective: str
    knobs: tuple[KnobSpec, ...]
    goal: str = "max"
    seed: int = 0
    budget: int | None = None
    start: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.goal not in ("max", "min"):
            raise ConfigError(f"tuner goal must be 'max' or 'min', "
                              f"got {self.goal!r}")
        if not self.knobs:
            raise ConfigError("tuner needs at least one knob")
        names = [k.name for k in self.knobs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tuner knobs: {names}")
        for key, value in self.start.items():
            knob = next((k for k in self.knobs if k.name == key), None)
            if knob is None:
                raise ConfigError(f"tuner start names unknown knob {key!r}")
            if value not in knob.values:
                raise ConfigError(
                    f"tuner start {key}={value!r} is not one of the knob's "
                    f"values {list(knob.values)}")

    @property
    def grid_size(self) -> int:
        size = 1
        for k in self.knobs:
            size *= len(k.values)
        return size


@dataclass(frozen=True)
class Scenario:
    """One fully resolved experiment scenario."""

    name: str
    runner: str
    title: str = ""
    description: str = ""
    fixed: dict[str, Any] = field(default_factory=dict)
    matrix: dict[str, list[Any]] = field(default_factory=dict)
    cells: tuple[dict[str, Any], ...] = ()
    repeats: int = 1
    tuner: TunerSpec | None = None
    source: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario needs a name")
        if not self.runner:
            raise ConfigError(f"scenario {self.name!r} needs a runner")
        if self.repeats < 1:
            raise ConfigError(f"scenario {self.name!r}: repeats must be "
                              f">= 1, got {self.repeats}")
        if self.matrix and self.cells:
            raise ConfigError(f"scenario {self.name!r} declares both a "
                              f"matrix and explicit cells; pick one")
        _check_params(f"scenario {self.name!r} [fixed]", self.fixed)
        for knob, values in self.matrix.items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"scenario {self.name!r}: matrix knob "
                                  f"{knob!r} needs a non-empty value list")
        for i, cell in enumerate(self.cells):
            _check_params(f"scenario {self.name!r} cells[{i}]", cell)

    def expand(self) -> list[dict[str, Any]]:
        """The deterministic cell list: fixed params merged under each
        matrix combination (declaration order) or explicit cell."""
        if self.cells:
            return [{**self.fixed, **cell} for cell in self.cells]
        if not self.matrix:
            return [dict(self.fixed)]
        names = list(self.matrix)
        out = []
        for combo in itertools.product(*(self.matrix[n] for n in names)):
            out.append({**self.fixed, **dict(zip(names, combo))})
        return out

    @property
    def cell_count(self) -> int:
        count = len(self.cells) if self.cells else 1
        if self.matrix:
            count = 1
            for values in self.matrix.values():
                count *= len(values)
        return count * self.repeats

    def to_doc(self) -> dict[str, Any]:
        """JSON-able form for ``meta.json``."""
        doc: dict[str, Any] = {
            "name": self.name, "runner": self.runner, "title": self.title,
            "description": self.description, "fixed": dict(self.fixed),
            "matrix": {k: list(v) for k, v in self.matrix.items()},
            "cells": [dict(c) for c in self.cells],
            "repeats": self.repeats, "source": self.source,
        }
        if self.tuner is not None:
            doc["tuner"] = {
                "objective": self.tuner.objective, "goal": self.tuner.goal,
                "seed": self.tuner.seed, "budget": self.tuner.budget,
                "start": dict(self.tuner.start),
                "knobs": [{"name": k.name, "values": list(k.values),
                           "relieves": list(k.relieves)}
                          for k in self.tuner.knobs],
            }
        return doc


def _parse_tuner(doc: dict[str, Any], where: str) -> TunerSpec:
    if "objective" not in doc:
        raise ConfigError(f"{where}: [tuner] needs an objective key")
    knobs = []
    for kd in doc.get("knobs", []):
        knobs.append(KnobSpec(name=kd.get("name", ""),
                              values=tuple(kd.get("values", ())),
                              relieves=tuple(kd.get("relieves", ()))))
    return TunerSpec(objective=doc["objective"], knobs=tuple(knobs),
                     goal=doc.get("goal", "max"),
                     seed=int(doc.get("seed", 0)),
                     budget=doc.get("budget"),
                     start=dict(doc.get("start", {})))


def parse_scenario(doc: dict[str, Any], *, source: str = "") -> Scenario:
    """Build a :class:`Scenario` from a parsed TOML/JSON document."""
    if "scenario" not in doc or not isinstance(doc["scenario"], dict):
        raise ConfigError(f"{source or 'scenario document'}: missing "
                          f"[scenario] table")
    head = doc["scenario"]
    unknown = set(doc) - {"scenario", "fixed", "matrix", "cells", "tuner"}
    if unknown:
        raise ConfigError(f"{source or 'scenario document'}: unknown "
                          f"top-level tables {sorted(unknown)}")
    tuner = None
    if "tuner" in doc:
        tuner = _parse_tuner(doc["tuner"], source or head.get("name", "?"))
    return Scenario(
        name=head.get("name", ""), runner=head.get("runner", ""),
        title=head.get("title", ""), description=head.get("description", ""),
        fixed=dict(doc.get("fixed", {})),
        matrix={k: list(v) for k, v in doc.get("matrix", {}).items()},
        cells=tuple(dict(c) for c in doc.get("cells", [])),
        repeats=int(head.get("repeats", 1)),
        tuner=tuner, source=source)


def load_scenario(path: str) -> Scenario:
    """Load a scenario config from a ``.toml`` or ``.json`` file."""
    try:
        if path.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            import tomllib
            with open(path, "rb") as fh:
                doc = tomllib.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no scenario file {path!r}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse scenario {path!r}: {exc}") from exc
    return parse_scenario(doc, source=os.path.abspath(path))


def default_scenario_dir() -> str:
    """The committed scenario directory (``benchmarks/scenarios``),
    resolved relative to the repository this package was imported from;
    falls back to the current directory's ``benchmarks/scenarios``."""
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(here))))
    candidate = os.path.join(repo, "benchmarks", "scenarios")
    if os.path.isdir(candidate):
        return candidate
    return os.path.join(os.getcwd(), "benchmarks", "scenarios")


def find_scenario(name_or_path: str) -> str:
    """Resolve a scenario argument: an existing file path wins; a bare
    name looks up ``<name>.toml``/``<name>.json`` in the committed
    scenario directory."""
    if os.path.exists(name_or_path):
        return name_or_path
    base = default_scenario_dir()
    for ext in (".toml", ".json"):
        candidate = os.path.join(base, name_or_path + ext)
        if os.path.exists(candidate):
            return candidate
    raise ConfigError(
        f"no scenario {name_or_path!r}: not a file, and not found in "
        f"{base}")
