"""Critical-path-guided knob search (the Section III-E idea, scaled up).

The paper's "profile earlier chunks, steer later decisions" rule,
applied to the whole configuration space the experiment harness
exposes -- chunk size, pipeline depth, staging capacity, cache policy,
scheduler, queue counts -- with this discipline:

1. **observe** -- every evaluation returns not just a score but an
   *attribution*: which resource bound the run, read off the
   critical-path extraction of :mod:`repro.obs.critical`
   (:func:`binding_from_trace`) or supplied directly by the objective;
2. **steer** -- only knobs declared to *relieve* the binding resource
   are candidates for the next move, so the search climbs along the
   axis that can actually shorten the critical chain instead of
   sweeping the full cross product;
3. **stay reproducible** -- moves are ranked by (score, then a seeded
   tie-break over knob declaration order), evaluations are cached by
   parameter tuple, and no wall-clock enters any decision, so the same
   spec always walks the same trajectory.

The walk is a neighbourhood hill-climb over each knob's ordered value
axis (indices +-1), widening to +-2 (successive halving of the
remaining axis) when no unit step improves; when the binding resource's
knobs are exhausted the remaining knobs get one round before the tuner
declares convergence.  The result is a tuned-config artifact
(:meth:`TuneResult.to_doc`) the experiment harness replays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigError
from repro.tools.experiment.config import KnobSpec, TunerSpec

#: Resource categories knobs declare they relieve.
CATEGORIES = ("compute", "cpu", "channel", "cache", "net", "runtime",
              "other")


def classify_resource(resource: str) -> str:
    """Map a trace resource name onto a knob-relief category.

    Resource names follow the simulator's conventions: ``{dev}.ch`` for
    transfer channels, ``gpu*``/``workers`` for compute lanes, ``cpu*``
    for host lanes, ``net*``/``*.tx``/``*.rx`` for the modeled network,
    ``cache*`` for buffer-cache charges, ``runtime`` for bookkeeping.
    """
    name = resource.lower()
    if name.startswith("net") or name.endswith((".tx", ".rx")):
        return "net"
    if name.endswith(".ch") or "channel" in name:
        return "channel"
    if name.startswith("cache"):
        return "cache"
    if name.startswith("cpu"):
        return "cpu"
    if name.startswith("gpu") or name in ("workers", "accelerator"):
        return "compute"
    if name == "runtime":
        return "runtime"
    return "other"


def binding_from_trace(trace) -> tuple[str, dict[str, float]]:
    """Binding category + per-category busy seconds of one trace's
    critical path (ties break toward the category listed first in
    :data:`CATEGORIES`, so attribution is deterministic)."""
    from repro.obs.critical import critical_path
    by_resource = critical_path(trace).by_resource()
    per_cat: dict[str, float] = {}
    for resource, secs in by_resource.items():
        cat = classify_resource(resource)
        per_cat[cat] = per_cat.get(cat, 0.0) + secs
    if not per_cat:
        return "other", {}
    binding = max(CATEGORIES, key=lambda c: per_cat.get(c, 0.0))
    return binding, per_cat


@dataclass
class Evaluation:
    """One objective evaluation."""

    params: dict[str, Any]
    score: float
    binding: str
    attribution: dict[str, float] = field(default_factory=dict)
    record: dict[str, Any] = field(default_factory=dict)

    def to_doc(self) -> dict[str, Any]:
        return {"params": dict(self.params), "score": self.score,
                "binding": self.binding,
                "attribution": dict(self.attribution)}


@dataclass
class TuneResult:
    """Outcome of one tuner run: the tuned config and its provenance."""

    best: Evaluation
    evaluations: list[Evaluation]
    grid_size: int
    converged: bool
    goal: str
    objective: str
    seed: int

    @property
    def evaluated(self) -> int:
        return len(self.evaluations)

    @property
    def coverage(self) -> float:
        """Fraction of the full cross product actually evaluated."""
        return self.evaluated / self.grid_size if self.grid_size else 1.0

    def to_doc(self) -> dict[str, Any]:
        """The tuned-config artifact (``tuned.json``)."""
        return {
            "objective": self.objective, "goal": self.goal,
            "seed": self.seed, "converged": self.converged,
            "grid_size": self.grid_size, "evaluated": self.evaluated,
            "coverage": round(self.coverage, 4),
            "best": self.best.to_doc(),
            "trajectory": [e.to_doc() for e in self.evaluations],
        }


class Autotuner:
    """Deterministic critical-path-guided hill-climb.

    Parameters
    ----------
    knobs:
        Ordered axes of the search space.  Declaration order is the
        exploration order (ties in score resolve toward
        earlier-declared knobs, seeded).
    objective:
        ``objective(params) -> Evaluation`` (or a plain record dict
        with a score key, see :meth:`from_spec`).  Must be
        deterministic for reproducible trajectories.
    goal:
        ``"max"`` (default) or ``"min"``.
    budget:
        Evaluation cap; ``None`` means half the grid, the bound the
        fig11 acceptance criterion enforces.
    """

    def __init__(self, knobs: list[KnobSpec] | tuple[KnobSpec, ...],
                 objective: Callable[[dict[str, Any]], Evaluation], *,
                 goal: str = "max", seed: int = 0,
                 budget: int | None = None) -> None:
        if not knobs:
            raise ConfigError("autotuner needs at least one knob")
        if goal not in ("max", "min"):
            raise ConfigError(f"goal must be 'max' or 'min', got {goal!r}")
        self.knobs = list(knobs)
        self.objective = objective
        self.goal = goal
        self.seed = seed
        grid = 1
        for k in self.knobs:
            grid *= len(k.values)
        self.grid_size = grid
        self.budget = budget if budget is not None else max(1, grid // 2)
        self._rng = random.Random(seed)
        self._cache: dict[tuple, Evaluation] = {}
        self._order: list[Evaluation] = []

    # -- internals ------------------------------------------------------------

    def _key(self, params: dict[str, Any]) -> tuple:
        return tuple(params[k.name] for k in self.knobs)

    def _better(self, a: float, b: float) -> bool:
        """Is score ``a`` strictly better than ``b``?"""
        return a > b if self.goal == "max" else a < b

    def _evaluate(self, params: dict[str, Any]) -> Evaluation | None:
        key = self._key(params)
        if key in self._cache:
            return self._cache[key]
        if len(self._order) >= self.budget:
            return None
        ev = self.objective(dict(params))
        if not isinstance(ev, Evaluation):
            raise ConfigError("objective must return an Evaluation")
        self._cache[key] = ev
        self._order.append(ev)
        return ev

    def _neighbours(self, knob: KnobSpec, value: Any,
                    radius: int) -> list[Any]:
        idx = knob.values.index(value)
        out = []
        for step in (radius, -radius):
            j = idx + step
            if 0 <= j < len(knob.values):
                out.append(knob.values[j])
        return out

    def _candidate_knobs(self, binding: str) -> list[KnobSpec]:
        """Knobs to try for a given binding resource: relieving knobs
        first (declaration order), then the rest -- so a mis-attributed
        binding degrades to a plain hill-climb instead of a dead end."""
        relieving = [k for k in self.knobs
                     if not k.relieves or binding in k.relieves]
        rest = [k for k in self.knobs if k not in relieving]
        return relieving + rest

    # -- the search -----------------------------------------------------------

    def tune(self, start: dict[str, Any] | None = None) -> TuneResult:
        """Climb from ``start`` (default: each knob's first value)."""
        params = {k.name: k.values[0] for k in self.knobs}
        if start:
            for key, value in start.items():
                knob = next((k for k in self.knobs if k.name == key), None)
                if knob is None:
                    raise ConfigError(f"start names unknown knob {key!r}")
                if value not in knob.values:
                    raise ConfigError(
                        f"start {key}={value!r} not in {list(knob.values)}")
                params[key] = value
        current = self._evaluate(params)
        assert current is not None  # budget >= 1
        best = current
        converged = False
        while len(self._order) < self.budget:
            moved = False
            for radius in (1, 2):
                proposals: list[tuple[KnobSpec, Any, Evaluation]] = []
                for knob in self._candidate_knobs(current.binding):
                    for value in self._neighbours(
                            knob, current.params[knob.name], radius):
                        trial = {**current.params, knob.name: value}
                        ev = self._evaluate(trial)
                        if ev is None:      # budget exhausted mid-round
                            break
                        proposals.append((knob, value, ev))
                    else:
                        continue
                    break
                improving = [p for p in proposals
                             if self._better(p[2].score, current.score)]
                if improving:
                    top = improving[0][2].score
                    for _knob, _value, ev in improving[1:]:
                        if self._better(ev.score, top):
                            top = ev.score
                    tied = [p for p in improving if p[2].score == top]
                    # Seeded tie-break over declaration order: stable
                    # for a given seed, and seed 0 keeps pure
                    # first-declared-wins semantics.
                    pick = tied[self._rng.randrange(len(tied))
                                if self.seed and len(tied) > 1 else 0]
                    current = pick[2]
                    if self._better(current.score, best.score):
                        best = current
                    moved = True
                    break
            if not moved:
                converged = True
                break
        return TuneResult(best=best, evaluations=list(self._order),
                          grid_size=self.grid_size, converged=converged,
                          goal=self.goal, objective="", seed=self.seed)


def tune_spec(spec: TunerSpec,
              run_cell: Callable[[dict[str, Any]], dict[str, Any]], *,
              fixed: dict[str, Any] | None = None) -> TuneResult:
    """Drive an :class:`Autotuner` from a scenario's declarative
    :class:`~repro.tools.experiment.config.TunerSpec`.

    ``run_cell(params)`` executes one cell and returns its record; the
    record must contain ``spec.objective`` (the score) and may contain
    ``binding``/``attribution`` keys from :func:`binding_from_trace`.
    """
    fixed = dict(fixed or {})

    def objective(knob_params: dict[str, Any]) -> Evaluation:
        record = run_cell({**fixed, **knob_params})
        if spec.objective not in record:
            raise ConfigError(
                f"cell record has no objective key {spec.objective!r} "
                f"(keys: {sorted(record)})")
        return Evaluation(
            params=knob_params, score=float(record[spec.objective]),
            binding=str(record.get("binding", "other")),
            attribution=dict(record.get("attribution", {})),
            record=record)

    tuner = Autotuner(list(spec.knobs), objective, goal=spec.goal,
                      seed=spec.seed, budget=spec.budget)
    result = tuner.tune(dict(spec.start))
    result.objective = spec.objective
    return result
