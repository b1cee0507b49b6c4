"""The derived chunk lifecycle, app by app: every app on three trees
under both graph schedulers, with the cache in full mode, computes its
reference answer, leaves no child-level buffer behind, hints only
children that its chunks move down to, and runs on graphs that were
complete at lowering: no edge is added during a drain, and every buffer
overlap the old dynamic scan finds is ordered by a static edge."""

import numpy as np
import pytest

from repro.apps import GemmApp, HotspotApp, ReduceApp, SortApp, SpmvApp
from repro.cache.manager import CacheConfig
from repro.cache.prefetch import PrefetchEngine
from repro.core.scheduler import InOrderScheduler, PipelinedScheduler
from repro.core.system import System
from repro.memory.units import KB
from repro.plan import lower
from repro.plan.graph import BUFFER, MOVE_DOWN
from repro.topology.builders import (apu_two_level, discrete_gpu_three_level,
                                     dual_branch_apu)
from repro.workloads.sparse import preset
from tests.reference.hazards import dynamic_hazards

APPS = {
    "reduce": lambda s: ReduceApp(s, n=60_000, op="l2", seed=3),
    "sort": lambda s: SortApp(s, n=40_000, seed=3),
    "spmv": lambda s: SpmvApp(s, matrix=preset("circuit-like", nrows=6000,
                                               seed=3), seed=3, iterations=2),
    "hotspot": lambda s: HotspotApp(s, n=160, iterations=4,
                                    steps_per_pass=2, seed=3),
    "gemm": lambda s: GemmApp(s, m=96, k=512, n=96, seed=3),
    # k = 4096 splits k at both levels of the three-level tree: C is
    # carried across each k loop, and the inner level fills it from the
    # outer one's partial sums.
    "gemm_ksplit": lambda s: GemmApp(s, m=16, k=4096, n=16, seed=3),
}
TREES = {
    "apu": lambda: apu_two_level(staging_bytes=160 * KB),
    "dgpu": lambda: discrete_gpu_three_level(staging_bytes=256 * KB,
                                             gpu_mem_bytes=64 * KB),
    "dual": lambda: dual_branch_apu(staging_bytes=160 * KB),
}
SCHEDULERS = {"inorder": InOrderScheduler, "pipelined": PipelinedScheduler}


def _watch_plans(monkeypatch) -> list:
    """Record each lowered plan with its edge count, and after every
    real setup run the old hazard scan against the static edges."""
    lowered = []
    real_lower, real_setup = lower.lower_level, lower.LevelWindows.setup

    def lower_level(program, ctx, **kw):
        plan = real_lower(program, ctx, **kw)
        lowered.append((plan, plan.graph.edge_count))
        return plan

    def setup(self, rec):
        real_setup(self, rec)
        plan = next(p for p, _ in reversed(lowered) if p.windows is self)
        graph, k = plan.graph, self.records.index(rec)
        # Combines run in order: an edge from a later chunk j' >= j
        # orders chunk j too, and the window edges order the rest.
        linked = [graph.nodes[p].chunk_index
                  for p, kind in rec.nodes[MOVE_DOWN].preds.items()
                  if kind == BUFFER]
        for j in dynamic_hazards(self.records, k):
            assert k - j >= graph.meta["window"] \
                or any(i >= j for i in linked), (j, k, linked)
    monkeypatch.setattr(lower, "lower_level", lower_level)
    monkeypatch.setattr(lower.LevelWindows, "setup", setup)
    return lowered


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
@pytest.mark.parametrize("tree", sorted(TREES))
@pytest.mark.parametrize("app", sorted(APPS))
def test_derived_lifecycle(app, tree, sched, monkeypatch):
    dropped, planned = [], []
    real = PrefetchEngine.plan_from_graph

    def spy(self, parent, graph, **kw):
        count = real(self, parent, graph, **kw)
        planned.append(count)
        dropped.append(graph.meta.get("prefetch_hints_dropped", 0))
        return count
    monkeypatch.setattr(PrefetchEngine, "plan_from_graph", spy)
    lowered = _watch_plans(monkeypatch)

    system = System(TREES[tree](), cache=CacheConfig(mode="full"))
    try:
        program = APPS[app](system)
        program.run(system, scheduler=SCHEDULERS[sched]())
        np.testing.assert_allclose(program.result(), program.reference(),
                                   rtol=1e-3, atol=1e-3)
        root = system.tree.root.node_id
        assert [h for h in system.registry.live_handles()
                if h.node_id != root] == []
        assert dropped and not any(dropped)
        assert lowered and all(plan.graph.edge_count == edges
                               for plan, edges in lowered)
        # Sort's only window is ``update``: nothing to hint.
        assert (sum(planned) > 0) == (app != "sort")
        if (app, tree) == ("gemm_ksplit", "dgpu"):
            labels = {iv.label for iv in system.timeline.trace}
            assert "C down" in labels
    finally:
        system.close()
