"""The level's task queue is its plan: per-chunk progress states read
off the lowered graph's node states."""

import pytest

from repro.core.program import NorthupProgram
from repro.core.scheduler import InOrderScheduler, PipelinedScheduler
from repro.core.system import System
from repro.memory.units import MB
from repro.plan.lower import CHUNK_STATES
from repro.topology.builders import apu_two_level


@pytest.fixture
def apu_system():
    sys_ = System(apu_two_level(storage_capacity=64 * MB,
                                staging_bytes=4 * MB))
    yield sys_
    sys_.close()


def _watching(base):
    """``base`` scheduler that snapshots ``(plan, state_counts())``
    before every node dispatch."""

    class Watching(base):
        def __init__(self):
            super().__init__()
            self.seen = []

        def _drain(self, plan):
            execute = plan.execute

            def watched(node):
                self.seen.append((plan, plan.state_counts()))
                yield from execute(node)

            plan.execute = watched
            yield from super()._drain(plan)

    return Watching()


class Chunks(NorthupProgram):
    """``n`` hook-free chunks, each descending to the staging leaf."""

    def __init__(self, n):
        self.n = n

    def decompose(self, ctx):
        return list(range(self.n))

    def compute_task(self, ctx):
        pass


def test_task_state_machine(apu_system):
    """One chunk walks queued -> moving -> resident -> computed ->
    done as its setup, move_down, compute and combine finish."""
    sched = _watching(InOrderScheduler)
    Chunks(1).run(apu_system, scheduler=sched)
    walked = [next(s for s, c in counts.items() if c)
              for _plan, counts in sched.seen]
    # Snapshots precede setup, move_down, compute, move_up, combine.
    assert walked == ["queued", "moving", "resident", "computed",
                      "computed"]
    assert apu_system.tree.root.plan.state_counts()["done"] == 1


def test_level_queue_counts_and_progress(apu_system):
    Chunks(3).run(apu_system)
    plan = apu_system.tree.root.plan
    assert len(plan.records) == 3
    assert plan.state_counts() == dict.fromkeys(CHUNK_STATES, 0) | {"done": 3}


@pytest.fixture(scope="module")
def hotspot_pipelined():
    """A HotSpot run under the pipelined scheduler with a window > 1,
    snapshotting every level plan's counts at each node dispatch."""
    from repro.apps.hotspot import HotspotApp

    system = System(apu_two_level())
    try:
        sched = _watching(PipelinedScheduler)
        app = HotspotApp(system, n=256, iterations=2, steps_per_pass=1,
                         force_tile=64, pipeline_depth=2, seed=1)
        app.run(system, scheduler=sched)
        final = {id(plan): plan.state_counts() for plan, _c in sched.seen}
        yield sched.seen, final
    finally:
        system.close()


def test_pipelined_level_queue_counts_every_chunk(hotspot_pipelined):
    seen, final = hotspot_pipelined
    windows = {plan.graph.meta["window"] for plan, _c in seen}
    assert max(windows) > 1
    # Chunks really overlap: some dispatch sees two chunks in flight.
    assert any(sum(c[s] for s in ("moving", "resident", "computed")) > 1
               for _plan, c in seen)
    for plan, counts in seen:
        assert sum(counts.values()) == len(plan.records)
    for plan, _c in seen:
        assert final[id(plan)]["done"] == len(plan.records)


def test_task_cannot_skip_backwards(hotspot_pipelined):
    """Under overlap, no chunk's state ever moves back: per plan, the
    number of chunks at or past each state never falls."""
    seen, _final = hotspot_pipelined
    last = {}
    for plan, counts in seen:
        reached = [sum(counts[s] for s in CHUNK_STATES[i:])
                   for i in range(len(CHUNK_STATES))]
        prev = last.get(id(plan), [0] * len(CHUNK_STATES))
        assert all(a >= b for a, b in zip(reached, prev))
        last[id(plan)] = reached
