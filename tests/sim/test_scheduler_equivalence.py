"""Indexed-vs-naive scheduler equivalence (the tentpole's safety net).

Randomized charge/charge_path workloads are replayed through the indexed
:class:`repro.sim.timeline._Slot` and the retained naive reference
(:class:`tests.reference.naive_slot.NaiveSlot`); every placement, the makespan
and the per-phase/per-resource breakdowns must be *bit-identical* -- the
indexed scheduler is a pure wall-clock optimisation.

Workloads deliberately mix the regimes the index special-cases:
monotone ready times (append fast path), zero ready on a dense schedule
and on a saturated channel whose gaps are all too short (block skips),
zero, epsilon and sub-epsilon durations (bookings that end past the next
start, so ends are not sorted), backfill into old gaps and
multi-resource path negotiation.
"""

import random
import time

import pytest

from repro.errors import SimulationError
from repro.sim.timeline import Timeline, _Slot
from repro.sim.trace import Phase
from tests.reference.naive_slot import NaiveSlot, naive_timeline

RESOURCES = ("host", "ssd.read", "pcie.down", "gpu", "nvme.q")
PHASES = (Phase.IO_READ, Phase.DEV_TRANSFER, Phase.RUNTIME,
          Phase.GPU_COMPUTE)


def _random_ops(rng: random.Random, n_ops: int) -> list[tuple]:
    """A reproducible mixed workload: (kind, resources, duration, ready)."""
    ops = []
    clock = 0.0
    for _ in range(n_ops):
        mode = rng.random()
        if mode < 0.35:
            # Dense host-style charge: ready 0, tiny fixed duration.
            ops.append(("charge", ("host",), 0.5e-6, 0.0))
            continue
        duration = rng.choice(
            [0.0, 1e-13, rng.uniform(1e-6, 1e-3), rng.uniform(0.01, 0.2)])
        if mode < 0.55:
            # Monotone pipeline style: ready climbs with virtual time.
            clock += rng.uniform(0.0, 0.05)
            ready = clock
        else:
            # Backfill style: ready anywhere in the past.
            ready = rng.uniform(0.0, max(clock, 0.1))
        if mode < 0.85:
            ops.append(("charge", (rng.choice(RESOURCES),), duration, ready))
        else:
            k = rng.randint(2, 3)
            ops.append(("path", tuple(rng.sample(RESOURCES, k)),
                        duration, ready))
    return ops


def _apply(timeline: Timeline, i: int, op: tuple) -> bool:
    """Apply one op; returns False when the scheduler rejected it.

    Exact-time collisions between zero-duration bookings and a later
    charge can trip the (seed-inherited) occupy overlap guard in *both*
    implementations; equivalence then means both reject identically.
    """
    kind, resources, duration, ready = op
    phase = PHASES[i % len(PHASES)]
    try:
        if kind == "charge":
            timeline.charge(resources[0], duration, phase, ready=ready,
                            label=f"op{i}", nbytes=i)
        else:
            timeline.charge_path(list(resources), duration, phase,
                                 ready=ready, label=f"op{i}", nbytes=i)
    except SimulationError:
        return False
    return True


# 73, 119, 163 and 382 each book a sub-epsilon interval that ends past
# a later start, so the bookings' ends are not sorted.
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 73, 119, 163, 382, 2019])
def test_indexed_matches_naive_reference(seed):
    ops = _random_ops(random.Random(seed), 400)
    indexed, naive = Timeline(), naive_timeline()
    for i, op in enumerate(ops):
        # Lockstep: both accept or both reject every single op.
        assert _apply(indexed, i, op) == _apply(naive, i, op), f"op {i}"
    # Bit-identical: same rows in the same order, exact float equality.
    assert list(indexed.trace.rows()) == list(naive.trace.rows())
    assert indexed.makespan() == naive.makespan()
    assert indexed.trace.by_phase() == naive.trace.by_phase()
    assert indexed.trace.by_resource() == naive.trace.by_resource()


@pytest.mark.parametrize("seed", [11, 13])
def test_batch_apis_match_naive_loop(seed):
    """charge_batch / charge_path_batch placements are bit-identical to
    the naive reference charging the same ops one by one."""
    rng = random.Random(seed)
    # Strictly positive durations: batches cannot skip rejected ops in
    # lockstep, and only zero-length bookings can collide exactly.
    ops = [(rng.uniform(1e-6, 0.05),
            rng.uniform(0.0, 0.5), f"op{i}", i) for i in range(200)]
    indexed, naive = Timeline(), naive_timeline()
    indexed.charge_batch("dev", ops, Phase.IO_READ)
    for d, r, label, nb in ops:
        naive.charge("dev", d, Phase.IO_READ, ready=r, label=label,
                     nbytes=nb)
    assert list(indexed.trace.rows()) == list(naive.trace.rows())

    indexed2, naive2 = Timeline(), naive_timeline()
    indexed2.charge_path_batch(["a", "b"], ops, Phase.DEV_TRANSFER)
    for d, r, label, nb in ops:
        naive2.charge_path(["a", "b"], d, Phase.DEV_TRANSFER, ready=r,
                           label=label, nbytes=nb)
    assert list(indexed2.trace.rows()) == list(naive2.trace.rows())
    assert indexed2.makespan() == naive2.makespan()


def test_reference_slot_is_selectable_per_timeline():
    tl = naive_timeline()
    tl.charge("x", 1.0, Phase.IO_READ)
    assert isinstance(tl.resource("x")._slot, NaiveSlot)
    # A default timeline stays on the indexed implementation.
    assert not isinstance(Timeline().resource("x")._slot, NaiveSlot)


# -- the spmv_fine shape: a saturated channel ------------------------------

GAP, XFER = 63e-6, 91e-6        # every gap is shorter than every transfer


def _saturated_channel_ops(rng: random.Random, bookings: int) -> list[tuple]:
    """``(ready, duration)`` requests in the order `spmv_fine` issues
    them on ``ssd.root.ch``: a transfer that appends ``GAP`` after the
    tail, then searches whose ``ready`` lies before the first booking
    (no gap is long enough, they land at the tail), and now and then a
    short backfill that splits one of the gaps, a request longer than a
    gap but shorter than any transfer, or one that starts mid-channel."""
    ops = []
    tail = NaiveSlot()              # only to know where the channel ends

    def issue(ready, duration):
        ops.append((ready, duration))
        tail.occupy(tail.earliest_gap(ready, duration), duration)

    issue(2 * XFER, XFER)           # room before the first booking
    for _ in range(bookings):
        issue(tail.free_at + GAP, XFER + rng.choice((0.0, 3e-6, 15e-6)))
        for _ in range(rng.randint(1, 2)):
            issue(rng.choice((0.0, XFER / 2)),
                  XFER + rng.choice((0.0, 15e-6, 40e-6)))
        roll = rng.random()
        if roll < 0.15:
            issue(rng.uniform(0.0, tail.free_at), rng.uniform(5e-6, GAP / 2))
        elif roll < 0.20:
            issue(0.0, rng.uniform(GAP, XFER))
        elif roll < 0.25:
            issue(rng.uniform(tail.free_at / 2, tail.free_at), XFER)
    return ops


def _replay(slot, ops) -> list[float]:
    placed = []
    for ready, duration in ops:
        start = slot.earliest_gap(ready, duration)
        slot.occupy(start, duration)
        placed.append(start)
    return placed


def _probe(slot, ops) -> list[float]:
    """The slot's answer to every request of ``ops`` once more, and to
    a zero-length and an oversized one at each ready time."""
    return [slot.earliest_gap(ready, d) for ready, duration in ops
            for d in (0.0, duration, 1.0)]


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 11])
def test_saturated_channel_matches_naive_reference(seed):
    ops = _saturated_channel_ops(random.Random(seed), 300)
    indexed, naive = _Slot(), NaiveSlot()
    placed = _replay(naive, ops)
    assert _replay(indexed, ops) == placed
    assert _probe(indexed, ops) == _probe(naive, ops)
    # The shape is the one intended: most searches start before the
    # channel's end and find no gap until it.
    ends = [0.0]
    for (_ready, duration), start in zip(ops, placed):
        ends.append(max(ends[-1], start + duration))
    at_tail = sum(ready < end == start for (ready, _d), start, end
                  in zip(ops, placed, ends))
    assert at_tail > len(ops) // 2


def _sub_eps_ops(rng: random.Random, n_ops: int) -> list[tuple]:
    """``(ready, duration)`` requests around and below the scheduling
    epsilon: zero-length and sub-epsilon bookings, equal starts and
    ready times on a coarse grid, so bookings touch, nest and overlap
    by less than epsilon."""
    return [(rng.choice((0.0, rng.uniform(0.0, 1e-9), rng.uniform(0.0, 1.0),
                         rng.uniform(-1e-12, 1e-12),
                         round(rng.uniform(0.0, 1.0), 3))),
             rng.choice((0.0, 1e-13, 5e-13, 1e-12, 2e-12,
                         rng.uniform(0.0, 1e-3), rng.uniform(0.0, 1e-11))))
            for _ in range(n_ops)]


@pytest.mark.parametrize("seed", range(8))
def test_sub_epsilon_bookings_match_naive_reference(seed):
    """Every search, and every overlap the insert guard rejects, agree
    with the oracle when bookings are shorter than epsilon."""
    indexed, naive = _Slot(), NaiveSlot()
    for ready, duration in _sub_eps_ops(random.Random(seed), 600):
        start = naive.earliest_gap(ready, duration)
        assert indexed.earliest_gap(ready, duration) == start
        try:
            naive.occupy(start, duration)
        except SimulationError:
            with pytest.raises(SimulationError):
                indexed.occupy(start, duration)
        else:
            indexed.occupy(start, duration)
    assert indexed.booked == naive.booked


def _search_cost(ops) -> float:
    """Best of 5 wall times to replay ``ops`` on a fresh indexed slot."""
    best = float("inf")
    for _ in range(5):
        slot = _Slot()
        t0 = time.perf_counter()
        _replay(slot, ops)
        best = min(best, time.perf_counter() - t0)
    return best


def test_saturated_channel_search_cost_is_linear_in_bookings():
    """4x the bookings costs < 8x the time (min of 5): the early-ready
    searches skip the blocks no gap of theirs fits instead of re-walking
    the channel, which made the replay quadratic (16x)."""
    small = _search_cost(_saturated_channel_ops(random.Random(3), 400))
    large = _search_cost(_saturated_channel_ops(random.Random(3), 1600))
    assert large < 8 * small, (small, large)


def _dense_host_ops(rng: random.Random, bookings: int) -> list[tuple]:
    """``(ready, duration)`` requests in the shape of the serve layer's
    host lane: three live jobs, each charging runtime costs of mixed
    length from its own admission floor, and now and then a new job
    admitted before or past the end of the work charged so far."""
    ops = []
    work = 0.0
    floors = [0.0] * 3
    for _ in range(bookings):
        job = rng.randrange(len(floors))
        if rng.random() < 0.05:
            floors[job] = max(0.0, work + rng.uniform(-700e-6, 1100e-6))
        duration = rng.choice((0.5e-6, 0.5e-6, 1e-6, 5e-6, 120e-6))
        work = max(work, floors[job]) + duration
        ops.append((floors[job], duration))
    return ops


def test_dense_host_lane_matches_naive_reference():
    ops = _dense_host_ops(random.Random(5), 1200)
    indexed, naive = _Slot(), NaiveSlot()
    assert _replay(indexed, ops) == _replay(naive, ops)
    assert _probe(indexed, ops) == _probe(naive, ops)


def test_dense_host_lane_search_cost_is_linear_in_bookings():
    """4x the bookings costs < 8x the time (min of 5) when searches of
    mixed lengths from several floors walk a dense lane."""
    small = _search_cost(_dense_host_ops(random.Random(3), 1000))
    large = _search_cost(_dense_host_ops(random.Random(3), 4000))
    assert large < 8 * small, (small, large)


def _growing_gap_cost(bookings: int) -> float:
    """Best of 5 wall times to append ``bookings`` 1 us bookings on a
    fresh slot, each after a gap 0.01% longer than the one before, with
    one search from t=0 after each: every appended fit is the largest
    of the lane."""
    best = float("inf")
    for _ in range(5):
        slot = _Slot()
        t0 = time.perf_counter()
        gap, at = 1e-6, 0.0
        for _ in range(bookings):
            at += gap
            slot.occupy(slot.earliest_gap(at, 1e-6), 1e-6)
            at += 1e-6
            slot.earliest_gap(0.0, 1e-6)
            gap *= 1.0001
        best = min(best, time.perf_counter() - t0)
    return best


def test_growing_gap_lane_matches_naive_reference():
    ops, gap, at = [], 1e-6, 0.0
    for i in range(500):
        at += gap
        ops.append((at, 1e-6))
        ops.append((0.0, gap * (1.0 + i % 3) / 2))   # a backfill or a miss
        at += 1e-6
        gap *= 1.01
    indexed, naive = _Slot(), NaiveSlot()
    assert _replay(indexed, ops) == _replay(naive, ops)
    assert _probe(indexed, ops) == _probe(naive, ops)


def test_growing_gap_append_cost_is_linear_in_bookings():
    """4x the bookings costs < 8x the time (min of 5) when every
    append's fit is the lane's largest: an append leaves the block
    maxima of the earlier blocks alone instead of raising them all."""
    small = _growing_gap_cost(5000)
    large = _growing_gap_cost(20000)
    assert large < 8 * small, (small, large)
