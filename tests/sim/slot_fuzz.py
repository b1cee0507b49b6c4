"""The indexed slot against the linear-scan oracle on many seeds.

Replays the ``_random_ops`` workloads of the equivalence suite (400 ops
each) through a default timeline and one on
:class:`tests.reference.naive_slot.NaiveSlot`, as
``test_indexed_matches_naive_reference`` does for its few seeds, and
names every seed on which a placement, a rejection or the trace
differs.  Too slow for tier-1 (~5 s for 400 seeds); CI runs it as a
step of its own::

    PYTHONPATH=src python -m tests.sim.slot_fuzz --seeds 400
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.sim.timeline import Timeline
from tests.reference.naive_slot import naive_timeline
from tests.sim.test_scheduler_equivalence import _apply, _random_ops


def matches_naive(seed: int, n_ops: int = 400) -> bool:
    indexed, naive = Timeline(), naive_timeline()
    for i, op in enumerate(_random_ops(random.Random(seed), n_ops)):
        if _apply(indexed, i, op) != _apply(naive, i, op):
            return False
    return list(indexed.trace.rows()) == list(naive.trace.rows())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=400,
                        help="replay seeds 0 .. SEEDS-1 (default 400)")
    args = parser.parse_args(argv)
    failed = [s for s in range(args.seeds) if not matches_naive(s)]
    print(f"{len(failed)} of {args.seeds} seeds deviate"
          + (f": {failed}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
