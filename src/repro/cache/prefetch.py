"""The prefetch engine: lookahead fetches driven by the decomposition.

Applications already *know* their future transfers -- the decomposition
enumerates every chunk, and each chunk declares its windows, before any
of them moves.  The engine takes that plan as per-child ordered lists of
:class:`~repro.cache.spec.FetchSpec` (every ``read`` and ``cached``
window of the level, paired with the child its chunk goes to; see
:meth:`repro.core.program.NorthupProgram.prefetch_hints`), and on every
cache consult issues up to ``lookahead`` of the next planned fetches
into the node's cache.  The transfers are charged on the real edge
resources with only the *source* readiness as a dependency, so the
backfill scheduler slots them into gaps and the demand access later
finds a resident block: prefetch/compute overlap falls out of the
virtual timelines, beyond what the fixed buffer-pool depth gives.

The plan doubles as the future-knowledge input of the Belady oracle
eviction policy (:class:`~repro.cache.policy.BeladyPolicy`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.cache.spec import FetchSpec
from repro.topology.node import TreeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.manager import CacheManager


class PrefetchEngine:
    """Per-node FIFO plans of upcoming fetches."""

    def __init__(self, manager: "CacheManager") -> None:
        self.manager = manager
        self._plans: dict[int, list[FetchSpec]] = {}

    # -- planning --------------------------------------------------------

    def plan_level(self, parent: TreeNode,
                   hints: Iterable[tuple[TreeNode, FetchSpec]], *,
                   replace: bool = True) -> int:
        """Install the plan for one recursion level.

        ``hints`` is the level's transfers in program order, each tagged
        with the child node that will receive it.  ``replace`` drops any
        stale plan left on the parent's children (the default -- a new
        level supersedes the old one); pass False to append, which apps
        with a repeat loop use to expose the *full* future to the
        oracle.
        """
        if replace:
            for child in parent.children:
                self._plans.pop(child.node_id, None)
        count = 0
        for child, spec in hints:
            self._plans.setdefault(child.node_id, []).append(spec)
            count += 1
        return count

    def plan_from_graph(self, parent: TreeNode, graph, *,
                        replace: bool = True) -> int:
        """Install a level's plan from its lowered task graph.

        The lowering pass (:func:`repro.plan.lower.lower_level`)
        attaches the level's hints, derived from its declared windows,
        to ``graph.meta["prefetch_hints"]``; the graph's ``move_down``
        nodes say which children actually receive transfers.  Hints
        aimed at a child no ``move_down`` node targets are dropped
        (they would poison the Belady ranking with fetches that never
        happen); the survivors keep their program order, which is what
        the oracle's future-distance metric is defined over.

        Returns the number of planned fetches, like :meth:`plan_level`.
        """
        hints = graph.meta.get("prefetch_hints")
        if not hints:
            return 0
        from repro.plan.graph import MOVE_DOWN

        targets = {n.tree_node for n in graph.nodes if n.kind == MOVE_DOWN}
        kept = [(child, spec) for child, spec in hints
                if child.node_id in targets]
        dropped = len(hints) - len(kept)
        if dropped:
            graph.meta["prefetch_hints_dropped"] = dropped
        return self.plan_level(parent, kept, replace=replace)

    def pending(self, node_id: int) -> list[FetchSpec]:
        return self._plans.get(node_id, [])

    def future_distance(self, node_id: int, key: tuple) -> float:
        """Steps until ``key`` is next used (``inf`` = never again)."""
        for i, spec in enumerate(self._plans.get(node_id, ())):
            if spec.key == key:
                return float(i)
        return math.inf

    def clear(self) -> None:
        self._plans.clear()

    # -- the lookahead loop ---------------------------------------------

    def consume(self, node_id: int, key: tuple) -> None:
        """Drop ``key``'s first plan entry -- its access is happening
        now.  Callers that admit on miss consume *before* admission so
        the Belady policy ranks the incoming block by its next use, not
        by the access being served."""
        plan = self._plans.get(node_id)
        if not plan:
            return
        for i, s in enumerate(plan):
            if s.key == key:
                del plan[i]
                break

    def notify_access(self, node: TreeNode, spec: FetchSpec) -> None:
        """One demand access happened: consume its plan entry and issue
        lookahead fetches for what comes next."""
        self.consume(node.node_id, spec.key)
        self.issue(node)

    def issue(self, node: TreeNode) -> None:
        """Issue up to ``lookahead`` planned fetches for ``node``
        (:meth:`~repro.cache.manager.CacheManager.prefetch_batch`, a
        loop of demand-style fills over the plan's head in order)."""
        plan = self._plans.get(node.node_id)
        if not plan:
            return
        lookahead = self.manager.config.lookahead
        if lookahead < 1:
            return
        # Scan a bounded window: already-resident entries don't count
        # against the lookahead but shouldn't trigger unbounded scans.
        self.manager.prefetch_batch(node, plan[:lookahead * 4], lookahead)
