"""Work-stealing deques.

Section V-E implements lock-free stealing with HSA platform-scope
atomics; the semantics are the classic Chase-Lev deque: the owner pushes
and pops at the *tail*, thieves steal from the *head*.  This module
reproduces those semantics deterministically (the discrete-event
scheduler serialises accesses, so no atomics are needed -- the paper's
concurrency-control concern becomes a correctness-of-ordering concern,
which the property tests cover).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SchedulerError


@dataclass
class WorkQueue:
    """One owner's deque of tasks.

    Attributes
    ----------
    name:
        Identifier ("cpu-q0", "gpu-q13"); appears in stats.
    owner:
        The worker that pops locally.  Only informational -- enforcement
        of "one owner" is up to the scheduler.
    """

    name: str
    owner: str = ""
    _items: deque = field(default_factory=deque, repr=False)
    pushes: int = 0
    pops: int = 0
    steals_suffered: int = 0

    def push(self, task: Any) -> None:
        """Owner-side push at the tail."""
        self._items.append(task)
        self.pushes += 1

    def pop(self) -> Any | None:
        """Owner-side pop from the tail (LIFO); ``None`` when empty."""
        if not self._items:
            return None
        self.pops += 1
        return self._items.pop()

    def steal(self) -> Any | None:
        """Thief-side steal from the head (FIFO); ``None`` when empty."""
        if not self._items:
            return None
        self.steals_suffered += 1
        return self._items.popleft()

    def restore(self, task: Any, *, head: bool = False) -> None:
        """Put a popped/stolen task back without counting a push.

        DAG-aware policies (:mod:`repro.core.stealing`) pop a task and
        may find its graph dependencies unfinished; restoring keeps the
        queue's counters equal to what a plain list of always-ready
        tasks would produce.  ``head=True`` undoes a :meth:`steal` (the
        steal counter is left incremented deliberately -- the attempt
        happened).
        """
        if head:
            self._items.appendleft(task)
        else:
            self._items.append(task)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items


@dataclass
class QueueSet:
    """The queues anchored at one tree node (Listing 1's
    ``work_queue[numQueues]``)."""

    queues: list[WorkQueue] = field(default_factory=list)

    @classmethod
    def create(cls, count: int, prefix: str, owner_prefix: str = "") -> "QueueSet":
        if count < 1:
            raise SchedulerError(f"need at least one queue, got {count}")
        return cls(queues=[
            WorkQueue(name=f"{prefix}{i}",
                      owner=f"{owner_prefix}{i}" if owner_prefix else "")
            for i in range(count)
        ])

    def __len__(self) -> int:
        return len(self.queues)

    def __getitem__(self, i: int) -> WorkQueue:
        return self.queues[i]

    def push_round_robin(self, tasks: list[Any]) -> None:
        """Distribute tasks across queues in round-robin order (how the
        Figure 10 organisation assigns rows of blocks to queues)."""
        for i, task in enumerate(tasks):
            self.queues[i % len(self.queues)].push(task)

    def total_pending(self) -> int:
        return sum(len(q) for q in self.queues)

    def export_metrics(self, registry, *,
                       labels: dict[str, str] | None = None) -> None:
        """Publish every queue's counters into a
        :class:`~repro.obs.metrics.MetricsRegistry` (gauges labelled by
        queue name; extra ``labels`` are merged in)."""
        base = dict(labels or {})
        for q in self.queues:
            qlabels = dict(base, queue=q.name)
            registry.gauge("queue_pushes", q.pushes, labels=qlabels)
            registry.gauge("queue_pops", q.pops, labels=qlabels)
            registry.gauge("queue_steals_suffered", q.steals_suffered,
                           labels=qlabels)
            registry.gauge("queue_pending", len(q), labels=qlabels)

    def steal_from_any(self, exclude: WorkQueue | None = None) -> Any | None:
        """Steal from the longest other queue (deterministic victim
        choice: length, then name)."""
        victims = sorted(
            (q for q in self.queues if q is not exclude and not q.empty),
            key=lambda q: (-len(q), q.name))
        for victim in victims:
            task = victim.steal()
            if task is not None:
                return task
        return None
