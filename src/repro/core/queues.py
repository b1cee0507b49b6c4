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
