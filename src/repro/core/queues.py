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
    """One owner's deque of tasks; ``name`` ("cpu-q0", "gpu-q13") is
    the victim tie-break of :mod:`repro.core.stealing`."""

    name: str
    _items: deque = field(default_factory=deque, repr=False)

    def push(self, task: Any) -> None:
        """Owner-side push at the tail."""
        self._items.append(task)

    def pop(self) -> Any | None:
        """Owner-side pop from the tail (LIFO); ``None`` when empty."""
        if not self._items:
            return None
        return self._items.pop()

    def steal(self) -> Any | None:
        """Thief-side steal from the head (FIFO); ``None`` when empty."""
        if not self._items:
            return None
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items
