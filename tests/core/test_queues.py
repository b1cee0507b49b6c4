"""Unit and property tests for work-stealing deques."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queues import WorkQueue


def test_owner_pops_lifo():
    q = WorkQueue(name="q")
    for i in range(3):
        q.push(i)
    assert [q.pop(), q.pop(), q.pop()] == [2, 1, 0]
    assert q.pop() is None


def test_thief_steals_fifo():
    q = WorkQueue(name="q")
    for i in range(3):
        q.push(i)
    assert q.steal() == 0  # oldest task from the head
    assert q.pop() == 2    # owner still pops the newest
    assert q.steal() == 1
    assert q.empty and q.steal() is None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["push", "pop", "steal"]), max_size=60))
def test_deque_semantics_match_model(ops):
    """Owner-tail/thief-head semantics against a plain list model."""
    q = WorkQueue(name="q")
    model: list[int] = []
    counter = 0
    for op in ops:
        if op == "push":
            q.push(counter)
            model.append(counter)
            counter += 1
        elif op == "pop":
            got = q.pop()
            want = model.pop() if model else None
            assert got == want
        else:
            got = q.steal()
            want = model.pop(0) if model else None
            assert got == want
    assert len(q) == len(model)
