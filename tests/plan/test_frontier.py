"""The incremental ready frontier equals the brute-force scan it
replaced, under random DAGs and random legal execution orders."""

from hypothesis import given, settings, strategies as st

from repro.plan.graph import CHAIN, COMPUTE, DONE, PENDING, TaskGraph


def scan(graph):
    """The O(nodes) definition: pending, every predecessor done."""
    return [n for n in graph.nodes
            if n.state == PENDING
            and all(graph.nodes[p].state == DONE for p in n.preds)]


def check(graph):
    want = scan(graph)
    assert graph.ready() == want
    ready = {n.node_id for n in want}
    for n in graph.nodes:
        assert graph.is_ready(n) == (n.node_id in ready)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_frontier_matches_rescan(data):
    n = data.draw(st.integers(1, 10), label="nodes")
    graph = TaskGraph()
    nodes = [graph.add_node(COMPUTE, chunk_index=i) for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for a, b in data.draw(st.lists(st.sampled_from(pairs), max_size=30)
                          if pairs else st.just([]), label="edges"):
        graph.add_edge(nodes[a], nodes[b], CHAIN)
        check(graph)
    running: list = []
    while not graph.complete:
        moves = ["run"] * bool(graph.ready()) + ["finish"] * bool(running)
        move = data.draw(st.sampled_from(moves), label="move")
        if move == "run":
            node = data.draw(st.sampled_from(graph.ready()))
            graph.mark_running(node)
            running.append(node)
        else:
            node = data.draw(st.sampled_from(running))
            running.remove(node)
            graph.mark_done(node)
        check(graph)
    assert graph.ready() == [] and not running
