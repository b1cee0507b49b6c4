"""Property tests for the backfill-scheduled timeline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.timeline import Timeline
from repro.sim.trace import Phase


def intervals_by_resource(timeline):
    out = {}
    for iv in timeline.trace:
        for res in iv.resource.split("+"):
            out.setdefault(res, []).append((iv.start, iv.end))
    return out


op = st.tuples(
    st.sampled_from(["a", "b", "c"]),                # resource
    st.floats(min_value=0.0, max_value=10.0),        # ready
    st.floats(min_value=0.001, max_value=5.0),       # duration
)


@settings(max_examples=100, deadline=None)
@given(st.lists(op, max_size=40))
def test_single_slot_resources_never_overlap(ops):
    """However operations are issued, a resource runs at most one
    operation at a time -- the core backfill invariant."""
    tl = Timeline()
    for res, ready, duration in ops:
        done = tl.charge(res, duration, Phase.GPU_COMPUTE, ready=ready)
        assert done.start >= ready
    for res, spans in intervals_by_resource(tl).items():
        spans.sort()
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-9, f"overlap on {res}"


@settings(max_examples=60, deadline=None)
@given(st.lists(op, min_size=1, max_size=30))
def test_backfill_never_beats_dependency(ops):
    tl = Timeline()
    for res, ready, duration in ops:
        done = tl.charge(res, duration, Phase.IO_READ, ready=ready)
        assert done.start >= ready - 1e-12
        assert done.end == done.start + duration


path_op = st.tuples(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3,
             unique=True),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.001, max_value=2.0),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(path_op, max_size=25))
def test_charge_path_holds_invariant_on_every_member(ops):
    """Multi-resource operations must not overlap anything on any of
    their member resources."""
    tl = Timeline()
    for resources, ready, duration in ops:
        tl.charge_path(list(resources), duration, Phase.IO_READ,
                       ready=ready)
    for res, spans in intervals_by_resource(tl).items():
        spans.sort()
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-9, f"overlap on {res}"
