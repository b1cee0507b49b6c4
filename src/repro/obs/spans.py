"""Causal span tracing: the divide-and-conquer shape of a run.

A :class:`Span` mirrors one frame of the Northup recursion -- ``run ->
divide -> move_down -> compute -> move_up -> combine`` -- plus the
runtime-internal activities that ride along (cache fills, prefetches,
work-stealing chunk phases).  Spans form a tree through ``parent_id``;
every :class:`~repro.sim.trace.Trace` interval records the id of the
span that was open when it was charged, so the flat interval list
becomes a causal DAG without the simulator ever branching on whether
tracing is enabled.

Spans charge **nothing**: they carry no virtual time of their own.  A
span's virtual extent is derived after the fact as the envelope of the
intervals attributed to it (and, transitively, to its children) by
:func:`analyze`.  Virtual results are therefore bit-identical with
observability on, off, or absent.

Zero cost when disabled
-----------------------
``System(observe=False)`` installs the shared :data:`NULL_OBSERVER`,
whose ``open``/``close``/``count`` are no-ops returning a shared
sentinel span.  Instrumentation sites call through unconditionally --
no per-site branching -- and the disabled path allocates no span
objects at all (:attr:`Span.allocated` counts live instances; the
overhead bench asserts the delta is zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NorthupError
from repro.sim.trace import Trace


class Span:
    """One node of the causal span tree.

    Spans are created only by :meth:`Observer.open`; they hold identity
    and annotations, not timing -- virtual extent is derived from the
    trace by :func:`analyze`.
    """

    __slots__ = ("span_id", "parent_id", "kind", "label", "node_id",
                 "attrs")

    #: Running count of Span objects ever constructed (the overhead
    #: bench asserts this does not move when observability is off).
    allocated = 0

    def __init__(self, span_id: int, parent_id: int, kind: str,
                 label: str = "", node_id: int = -1) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.label = label
        self.node_id = node_id
        #: Lazily-created annotation dict (cache hit counts etc.).
        self.attrs: dict | None = None
        Span.allocated += 1

    def annotate(self, key: str, value) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def count(self, key: str, n: int = 1) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = self.attrs.get(key, 0) + n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(#{self.span_id} {self.kind}"
                f"{' ' + self.label if self.label else ''}"
                f" parent=#{self.parent_id})")


class _NullSpan:
    """Shared sentinel returned by the null observer; swallows
    annotations without allocating."""

    __slots__ = ()
    span_id = 0
    parent_id = 0
    kind = ""
    label = ""
    node_id = -1
    attrs = None

    def annotate(self, key: str, value) -> None:
        pass

    def count(self, key: str, n: int = 1) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Observer:
    """Span tracker bound to one trace.

    ``open``/``close`` maintain a stack of span ids and mirror the top
    of the stack into :attr:`Trace.active_span`, so every interval the
    timeline records while a span is open is attributed to it.
    """

    enabled = True

    def __init__(self, trace: Trace | None = None) -> None:
        self.trace = trace if trace is not None else Trace()
        #: Index 0 is reserved: span id 0 means "no span".
        self.spans: list[Span | None] = [None]
        self._stack: list[int] = [0]

    # -- the span lifecycle ------------------------------------------------

    def open(self, kind: str, label: str = "", node_id: int = -1) -> Span:
        """Open a child of the current span and make it current."""
        span = Span(len(self.spans), self._stack[-1], kind, label, node_id)
        self.spans.append(span)
        self._stack.append(span.span_id)
        self.trace.active_span = span.span_id
        return span

    def close(self, span: Span) -> None:
        """Close ``span``; its parent becomes current again.

        Closing out of order (an ancestor before a descendant) closes
        the intervening descendants too -- exception-safe unwinding.
        """
        stack = self._stack
        if span.span_id in stack:
            while stack[-1] != span.span_id:
                stack.pop()
            stack.pop()
        self.trace.active_span = stack[-1]

    # -- annotations -------------------------------------------------------

    @property
    def current(self) -> Span | _NullSpan:
        sid = self._stack[-1]
        return self.spans[sid] if sid else _NULL_SPAN

    def count(self, key: str, n: int = 1) -> None:
        """Bump a counter annotation on the currently open span."""
        sid = self._stack[-1]
        if sid:
            self.spans[sid].count(key, n)

    # -- context switching -------------------------------------------------

    def switch_context(self, stack: list[int] | None) -> list[int]:
        """Install ``stack`` as the active span stack; returns the one
        that was active.

        ``None`` installs a fresh root stack.  The serve layer keeps one
        stack per job and swaps on every dispatch grant, so interleaved
        jobs each keep a coherent span tree over the shared trace (span
        ids stay globally unique; only the *open* chain is per-job).
        """
        old = self._stack
        self._stack = stack if stack is not None else [0]
        self.trace.active_span = self._stack[-1]
        return old

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Forget every recorded span (called between measured phases,
        alongside ``Timeline.reset``)."""
        self.spans = [None]
        self._stack = [0]
        self.trace.active_span = 0

    def __len__(self) -> int:
        return len(self.spans) - 1


class NullObserver:
    """The disabled observer: every operation is a no-op and no span
    objects are ever allocated.  Shared between systems."""

    enabled = False
    spans: list = [None]
    trace = None

    def open(self, kind: str, label: str = "", node_id: int = -1) -> _NullSpan:
        return _NULL_SPAN

    def close(self, span) -> None:
        pass

    @property
    def current(self) -> _NullSpan:
        return _NULL_SPAN

    def count(self, key: str, n: int = 1) -> None:
        pass

    def switch_context(self, stack: list | None) -> list:
        return [0]

    def reset(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: The shared disabled observer (``System(observe=False)``).
NULL_OBSERVER = NullObserver()


# -- analysis ----------------------------------------------------------------

@dataclass
class SpanStats:
    """Derived timing of one span: direct (self) and subtree totals."""

    span: Span
    #: Envelope of intervals attributed directly to this span.
    self_start: float = float("inf")
    self_end: float = float("-inf")
    self_seconds: float = 0.0
    self_bytes: int = 0
    n_intervals: int = 0
    resources: set = field(default_factory=set)
    #: Envelope including every descendant (the span's virtual extent).
    start: float = float("inf")
    end: float = float("-inf")
    children: list["SpanStats"] = field(default_factory=list)

    @property
    def has_extent(self) -> bool:
        return self.end >= self.start

    @property
    def duration(self) -> float:
        return self.end - self.start if self.has_extent else 0.0


class SpanTree:
    """The analyzed span forest of one run."""

    def __init__(self, stats: list[SpanStats | None],
                 roots: list[SpanStats], unattributed: int) -> None:
        self._stats = stats
        self.roots = roots
        #: Intervals recorded with no span open (span id 0).
        self.unattributed = unattributed

    def node(self, span_id: int) -> SpanStats:
        st = self._stats[span_id] if 0 < span_id < len(self._stats) else None
        if st is None:
            raise NorthupError(f"unknown span id {span_id}")
        return st

    def __len__(self) -> int:
        return sum(1 for s in self._stats if s is not None)

    def all(self) -> list[SpanStats]:
        return [s for s in self._stats if s is not None]

    def by_kind(self) -> dict[str, tuple[int, float]]:
        """``kind -> (count, total self seconds)`` over every span."""
        out: dict[str, tuple[int, float]] = {}
        for st in self.all():
            count, secs = out.get(st.span.kind, (0, 0.0))
            out[st.span.kind] = (count + 1, secs + st.self_seconds)
        return out

    def table(self, max_depth: int = 3, max_children: int = 8) -> str:
        """Indented rendering of the span tree (depth-capped)."""
        lines: list[str] = []

        def walk(st: SpanStats, depth: int) -> None:
            name = st.span.kind + (f":{st.span.label}" if st.span.label else "")
            extent = (f"[{st.start * 1e3:.3f}, {st.end * 1e3:.3f}] ms"
                      if st.has_extent else "(no intervals)")
            lines.append(f"{'  ' * depth}{name} #{st.span.span_id} {extent} "
                         f"self={st.self_seconds * 1e3:.3f} ms "
                         f"ivals={st.n_intervals}")
            if depth + 1 > max_depth:
                if st.children:
                    lines.append(f"{'  ' * (depth + 1)}"
                                 f"... {len(st.children)} children")
                return
            for child in st.children[:max_children]:
                walk(child, depth + 1)
            if len(st.children) > max_children:
                lines.append(f"{'  ' * (depth + 1)}"
                             f"... {len(st.children) - max_children} more")

        for root in self.roots:
            walk(root, 0)
        if self.unattributed:
            lines.append(f"({self.unattributed} intervals outside any span)")
        return "\n".join(lines) if lines else "(no spans)"


def analyze(observer: Observer, trace: Trace | None = None) -> SpanTree:
    """Fold a trace's span column into per-span timing statistics.

    One pass over the trace accumulates each span's direct envelope,
    busy seconds, bytes and resources; a post-order fold then widens
    parents to include their descendants, giving every span its virtual
    extent.  Pure analysis: nothing here touches the timeline.
    """
    trace = trace if trace is not None else observer.trace
    spans = observer.spans
    stats: list[SpanStats | None] = [
        SpanStats(span=s) if s is not None else None for s in spans]
    unattributed = 0
    for start, end, _phase, resource, _label, nbytes, sid in trace.span_rows():
        if sid <= 0 or sid >= len(stats) or stats[sid] is None:
            unattributed += 1
            continue
        st = stats[sid]
        if start < st.self_start:
            st.self_start = start
        if end > st.self_end:
            st.self_end = end
        st.self_seconds += end - start
        st.self_bytes += nbytes
        st.n_intervals += 1
        st.resources.add(resource)
    roots: list[SpanStats] = []
    for st in stats[1:]:
        if st is None:
            continue
        st.start, st.end = st.self_start, st.self_end
        parent = stats[st.span.parent_id] if st.span.parent_id else None
        if parent is None:
            roots.append(st)
        else:
            parent.children.append(st)
    # Spans are appended in open order, so children always come after
    # their parents: a reverse sweep folds envelopes bottom-up.
    for st in reversed(stats[1:]):
        if st is None or not st.span.parent_id:
            continue
        parent = stats[st.span.parent_id]
        if parent is not None and st.end >= st.start:
            if st.start < parent.start:
                parent.start = st.start
            if st.end > parent.end:
                parent.end = st.end
    return SpanTree(stats, roots, unattributed)
