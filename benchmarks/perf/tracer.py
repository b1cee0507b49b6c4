"""Outside-in span tracer for the perf benchmark.

The benchmark measures each layer of the stack *from outside*: it swaps
the layer's public callables for timing wrappers while a traced rep
runs and puts the originals back afterwards.  Nothing under ``src/``
knows it is being traced (in-program spans are a later issue).

A span is ``[name, start, end, parent, thread, quantity]``.  ``parent``
is the span that was innermost on the same thread when this one opened
(``None`` for a thread's outermost span), so a span's **self time** is
its duration minus its children's durations.  Spans stay in memory;
:func:`dump_spans` turns them into JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from time import perf_counter

# Field indices of one span record.
NAME, START, END, PARENT, THREAD, QTY = range(6)


class Tracer:
    """Span store plus the patch list that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        #: (owner, attribute, original or _MISSING) for :meth:`uninstall`.
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """An explicit span around harness code (setup / run roots)."""
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else None,
               threading.get_ident(), 0]
        self.spans.append(rec)
        stack.append(rec)
        rec[START] = perf_counter()
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, measure=None):
        """A wrapper that records one span per call of ``fn``.

        ``measure(args, kwargs, result)`` optionally attaches a
        quantity (bytes moved, graph nodes, flops) to the span.
        """
        spans = self.spans
        stack_of = self._stack
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   get_ident(), 0]
            spans.append(rec)
            stack.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if measure is not None:
                rec[QTY] = measure(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str,
                     measure=None) -> None:
        """Trace ``cls.attr`` (own or inherited) for instances of
        ``cls`` and its subclasses that do not override it."""
        own = cls.__dict__.get(attr, _MISSING)
        self._undo.append((cls, attr, own))
        setattr(cls, attr, self.wrap(getattr(cls, attr), name, measure))

    def patch_function(self, fn, name: str, measure=None) -> None:
        """Trace a module-level function under every ``repro`` module
        attribute bound to it (``from x import f`` copies the binding,
        so patching the defining module alone would miss callers)."""
        traced = self.wrap(fn, name, measure)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("repro"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, traced)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)


_MISSING = object()


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: duration minus child durations."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        parent = rec[PARENT]
        if parent is not None:
            out[index[id(parent)]] -= rec[END] - rec[START]
    return out


def dump_spans(spans: list[list]) -> dict:
    """JSON-ready form: parents become indices, times become offsets
    from the first span's start."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    origin = spans[0][START] if spans else 0.0
    threads: dict[int, int] = {}
    rows = []
    for rec in spans:
        parent = rec[PARENT]
        rows.append([rec[NAME], round(rec[START] - origin, 7),
                     round(rec[END] - origin, 7),
                     -1 if parent is None else index[id(parent)],
                     threads.setdefault(rec[THREAD], len(threads)),
                     rec[QTY]])
    return {"columns": ["name", "start_s", "end_s", "parent", "thread",
                        "quantity"],
            "spans": rows}
