"""The dynamic buffer-hazard scan, the static ``buffer`` edges' oracle.

Moved from ``repro.plan.graph``: before the plan derived its ``buffer``
edges from the declared windows at lowering, each chunk's setup step
compared the handles it had just produced against every earlier chunk
still holding buffers and added the edges mid-run.  The lifecycle
suite runs this scan after every real setup and asserts each overlap
it finds is already ordered by a static edge.
"""


def overlapping_handles(a, b) -> bool:
    """True when any handle window in ``a`` shares bytes with one in ``b``.

    Handles are compared by device allocation -- ``(node_id, alloc_id)``
    -- and byte window ``[base_offset, base_offset + nbytes)``, so two
    mapped windows of one allocation (Reduce's per-chunk partial slots)
    only collide when their ranges actually intersect.
    """
    windows: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for h in a:
        windows.setdefault((h.node_id, h.alloc_id), []).append(
            (h.base_offset, h.base_offset + h.nbytes))
    for h in b:
        for lo, hi in windows.get((h.node_id, h.alloc_id), ()):
            if h.base_offset < hi and lo < h.base_offset + h.nbytes:
                return True
    return False


def dynamic_hazards(records, k: int) -> list[int]:
    """The earlier chunks the old scan linked to chunk ``k`` right after
    its setup: those whose setup produced buffers, whose ``combine`` has
    not run, and whose handles share bytes with chunk k's."""
    rec = records[k]
    return [j for j, earlier in enumerate(records[:k])
            if earlier.handles and not earlier.nodes["combine"].executed
            and overlapping_handles(earlier.handles, rec.handles)]
