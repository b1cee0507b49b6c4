"""Paper-style functional API.

Listing 3 writes Northup programs against free functions --
``alloc(size, node)``, ``move_data(...)``, ``get_cur_treenode()`` --
rather than methods on objects.  This module provides that surface,
bound to an ambient session so application code can read like the
paper's pseudocode:

.. code-block:: python

    with northup_session(system) as root_ctx:
        node = get_cur_treenode()
        buf = alloc(1024, node.node_id)
        ...
        release(buf)

The object-oriented API (:class:`~repro.core.system.System`,
:class:`~repro.core.context.ExecutionContext`) remains the primary
surface; these wrappers delegate to it.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar

from repro.compute.processor import Processor, ProcessorKind
from repro.core.buffers import BufferHandle
from repro.core.context import ExecutionContext, root_context
from repro.core.system import MoveResult, System
from repro.errors import NorthupError, TransferError
from repro.memory.device import StorageKind
from repro.topology.node import TreeNode

_current: ContextVar[ExecutionContext | None] = ContextVar(
    "northup_current_context", default=None)


def _ctx() -> ExecutionContext:
    ctx = _current.get()
    if ctx is None:
        raise NorthupError(
            "no active Northup session; wrap the call in "
            "`with northup_session(system):` or `with use_context(ctx):`")
    return ctx


@contextlib.contextmanager
def northup_session(system: System):
    """Open a session at the tree root; yields the root context."""
    ctx = root_context(system)
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


@contextlib.contextmanager
def use_context(ctx: ExecutionContext):
    """Make ``ctx`` the ambient context (used around recursive calls)."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


def northup_spawn(fn, child, *args, chunk=None, payload=None, **kwargs):
    """Listing 3's ``northup_spawn(myfunction(...))``: descend to
    ``child`` and run ``fn`` with the child context ambient.

    ``fn`` is called as ``fn(child_ctx, *args, **kwargs)``; its return
    value is passed through.  Synchronous (the paper's spawns are too:
    "in reality they may execute sequentially"); concurrency across
    chunks comes from the timeline, not host threads.
    """
    parent = _ctx()
    child_ctx = parent.descend(child, chunk=chunk, payload=payload)
    with use_context(child_ctx):
        return fn(child_ctx, *args, **kwargs)


# -- tree queries (Section III-B) ------------------------------------------

def get_cur_treenode() -> TreeNode:
    """``get_cur_treenode()``: the node execution has reached."""
    return _ctx().get_cur_treenode()


def get_level() -> int:
    """``get_level()``: the current memory level."""
    return _ctx().get_level()


def get_max_treelevel() -> int:
    """``get_max_treelevel()``: total tree depth."""
    return _ctx().get_max_treelevel()


def get_device(kind: ProcessorKind | None = None) -> Processor:
    """``get_device()``: a processor at or above the current node."""
    return _ctx().get_device(kind)


def fetch_node_type(tree_node: int) -> StorageKind:
    """``fetch_node_type()``: a node's storage type."""
    return _ctx().system.tree.fetch_node_type(tree_node)


def get_parent(tree_node: int) -> TreeNode | None:
    """``get_parent()``: the parent node (None at the root)."""
    return _ctx().system.tree.get_parent(tree_node)


def get_children_list(tree_node: int) -> list[TreeNode]:
    """``get_children_list()``: the node's children."""
    return _ctx().system.tree.get_children_list(tree_node)


# -- Table I ----------------------------------------------------------------

def alloc(size: int, tree_node: int, *, label: str = "") -> BufferHandle:
    """``(void *)alloc(size_t size, int tree_node)``."""
    return _ctx().system.alloc(size, tree_node, label=label)


def release(ptr: BufferHandle) -> None:
    """``void release(void *ptr)``."""
    _ctx().system.release(ptr)


def move_data(dst: BufferHandle, src: BufferHandle, size: int,
              offset: int = 0, dst_tree_node: int | None = None,
              src_tree_node: int | None = None, *,
              src_offset: int = 0) -> MoveResult:
    """``move_data(dst, src, size, offset, dst_tree_node, src_tree_node)``.

    ``offset`` applies to the destination (as in Listing 4's
    ``file_write``); ``src_offset`` extends the paper's signature for
    strided reads.  The explicit node arguments are redundant with the
    handles (which already know their node) but are validated when
    given -- the paper passes them because ``void *`` carries no type.
    """
    sys_ = _ctx().system
    if dst_tree_node is not None and dst.node_id != dst_tree_node:
        raise TransferError(
            f"dst buffer lives on node {dst.node_id}, not {dst_tree_node}")
    if src_tree_node is not None and src.node_id != src_tree_node:
        raise TransferError(
            f"src buffer lives on node {src.node_id}, not {src_tree_node}")
    return sys_.move(dst, src, size, dst_offset=offset, src_offset=src_offset)


def _move_window(ctx: ExecutionContext, dst: BufferHandle,
                 src: BufferHandle, size: int, offset: int, src_offset: int,
                 rows: int, src_stride: int | None,
                 dst_stride: int | None) -> MoveResult:
    """``size`` bytes as ``rows`` equal runs through
    :meth:`~repro.core.system.System.move_2d` (both strides default to
    the packed row width); ``src`` must be on the current node."""
    if src.node_id != ctx.node.node_id:
        raise TransferError(
            f"src buffer is on node {src.node_id}, not the current node "
            f"{ctx.node.node_id}")
    if rows < 1 or size % rows:
        raise TransferError(f"{size} bytes do not split into {rows} rows")
    row_bytes = size // rows
    return ctx.system.move_2d(
        dst, src, rows=rows, row_bytes=row_bytes, src_offset=src_offset,
        src_stride=row_bytes if src_stride is None else src_stride,
        dst_offset=offset,
        dst_stride=row_bytes if dst_stride is None else dst_stride)


def move_data_down(dst: BufferHandle, src: BufferHandle, size: int,
                   offset: int = 0, i: int = 0, *, src_offset: int = 0,
                   rows: int = 1, src_stride: int | None = None,
                   dst_stride: int | None = None) -> MoveResult:
    """``move_data_down(dst, src, size, offset, i)``: to the i-th child,
    the current node acting as the parent.  ``rows`` (with the two
    strides) moves a 2-D window: ``size`` bytes as ``rows`` runs of
    ``size // rows``, as :meth:`~repro.core.system.System.move_2d`."""
    ctx = _ctx()
    children = ctx.node.children
    if not (0 <= i < len(children)):
        raise TransferError(
            f"node {ctx.node.node_id} has {len(children)} children; "
            f"child index {i} is out of range")
    if dst.node_id != children[i].node_id:
        raise TransferError(
            f"dst buffer is on node {dst.node_id}, not child {i} "
            f"(node {children[i].node_id})")
    return _move_window(ctx, dst, src, size, offset, src_offset, rows,
                        src_stride, dst_stride)


def move_data_up(dst: BufferHandle, src: BufferHandle, size: int,
                 offset: int = 0, *, src_offset: int = 0, rows: int = 1,
                 src_stride: int | None = None,
                 dst_stride: int | None = None) -> MoveResult:
    """``move_data_up(dst, src, size, offset)``: to the parent, the
    current node acting as the child; ``rows`` and the strides as in
    :func:`move_data_down`."""
    ctx = _ctx()
    parent = ctx.node.parent
    if parent is None:
        raise TransferError("the root has no parent to move data up to")
    if dst.node_id != parent.node_id:
        raise TransferError(
            f"dst buffer is on node {dst.node_id}, not the parent "
            f"(node {parent.node_id})")
    return _move_window(ctx, dst, src, size, offset, src_offset, rows,
                        src_stride, dst_stride)
