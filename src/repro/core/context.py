"""Execution context: where in the tree the recursion currently is.

Listing 3's helpers -- ``get_cur_treenode()``, ``get_level()``,
``get_max_treelevel()``, ``get_device()`` -- are reads of this context.
Each recursive descent produces a child context, so "the runtime keeps
track which storage node the program has reached" (Section III-C)
without the application ever touching the topology directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.compute.processor import Processor, ProcessorKind
from repro.core.system import System
from repro.errors import SchedulerError, TopologyError
from repro.topology.node import TreeNode


@dataclass
class ExecutionContext:
    """One frame of the Northup recursion.

    Attributes
    ----------
    system:
        The machine being executed on.
    node:
        The tree node the recursion has reached.
    chunk:
        The chunk descriptor the parent passed down (``None`` at root).
    payload:
        Application data attached at descent (buffer handles etc.).
    """

    system: System
    node: TreeNode
    chunk: Any = None
    payload: Any = None
    parent_ctx: "ExecutionContext | None" = field(default=None, repr=False)
    scratch: dict = field(default_factory=dict, repr=False)

    # -- the paper's query helpers ---------------------------------------

    def get_cur_treenode(self) -> TreeNode:
        """``get_cur_treenode()``: the node execution has reached."""
        return self.node

    def get_level(self) -> int:
        """``get_level()``: the current memory level."""
        return self.node.level

    def get_max_treelevel(self) -> int:
        """``get_max_treelevel()``: total tree depth."""
        return self.system.tree.get_max_treelevel()

    @property
    def is_leaf(self) -> bool:
        """Whether recursion has bottomed out.

        On an asymmetric tree (Figure 2) leaves occur at different
        levels, so this tests for children rather than comparing against
        ``get_max_treelevel()``.
        """
        return self.node.is_leaf

    def get_device(self, kind: ProcessorKind | None = None) -> Processor:
        """``get_device()``: a processor at the current node.

        With ``kind`` given, the first processor of that kind; otherwise
        the first attached processor.  Searches up the tree if the
        current node has none (the discrete-GPU case where the CPU sits
        on the DRAM node).
        """
        node: TreeNode | None = self.node
        while node is not None:
            for p in node.processors:
                if kind is None or p.kind is kind:
                    return p
            node = node.parent
        wanted = kind.value if kind else "any"
        raise TopologyError(
            f"no processor of kind {wanted!r} at or above node "
            f"{self.node.node_id}")

    # -- descent ----------------------------------------------------------

    def descend(self, child: TreeNode | int, *, chunk: Any = None,
                payload: Any = None) -> "ExecutionContext":
        """The ``northup_spawn`` step: a context one level down.

        Charges the runtime bookkeeping that a real spawn performs
        (task-queue push, tree lookup).
        """
        child_node = (self.system.tree.node(child)
                      if isinstance(child, int) else child)
        if child_node.parent is not self.node:
            raise SchedulerError(
                f"cannot descend from node {self.node.node_id} to "
                f"non-child {child_node.node_id}")
        self.system.charge_runtime(2, label="spawn")
        return ExecutionContext(system=self.system, node=child_node,
                                chunk=chunk, payload=payload,
                                parent_ctx=self)

    def first_child(self) -> TreeNode:
        """Default child for single-branch descents (Listing 3 uses
        ``get_children_list()[0]``)."""
        children = self.node.children
        if not children:
            raise SchedulerError(f"node {self.node.node_id} is a leaf")
        return children[0]


def root_context(system: System) -> ExecutionContext:
    """The context a Northup program starts from: the tree root, where
    the input data lives (out-of-core execution "starts ... from the
    storage level (the tree root)", Section V-B)."""
    return ExecutionContext(system=system, node=system.tree.root)
