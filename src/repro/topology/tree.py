"""The topology tree and its query API.

Northup "provides various functions to query the Northup tree"
(Section III-B); the method names here follow the paper:
``fetch_node_type()``, ``get_parent()``, ``get_children_list()``,
``get_level()``, ``get_max_treelevel()``.  ``get_cur_treenode()`` lives
on the execution context (:mod:`repro.core.context`) because "current"
is a property of a running recursion, not of the machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.errors import TopologyError
from repro.memory.channel import Link, default_link_for
from repro.memory.device import Device, StorageKind
from repro.memory.units import fmt_bytes
from repro.topology.node import TreeNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.compute.processor import Processor


class TopologyTree:
    """An asymmetric, heterogeneous tree of memory nodes.

    Nodes are added root-first; ids are assigned in insertion order
    (matching Figure 2's breadth-first numbering when built that way).
    The tree owns its devices: :meth:`close` releases every backend.
    """

    def __init__(self) -> None:
        self._nodes: dict[int, TreeNode] = {}
        self._root: TreeNode | None = None
        self._next_id = 0

    # -- construction -------------------------------------------------------

    def add_node(self, device: Device, *, parent: TreeNode | int | None = None,
                 processors: list["Processor"] | None = None,
                 link: Link | None = None) -> TreeNode:
        """Attach a new node below ``parent`` (or as root).

        ``link`` is the interconnect on the new edge; when omitted a
        sensible default is chosen from the two device types
        (:func:`~repro.memory.channel.default_link_for`).
        """
        if parent is None:
            if self._root is not None:
                raise TopologyError("tree already has a root")
            parent_node = None
            level = 0
        else:
            parent_node = self.node(parent) if isinstance(parent, int) else parent
            if self._nodes.get(parent_node.node_id) is not parent_node:
                raise TopologyError(f"parent {parent_node.node_id} not in this tree")
            level = parent_node.level + 1
        if link is None and parent_node is not None:
            link = default_link_for(parent_node.device.spec, device.spec)
        node = TreeNode(node_id=self._next_id, level=level, device=device,
                        parent=parent_node, uplink=link,
                        processors=list(processors or []))
        self._next_id += 1
        self._nodes[node.node_id] = node
        if parent_node is None:
            self._root = node
        else:
            parent_node.children.append(node)
        return node

    # -- the paper's query API ----------------------------------------------

    def fetch_node_type(self, node: TreeNode | int) -> StorageKind:
        """``fetch_node_type()``: the storage type of a node."""
        return self.node(node).storage_type if isinstance(node, int) else node.storage_type

    def get_parent(self, node: TreeNode | int) -> TreeNode | None:
        """``get_parent()``: parent node, ``None`` for the root."""
        n = self.node(node) if isinstance(node, int) else node
        return n.parent

    def get_children_list(self, node: TreeNode | int) -> list[TreeNode]:
        """``get_children_list()``: the children of a node."""
        n = self.node(node) if isinstance(node, int) else node
        return list(n.children)

    def get_level(self, node: TreeNode | int) -> int:
        """``get_level()``: a node's memory level (root = 0)."""
        n = self.node(node) if isinstance(node, int) else node
        return n.level

    def get_max_treelevel(self) -> int:
        """``get_max_treelevel()``: the deepest level index.

        The recursion template bottoms out when
        ``get_level() == get_max_treelevel()`` (Listing 3).
        """
        return max(n.level for n in self.nodes())

    # -- general access -------------------------------------------------

    @property
    def root(self) -> TreeNode:
        if self._root is None:
            raise TopologyError("tree is empty")
        return self._root

    def node(self, node_id: int) -> TreeNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"no node with id {node_id}") from None

    def nodes(self) -> Iterator[TreeNode]:
        """All nodes in breadth-first order from the root."""
        if self._root is None:
            return iter(())
        out: list[TreeNode] = []
        frontier = [self._root]
        while frontier:
            nxt: list[TreeNode] = []
            for n in frontier:
                out.append(n)
                nxt.extend(n.children)
            frontier = nxt
        return iter(out)

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes() if n.is_leaf]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def lowest_common_ancestor(self, a: TreeNode | int,
                               b: TreeNode | int) -> TreeNode:
        """LCA of two nodes; the junction any a->b transfer routes through."""
        na = self.node(a) if isinstance(a, int) else a
        nb = self.node(b) if isinstance(b, int) else b
        ancestors = {n.node_id for n in na.path_to_root()}
        for n in nb.path_to_root():
            if n.node_id in ancestors:
                return n
        raise TopologyError(
            f"nodes {na.node_id} and {nb.node_id} share no ancestor")

    def processors(self) -> list["Processor"]:
        out = []
        for n in self.nodes():
            out.extend(n.processors)
        return out

    # -- output ---------------------------------------------------------

    def render(self) -> str:
        """ASCII rendering of the topology (the paper notes "Northup can
        output the topology" so programmers can map their levels)."""
        lines: list[str] = []

        def walk(node: TreeNode, indent: str) -> None:
            procs = ""
            if node.processors:
                procs = " + " + ", ".join(
                    f"[{p.name}:{p.kind.value}]" for p in node.processors)
            lines.append(
                f"{indent}({node.node_id}) L{node.level} {node.device.name} "
                f"<{node.storage_type.value}> {fmt_bytes(node.capacity)}{procs}")
            for child in node.children:
                walk(child, indent + "  ")

        if self._root is not None:
            walk(self._root, "")
        return "\n".join(lines)

    def collect_metrics(self, reg) -> None:
        """Pull-collector: each node's backend and last level plan."""
        for n in self._nodes.values():
            labels = {"node": str(n.node_id)}
            n.device.backend.collect_metrics(reg, labels)
            if n.plan is not None:
                n.plan.collect_metrics(reg, labels)

    def close(self) -> None:
        """Release every device backend (removes FileBackend files).
        Every device is closed even when one of them raises; the first
        error is re-raised afterwards."""
        first: BaseException | None = None
        for n in self._nodes.values():
            try:
                n.device.close()
            except Exception as exc:
                if first is None:
                    first = exc
        if first is not None:
            raise first
