"""Tree nodes.

One :class:`TreeNode` corresponds to the paper's Listing 1 ``struct
node``: memory information (held by the attached
:class:`~repro.memory.device.Device`), optional processor attachments
(``processor_t``, normally at leaves, but the paper notes a CPU may
attach to a non-leaf node in a CPU + discrete-GPU system), the level and
node id, parent/children links, and the node's work queue: the last
level plan lowered at it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.memory.channel import Link
from repro.memory.device import Device, StorageKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.compute.processor import Processor


@dataclass
class TreeNode:
    """One memory/storage node of the Northup tree.

    Attributes
    ----------
    node_id:
        Unique integer id; assigned in insertion (BFS) order like
        Figure 2's numbering.
    level:
        Distance from the root; the root (slowest storage) is level 0.
    device:
        The memory hardware behind this node.
    parent:
        Parent node, ``None`` for the root.
    uplink:
        The interconnect on the edge toward the parent (``None`` for the
        root).
    processors:
        Attached compute elements.  A node with processors where
        recursion bottoms out launches kernels; an APU leaf carries both
        the CPU and the GPU.
    plan:
        The last :class:`~repro.plan.lower.LevelPlan` lowered at this
        node (Listing 1's ``work_queue``): its chunks' progress states
        are the level's task queue.  ``None`` until a level runs here.
    """

    node_id: int
    level: int
    device: Device
    parent: "TreeNode | None" = None
    uplink: Link | None = None
    processors: list["Processor"] = field(default_factory=list)
    children: list["TreeNode"] = field(default_factory=list)
    plan: Any = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def storage_type(self) -> StorageKind:
        """The ``storage_type`` field of ``memory_t``."""
        return self.device.kind

    @property
    def name(self) -> str:
        return self.device.name

    @property
    def capacity(self) -> int:
        return self.device.capacity

    @property
    def used(self) -> int:
        return self.device.used_bytes

    @property
    def free(self) -> int:
        return self.device.free_bytes

    def has_processor(self) -> bool:
        return bool(self.processors)

    def processor_named(self, name: str) -> "Processor":
        for p in self.processors:
            if p.name == name:
                return p
        raise KeyError(f"node {self.node_id} has no processor named {name!r}")

    def path_to_root(self) -> list["TreeNode"]:
        """This node, its parent, ..., the root (inclusive)."""
        out: list[TreeNode] = []
        cur: TreeNode | None = self
        while cur is not None:
            out.append(cur)
            cur = cur.parent
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        procs = ",".join(p.name for p in self.processors)
        return (f"TreeNode(id={self.node_id}, level={self.level}, "
                f"dev={self.device.name!r}"
                + (f", procs=[{procs}]" if procs else "") + ")")
