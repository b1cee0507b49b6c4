"""Declarative topology construction.

A topology spec is a nested dict -- the Python analogue of the paper's
"maintained by system software" path, where the machine shape arrives
from outside the program:

.. code-block:: python

    spec = {
        "device": "ssd", "capacity": "4GB",
        "children": [{
            "device": "dram", "capacity": "2GB",
            "processors": ["cpu", "gpu-apu"],
        }],
    }
    tree = build_from_spec(spec)

Recognised keys per node: ``device`` (catalog name, required),
``capacity`` (int bytes or a string like ``"2GB"``), ``instance``
(device instance label), ``processors`` (list of registry names or
``{"kind": ..., "name": ...}`` dicts), ``backend`` (``"mem"`` or
``"file:<dir>"``), ``children`` (list of node specs).
"""

from __future__ import annotations

from typing import Any

from repro.compute.registry import make_processor
from repro.errors import ConfigError
from repro.memory.backends import DataBackend, FileBackend, MemBackend
from repro.memory.catalog import make_device
from repro.memory.units import parse_size
from repro.topology.node import TreeNode
from repro.topology.tree import TopologyTree
from repro.topology.validate import validate_tree

_ALLOWED_KEYS = {"device", "capacity", "instance", "processors", "backend",
                 "children"}
_PROCESSOR_KEYS = {"kind", "name"}


def _parse_capacity(value: Any, where: str) -> int | None:
    if value is None:
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        if value <= 0:
            raise ConfigError(f"{where}: capacity must be positive, got {value}")
        return value
    if isinstance(value, str):
        try:
            return parse_size(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: capacity must be int or string, got "
                      f"{type(value).__name__}")


def _make_backend(value: Any, where: str) -> DataBackend:
    if value is None or value == "mem":
        return MemBackend()
    if isinstance(value, str) and value.startswith("file:"):
        path = value[len("file:"):]
        if not path:
            raise ConfigError(f"{where}: file backend needs a directory "
                              f"('file:/tmp/dir')")
        return FileBackend(path)
    raise ConfigError(f"{where}: unknown backend {value!r}; use 'mem' or "
                      f"'file:<dir>'")


def _make_processors(value: Any, where: str) -> list:
    if value is None:
        return []
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: processors must be a list")
    procs = []
    for i, item in enumerate(value):
        if isinstance(item, str):
            procs.append(make_processor(item))
        elif isinstance(item, dict):
            unknown = set(item) - _PROCESSOR_KEYS
            if unknown:
                raise ConfigError(f"{where}: processor #{i} has unknown keys "
                                  f"{sorted(unknown)}; allowed: "
                                  f"{sorted(_PROCESSOR_KEYS)}")
            kind, name = item.get("kind"), item.get("name")
            if not isinstance(kind, str):
                raise ConfigError(f"{where}: processor #{i} needs a 'kind'")
            if name is not None and not isinstance(name, str):
                raise ConfigError(f"{where}: processor #{i} name must be a "
                                  f"string")
            procs.append(make_processor(kind, name=name))
        else:
            raise ConfigError(f"{where}: processor #{i} must be a name or a "
                              f"dict, got {type(item).__name__}")
    return procs


def build_from_spec(spec: dict, *, validate: bool = True) -> TopologyTree:
    """Build (and by default validate) a tree from a nested dict spec."""
    if not isinstance(spec, dict):
        raise ConfigError(f"topology spec must be a dict, got "
                          f"{type(spec).__name__}")
    tree = TopologyTree()
    counters: dict[str, int] = {}

    def add(node_spec: dict, parent: TreeNode | None, path: str) -> None:
        if not isinstance(node_spec, dict):
            raise ConfigError(f"{path}: node spec must be a dict")
        unknown = set(node_spec) - _ALLOWED_KEYS
        if unknown:
            raise ConfigError(f"{path}: unknown keys {sorted(unknown)}; "
                              f"allowed: {sorted(_ALLOWED_KEYS)}")
        dev_name = node_spec.get("device")
        if not isinstance(dev_name, str):
            raise ConfigError(f"{path}: every node needs a 'device' name")
        instance = node_spec.get("instance")
        if instance is not None and not isinstance(instance, str):
            raise ConfigError(f"{path}: instance must be a string")
        children = node_spec.get("children")
        if children is None:
            children = []
        elif not isinstance(children, list):
            raise ConfigError(f"{path}: children must be a list")
        if instance is None:
            # Auto-number repeated device types so names stay unique.
            idx = counters.get(dev_name, 0)
            counters[dev_name] = idx + 1
            instance = f"{dev_name}.{idx}"
        device = make_device(
            dev_name,
            capacity=_parse_capacity(node_spec.get("capacity"), path),
            instance=instance,
            backend=_make_backend(node_spec.get("backend"), path),
        )
        node = tree.add_node(device, parent=parent,
                             processors=_make_processors(
                                 node_spec.get("processors"), path))
        for i, child in enumerate(children):
            add(child, node, f"{path}.children[{i}]")

    add(spec, None, "root")
    if validate:
        validate_tree(tree)
    return tree
