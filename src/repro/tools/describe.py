"""Describe machines and the registries they are built from.

Examples::

    python -m repro.tools.describe --list
    python -m repro.tools.describe --topology apu
    python -m repro.tools.describe --spec machine.json
    python -m repro.tools.describe --plan dgpu

``--list`` walks every name-keyed registry (topologies, devices,
processors, executor backends, network presets, eviction policies,
serve apps, sparse presets, experiment runners) and prints one line
per entry.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.compute import registry
from repro.errors import NorthupError
from repro.exec.base import EXEC_BACKENDS
from repro.memory import catalog
from repro.topology import builders
from repro.topology.spec import build_from_spec

TOPOLOGIES = {
    "apu": ("the paper's 2-level APU system (storage -> DRAM staging)",
            builders.apu_two_level),
    "dgpu": ("the 3-level discrete-GPU system (storage -> DRAM -> GDDR5)",
             builders.discrete_gpu_three_level),
    "in-memory": ("the single-level in-memory baseline",
                  builders.in_memory_single_level),
    "figure2": ("the asymmetric sample tree of Figure 2",
                builders.figure2_asymmetric),
    "exascale": ("a future node: NVM -> DRAM -> HBM -> accelerator",
                 builders.exascale_node),
    "dual-branch": ("two staging branches with one GPU each",
                    builders.dual_branch_apu),
    "cluster": ("two compute nodes behind a shared parallel filesystem",
                builders.two_node_cluster),
}


def _print_topology(name: str) -> int:
    if name not in TOPOLOGIES:
        print(f"unknown topology {name!r}; known: {sorted(TOPOLOGIES)}",
              file=sys.stderr)
        return 2
    description, factory = TOPOLOGIES[name]
    tree = factory()
    try:
        print(f"{name}: {description}")
        print(tree.render())
        print(f"levels: {tree.get_max_treelevel() + 1}, "
              f"nodes: {len(tree)}, leaves: {len(tree.leaves())}, "
              f"processors: {len(tree.processors())}")
    finally:
        tree.close()
    return 0


def _print_spec(path: str) -> int:
    """Render a machine described by a JSON topology spec file."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"cannot read {path!r}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"{path!r} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        tree = build_from_spec(spec)
    except NorthupError as exc:
        print(f"invalid topology spec: {exc}", file=sys.stderr)
        return 2
    try:
        print(f"machine from {path}:")
        print(tree.render())
        print(f"levels: {tree.get_max_treelevel() + 1}, nodes: {len(tree)}")
    finally:
        tree.close()
    return 0


def _print_plan(name: str) -> int:
    """Lower small example programs on a topology and dump each level's
    task graph: node counts per kind, edge counts per kind, and the
    critical-path depth (longest dependency chain, in nodes)."""
    if name not in TOPOLOGIES:
        print(f"unknown topology {name!r}; known: {sorted(TOPOLOGIES)}",
              file=sys.stderr)
        return 2
    from repro.apps.gemm import GemmApp
    from repro.apps.hotspot import HotspotApp
    from repro.apps.reduce import ReduceApp
    from repro.core.scheduler import InOrderScheduler
    from repro.core.system import System

    examples = [
        ("hotspot", lambda s: HotspotApp(s, n=128, iterations=2,
                                         steps_per_pass=1, force_tile=64,
                                         seed=1)),
        ("gemm", lambda s: GemmApp(s, m=96, k=96, n=96, seed=2)),
        ("reduce", lambda s: ReduceApp(s, n=1 << 16, op="sum", seed=3)),
    ]
    _description, factory = TOPOLOGIES[name]
    print(f"{name}: lowered task graphs of the example programs")
    for app_name, make in examples:
        with System(factory()) as system:
            try:
                app = make(system)
                sched = InOrderScheduler(keep_plans=True)
                app.run(system, scheduler=sched)
            except NorthupError as exc:
                print(f"  {app_name}: demo run failed: {exc}",
                      file=sys.stderr)
                continue
            print(f"\n{app_name}: {len(sched.plans)} lowered level(s)")
            for plan in sched.plans:
                s = plan.graph.stats()
                kinds = " ".join(f"{k}={v}" for k, v in
                                 sorted(s["by_kind"].items()))
                ekinds = " ".join(f"{k}={v}" for k, v in
                                  sorted(s["edges_by_kind"].items())) or "-"
                print(f"  level {s['level']} (tree node {s['tree_node']}): "
                      f"{s['nodes']} nodes [{kinds}]")
                print(f"    {s['edges']} edges [{ekinds}], "
                      f"critical depth {s['critical_depth']}, "
                      f"window {plan.graph.meta.get('window', 1)}")
    return 0


def _doc(obj) -> str:
    """First line of ``obj``'s docstring (empty without one)."""
    lines = (obj.__doc__ or "").strip().splitlines()
    return lines[0] if lines else ""


def _processor_line(name: str) -> str:
    p = registry.make_processor(name)
    return (f"{p.kind.value}, {p.peak_gflops:.0f} GFLOP/s, "
            f"{p.mem_bw / 1e9:.0f} GB/s attached memory")


def _registries():
    """Yield ``(title, [(name, description), ...])`` for every
    name-keyed registry."""
    from repro.cache.policy import _POLICIES  # make_policy's names
    from repro.memory.network import NETWORK_PRESETS
    from repro.serve.job import known_apps
    from repro.tools.experiment.registry import list_runners
    from repro.workloads import sparse

    yield "topologies", [(n, d) for n, (d, _f) in sorted(TOPOLOGIES.items())]
    yield "devices", [(n, catalog.spec(n).describe())
                      for n in catalog.names()]
    yield "processors", [(n, _processor_line(n)) for n in registry.names()]
    yield "executor backends", [(n, "") for n in EXEC_BACKENDS]
    yield "network presets", [
        (n, " ".join(f"{k}={v}" for k, v in ch.describe().items()
                     if k != "name"))
        for n, ch in sorted(NETWORK_PRESETS.items())]
    yield "eviction policies", [(n, _doc(cls))
                                for n, cls in sorted(_POLICIES.items())]
    yield "serve apps", [(n, "") for n in known_apps()]
    yield "sparse presets", [(n, sparse._PRESETS[n][1])
                             for n in sparse.preset_names()]
    yield "experiment runners", sorted(list_runners().items())


def _print_list() -> int:
    for title, entries in _registries():
        print(f"{title}:")
        width = max(len(n) for n, _d in entries)
        for name, description in entries:
            print(f"  {name:<{width}}  {description}".rstrip())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.describe",
        description="Render Northup topologies and list the registries "
                    "machines and experiments are built from.")
    parser.add_argument("--topology", metavar="NAME",
                        help=f"render one of {sorted(TOPOLOGIES)}")
    parser.add_argument("--spec", metavar="FILE.json",
                        help="render a machine from a JSON topology spec")
    parser.add_argument("--list", action="store_true",
                        help="list every registry: topologies, devices, "
                             "processors, executor backends, network "
                             "presets, eviction policies, serve apps, "
                             "sparse presets, experiment runners")
    parser.add_argument("--plan", metavar="NAME", nargs="?", const="apu",
                        help="lower the example programs on a topology "
                             "(default apu) and dump each level's task "
                             "graph: nodes per kind, edges per kind, "
                             "critical-path depth")
    args = parser.parse_args(argv)

    if args.list:
        return _print_list()
    if args.topology:
        return _print_topology(args.topology)
    if args.spec:
        return _print_spec(args.spec)
    if args.plan:
        return _print_plan(args.plan)
    parser.print_help()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
