"""Describe machines and devices from the command line.

Examples::

    python -m repro.tools.describe --list
    python -m repro.tools.describe --topology apu
    python -m repro.tools.describe --topology figure2
    python -m repro.tools.describe --devices
    python -m repro.tools.describe --processors
    python -m repro.tools.describe --cache apu
    python -m repro.tools.describe --cache dgpu --cache-policy oracle
    python -m repro.tools.describe --obs apu
    python -m repro.tools.describe --exec
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


def _print_cache(name: str, policy: str) -> int:
    """Show a topology's per-node cache budgets, then run a small
    HotSpot workload on it and print the post-run cache statistics."""
    if name not in TOPOLOGIES:
        print(f"unknown topology {name!r}; known: {sorted(TOPOLOGIES)}",
              file=sys.stderr)
        return 2
    from repro.apps.hotspot import HotspotApp
    from repro.cache.manager import CacheConfig
    from repro.core.system import System

    try:
        cfg = CacheConfig(mode="full", policy=policy)
    except NorthupError as exc:
        print(f"invalid cache config: {exc}", file=sys.stderr)
        return 2
    _description, factory = TOPOLOGIES[name]
    system = System(factory(), cache=cfg)
    try:
        print(f"{name}: buffer-cache configuration")
        print(system.cache.describe())
        print()
        print("after a HotSpot demo run (n=128, 4 passes):")
        app = HotspotApp(system, n=128, iterations=4, steps_per_pass=1,
                         force_tile=64, seed=1)
        app.run(system)
        print(system.cache.describe())
    except NorthupError as exc:
        print(f"demo run failed on {name!r}: {exc}", file=sys.stderr)
        return 1
    finally:
        system.close()
    return 0


def _print_obs(name: str) -> int:
    """Run a small instrumented HotSpot pass on a topology and print the
    full observability story: RunReport (breakdown + critical path +
    span tree) and the metrics snapshot."""
    if name not in TOPOLOGIES:
        print(f"unknown topology {name!r}; known: {sorted(TOPOLOGIES)}",
              file=sys.stderr)
        return 2
    from repro.apps.hotspot import HotspotApp
    from repro.core.system import System
    from repro.obs.report import RunReport

    _description, factory = TOPOLOGIES[name]
    system = System(factory())
    try:
        app = HotspotApp(system, n=128, iterations=2, steps_per_pass=1,
                         force_tile=64, seed=1)
        app.run(system)
        report = RunReport.from_system(system, name=f"hotspot@{name}")
        print(report.table())
        print()
        print("metrics (prometheus text format):")
        print(system.metrics.to_prometheus())
    except NorthupError as exc:
        print(f"demo run failed on {name!r}: {exc}", file=sys.stderr)
        return 1
    finally:
        system.close()
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
        system = System(factory())
        try:
            app = make(system)
            sched = InOrderScheduler(keep_plans=True)
            app.run(system, scheduler=sched)
        except NorthupError as exc:
            print(f"  {app_name}: demo run failed: {exc}", file=sys.stderr)
            system.close()
            continue
        try:
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
        finally:
            system.close()
    return 0


def _print_serve() -> int:
    """Stand up a demo :class:`~repro.serve.service.JobService`, pause
    it mid-stream, and print the live runtime state: policy, admission
    limits, tenant quotas, queue depths, per-job grant counts."""
    from repro.core.system import System
    from repro.bench import configs
    from repro.serve import (Arrival, JobService, JobSpec, ServeConfig,
                             TenantQuota, known_apps)

    print("serve runtime (demo stream, paused mid-serve):")
    print(f"  apps: {' '.join(known_apps())}")
    system = System(configs.scaled_apu_tree("ssd"))
    try:
        service = JobService(system, ServeConfig(
            policy="fair", seed=0, max_pending=8, max_live_per_tenant=2,
            quotas={"acme": TenantQuota(weight=2.0,
                                        cache_reservation=64 * 1024),
                    "beta": TenantQuota(alloc_bytes=4 << 20, weight=1.0)}))
        stream = [
            Arrival(0.0, JobSpec("sort", tenant="acme",
                                 params=dict(n=20_000, seed=1))),
            Arrival(0.0, JobSpec("spmv", tenant="beta",
                                 params=dict(nrows=512, seed=2))),
            Arrival(0.0, JobSpec("hotspot", tenant="beta", priority=1,
                                 params=dict(n=64, iterations=1, seed=3,
                                             force_tile=32))),
        ]
        # Drive the loop by hand for a few grants so describe() shows a
        # *live* queue instead of an empty finished one.
        for arrival in stream:
            service.submit(arrival.spec, vt=arrival.vt)
        for job in service.admission.admit_ready(service.live):
            service._start(job)
        for _ in range(4):
            offering = [j for j in service.live if not j.gate.done]
            if not offering:
                break
            service._grant(service.policy.select(offering))
        print()
        print(service.describe())
        print()
        print("(resuming to completion)")
        service.drain()
        print(service.describe())
    except NorthupError as exc:
        print(f"serve demo failed: {exc}", file=sys.stderr)
        return 1
    finally:
        system.close()
    return 0


def _print_exec() -> int:
    """Run a small GEMM once per compute backend and print each
    executor's config, occupancy counters, and the cross-backend
    equivalence check (byte-identical bytes, bit-identical makespan)."""
    import hashlib

    import numpy as np

    from repro.apps.gemm import GemmApp
    from repro.core.system import System
    from repro.exec import make_executor, shm_residue
    from repro.memory.units import KB, MB

    print("compute backends (demo: gemm 128x128x128 per backend):")
    reference: dict | None = None
    for backend in EXEC_BACKENDS:
        # The executor is caller-owned (System only closes executors it
        # built itself), so close it after the system in all cases.
        executor = make_executor(backend, workers=2)
        system = System(builders.apu_two_level(storage_capacity=8 * MB,
                                               staging_bytes=256 * KB),
                        executor=executor)
        try:
            app = GemmApp(system, m=128, k=128, n=128, seed=3)
            app.run(system)
            digest = hashlib.sha256(
                np.ascontiguousarray(app.result()).tobytes()).hexdigest()
            stats = system.executor.stats
            print(f"\n  {system.executor.describe()}")
            print(f"    kernels: {stats.completed} submitted/completed, "
                  f"dispatch {stats.dispatch_seconds:.4f}s, "
                  f"merge {stats.merge_seconds:.4f}s")
            if stats.worker_busy:
                busy = " ".join(f"{w}={s:.4f}s"
                                for w, s in sorted(stats.worker_busy.items()))
                print(f"    worker busy: {busy}")
            print(f"    makespan {system.makespan():.6f}s (virtual), "
                  f"result sha256 {digest[:16]}...")
            if reference is None:
                reference = {"digest": digest,
                             "makespan": system.makespan()}
            else:
                ok = (digest == reference["digest"]
                      and system.makespan() == reference["makespan"])
                print(f"    matches inline: "
                      f"{'yes (bytes + virtual time)' if ok else 'NO'}")
        except NorthupError as exc:
            print(f"  {backend}: demo run failed: {exc}", file=sys.stderr)
            return 1
        finally:
            system.close()
            executor.close()
    residue = shm_residue()
    print(f"\n  shared-memory residue after teardown: "
          f"{residue if residue else 'none'}")
    return 0


def _print_dist() -> int:
    """Run a small GEMM under the distributed scheduler with a modeled
    network and print the partitioning, boundary edges, shipment
    charges, and the channel presets."""
    from repro.core.system import System
    from repro.dist import DistExecutor, DistributedScheduler, dist_residue
    from repro.dist.protocol import WIRE_FORMAT
    from repro.memory.network import NETWORK_PRESETS
    from repro.memory.units import KB, MB

    print("network channel presets:")
    for name, ch in sorted(NETWORK_PRESETS.items()):
        print(f"  {name:<10} {ch.bandwidth / 1e9:.1f} GB/s, "
              f"latency {ch.latency * 1e6:.1f}us, "
              f"per-message {ch.per_message * 1e6:.1f}us"
              f"{'' if ch.duplex else ', half-duplex'}")

    from repro.apps.gemm import GemmApp
    tree = builders.apu_two_level(storage_capacity=8 * MB,
                                  staging_bytes=256 * KB)
    tree.attach_network(NETWORK_PRESETS["loopback"])
    executor = DistExecutor(workers=2)
    sched = DistributedScheduler(keep_plans=True)
    system = System(tree, executor=executor)
    try:
        print("\ndistributed demo (gemm 128x128x128, 2 workers, "
              "loopback network):")
        print(tree.render())
        app = GemmApp(system, m=128, k=128, n=128, seed=3)
        app.run(system, scheduler=sched)
        parts = sched.partitionings[0]
        stats = parts.stats()
        print(f"  partitioning: {stats['workers']} partitions "
              f"({stats['strategy']}), nodes per partition "
              f"{stats['nodes_per_partition']}")
        print(f"  boundary edges: {stats['boundary_edges']} "
              f"({stats['boundary_by_kind']})")
        net = sched.plans[0].graph.meta.get("network")
        if net:
            print(f"  network: {net['shipments']} shipments, "
                  f"{net['bytes']} payload bytes, "
                  f"{net['seconds'] * 1e6:.1f}us charged on "
                  f"{net['channel']['name']}")
        print(f"  makespan {system.makespan():.6f}s (virtual); per-worker "
              f"kernels: {dict(sorted(executor.stats.worker_tasks.items()))}")
        print(f"  wire format: {WIRE_FORMAT}")
        shipped = {f"w{i}": n for i, n in enumerate(executor.shipped_bytes)}
        print(f"  operand bytes shipped per worker: {shipped} "
              f"(exec.bytes_in {executor.stats.bytes_in}); "
              f"{executor.stats.bytes_out} output bytes came back")
    except NorthupError as exc:
        print(f"dist demo failed: {exc}", file=sys.stderr)
        return 1
    finally:
        system.close()
        executor.close()
    residue = dist_residue()
    print(f"  worker-process residue after teardown: "
          f"{residue if residue else 'none'}")
    return 0


def _print_phys() -> int:
    """Run a small telemetry-on distributed GEMM and print the physical
    plane: per-worker sub-phases, utilization, and the watchdog's
    verdicts."""
    from repro.core.system import System
    from repro.dist import DistExecutor, DistributedScheduler, dist_residue
    from repro.obs.health import Watchdog

    from repro.apps.gemm import GemmApp
    executor = DistExecutor(workers=2, telemetry=True)
    system = System(builders.apu_two_level(), executor=executor)
    try:
        print("physical telemetry demo (gemm 128x128x128, 2 workers, "
              "telemetry on):")
        app = GemmApp(system, m=128, k=128, n=128, seed=3)
        app.run(system, scheduler=DistributedScheduler())
        tel = executor.telemetry
        summary = tel.summary()
        print(f"  backend {summary['backend']}: {summary['tasks']} "
              f"tasks, busy skew {summary['busy_skew']:.2f}x, "
              f"stragglers {summary['stragglers'] or 'none'}")
        for worker, st in sorted(summary["workers"].items()):
            phases = "  ".join(f"{k}={v * 1e3:.3f}ms"
                               for k, v in sorted(st["phases"].items()))
            print(f"  {worker}: {st['tasks']} tasks, "
                  f"util {st['utilization']:.1%}, "
                  f"rss {st['rss_max_bytes'] // (1 << 20)} MiB | {phases}")
        verdicts = Watchdog().summary(executor.silent_since())
        states = {w: h["state"] for w, h in verdicts["workers"].items()}
        print(f"  watchdog: {states} (counts {verdicts['counts']})")
        merger = tel.merger()
        print(f"  merged trace: {len(merger.records())} records, "
              f"{len(merger.kernel_anchors())} span-attributed kernels")
    except NorthupError as exc:
        print(f"phys demo failed: {exc}", file=sys.stderr)
        return 1
    finally:
        system.close()
        executor.close()
    residue = dist_residue()
    print(f"  residue after teardown: {residue if residue else 'none'}")
    return 0


def _print_tuning() -> int:
    """Explain the two tuning layers and run a small live demo of each:
    the AdaptiveDispatcher's observed-rate policy and the
    critical-path-guided Autotuner."""
    from repro.tools.autotune import (CATEGORIES, Autotuner, Evaluation,
                                      classify_resource)
    from repro.tools.experiment.config import KnobSpec

    print("tuning layers:")
    print("  1. AdaptiveDispatcher (repro.core.stealing): per-chunk "
          "dispatch by observed worker rates;")
    print("     deterministic contract: under tied observed rates the "
          "first-registered worker wins")
    print("     (registration order, not dict or arrival order).")
    print("  2. Autotuner (repro.tools.autotune): offline knob search "
          "guided by critical-path attribution.")
    print()
    print(f"resource categories: {', '.join(CATEGORIES)}")
    for resource in ("workers", "gpu0", "cpu1", "ssd.ch", "net0.tx",
                     "cache", "runtime"):
        print(f"  {resource:<10} -> {classify_resource(resource)}")
    print()
    print("search loop: attribute critical path -> pick knobs declared "
          "to relieve the binding")
    print("category -> hill-climb (radius 1, then 2) -> stop when no "
          "neighbour improves or the")
    print("evaluation budget (default half the grid) is spent.")
    print()

    # Live demo on an analytic bowl: best at (x=4, y=8).
    knobs = [KnobSpec(name="x", values=(1, 2, 4, 8),
                      relieves=("compute",)),
             KnobSpec(name="y", values=(2, 4, 8),
                      relieves=("channel",))]

    def bowl(params):
        score = (-(params["x"] - 4) ** 2 - (params["y"] - 8) ** 2)
        return Evaluation(params=params, score=float(score),
                          binding="compute", attribution={"compute": 1.0},
                          record={"score": score})

    tuner = Autotuner(knobs, bowl, goal="max", seed=0, budget=8)
    result = tuner.tune()
    print(f"demo: maximize -(x-4)^2 - (y-8)^2 over a "
          f"{result.grid_size}-point grid")
    print(f"  best {result.best.params} (score {result.best.score:g}) "
          f"after {result.evaluated} evaluations "
          f"({result.coverage:.0%} of the grid), "
          f"converged={result.converged}")
    print()
    print("scenario hook: a [tuner] table in a scenario TOML (see "
          "benchmarks/scenarios/fig11_autotune.toml)")
    print("runs this search over real cells and writes tuned.json into "
          "the artifact dir.")
    return 0


def _print_devices() -> int:
    print("device catalog (calibrated to the paper's Section V-A parts):")
    for name in catalog.names():
        print(f"  {name:<10} {catalog.spec(name).describe()}")
    return 0


def _print_processors() -> int:
    print("processor registry:")
    for name in registry.names():
        p = registry.make_processor(name)
        print(f"  {name:<10} {p.kind.value}, {p.peak_gflops:.0f} GFLOP/s, "
              f"{p.mem_bw / 1e9:.0f} GB/s attached memory")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.describe",
        description="Render Northup topologies and hardware catalogs.")
    parser.add_argument("--topology", metavar="NAME",
                        help=f"render one of {sorted(TOPOLOGIES)}")
    parser.add_argument("--spec", metavar="FILE.json",
                        help="render a machine from a JSON topology spec")
    parser.add_argument("--list", action="store_true",
                        help="list available topologies")
    parser.add_argument("--devices", action="store_true",
                        help="print the device catalog")
    parser.add_argument("--processors", action="store_true",
                        help="print the processor registry")
    parser.add_argument("--cache", metavar="NAME",
                        help="show per-node cache budgets on a topology "
                             "and the stats of a small demo run")
    parser.add_argument("--cache-policy", metavar="POLICY", default="lru",
                        help="eviction policy for --cache "
                             "(lru, lfu, cost, oracle; default lru)")
    parser.add_argument("--obs", metavar="NAME",
                        help="run a small instrumented demo on a topology "
                             "and print its RunReport (breakdown, critical "
                             "path, span tree) and metrics snapshot")
    parser.add_argument("--serve", action="store_true",
                        help="stand up a demo multi-tenant job service "
                             "and print its runtime config, tenant "
                             "quotas, admission limits, and live "
                             "queue state")
    parser.add_argument("--exec", action="store_true", dest="exec_",
                        help="run a small demo on every compute backend "
                             f"({', '.join(EXEC_BACKENDS)}) and print "
                             "executor configs, worker occupancy, and the "
                             "cross-backend equivalence check")
    parser.add_argument("--dist", action="store_true",
                        help="run a small demo under the distributed "
                             "scheduler (2 pinned worker processes, "
                             "modeled loopback network) and print the "
                             "partitioning, boundary edges, shipment "
                             "charges, and channel presets")
    parser.add_argument("--phys", action="store_true",
                        help="run a small telemetry-on distributed demo "
                             "and print the physical plane: per-worker "
                             "sub-phases, utilization, "
                             "watchdog verdicts")
    parser.add_argument("--tuning", action="store_true",
                        help="explain the tuning layers (AdaptiveDispatcher "
                             "rate policy, critical-path-guided Autotuner) "
                             "and run a small live search demo")
    parser.add_argument("--plan", metavar="NAME", nargs="?", const="apu",
                        help="lower the example programs on a topology "
                             "(default apu) and dump each level's task "
                             "graph: nodes per kind, edges per kind, "
                             "critical-path depth")
    args = parser.parse_args(argv)

    if args.list:
        for name, (description, _f) in sorted(TOPOLOGIES.items()):
            print(f"{name:<12} {description}")
        return 0
    if args.topology:
        return _print_topology(args.topology)
    if args.spec:
        return _print_spec(args.spec)
    if args.devices:
        return _print_devices()
    if args.processors:
        return _print_processors()
    if args.cache:
        return _print_cache(args.cache, args.cache_policy)
    if args.obs:
        return _print_obs(args.obs)
    if args.serve:
        return _print_serve()
    if args.exec_:
        return _print_exec()
    if args.dist:
        return _print_dist()
    if args.phys:
        return _print_phys()
    if args.tuning:
        return _print_tuning()
    if args.plan:
        return _print_plan(args.plan)
    parser.print_help()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
