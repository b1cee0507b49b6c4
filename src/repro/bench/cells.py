"""Cell runners: the bench families, one scenario cell at a time.

Every runner here is a module-level ``fn(**params) -> dict`` registered
with :mod:`repro.tools.experiment.registry`, so the experiment harness
can expand a scenario matrix over it and fan cells across the
:mod:`repro.bench.parallel` pool.  Records are JSON-able; virtual
metrics sit at the top level (deterministic, regress-comparable) while
wall-clock measurements go under a ``meta`` key, which
:mod:`repro.obs.regress` ignores.

The ``benchmarks/bench_*.py`` shims run the same scenarios through
:func:`run_records` and assert the paper shapes on the records.
"""

from __future__ import annotations

from dataclasses import asdict
from time import perf_counter
from typing import Any

from repro.bench import configs, figures
from repro.errors import ConfigError
from repro.tools.experiment.registry import register

#: Every figure cell runs the committed 1/16-scale workload.
SCALE = configs.DEFAULT_SCALE


def run_records(scenario_name: str, out_dir: str, *,
                workers: int = 1) -> list[dict[str, Any]]:
    """Run a committed scenario and return its cell records in plan
    order -- the entry point the bench shims share."""
    from repro.tools.experiment.config import find_scenario, load_scenario
    from repro.tools.experiment.runner import run_scenario
    result = run_scenario(load_scenario(find_scenario(scenario_name)),
                          out_dir=out_dir, workers=workers)
    return [cell["record"] for cell in result.summary["cells"]]


# -- Figures 6/7/8/9 ----------------------------------------------------------

@register("fig6")
def fig6_cell(app: str, config: str) -> dict:
    """One Figure 6 bar: ``app`` on ``config`` (in-memory/ssd/hdd)."""
    if config == "in-memory":
        res = figures._run_baseline(app, SCALE)
    else:
        res = figures._run_app(app, figures._apu_tree_for(app, config),
                               config, SCALE)
    return {"app": app, "config": config, "makespan_s": res.makespan,
            "verified": res.verified}


@register("fig7")
def fig7_cell(app: str, storage: str) -> dict:
    """One Figure 7 breakdown: ``app`` on the 2-level APU tree."""
    res = figures._run_app(app, figures._apu_tree_for(app, storage),
                           storage, SCALE)
    return {"app": app, "storage": storage, "makespan_s": res.makespan,
            "verified": res.verified, "shares": res.breakdown.shares(),
            "dev_transfer_share": res.breakdown.dev_transfer_share}


@register("fig8")
def fig8_cell(app: str) -> dict:
    """One Figure 8 breakdown: ``app`` on the 3-level discrete-GPU tree."""
    tree = configs.scaled_dgpu_tree("hdd", flop_bound_app=(app == "gemm"))
    res = figures._run_app(app, tree, "hdd+dgpu", SCALE)
    shares = res.breakdown.shares()
    shares["dev_transfer"] = res.breakdown.dev_transfer_share
    return {"app": app, "storage": "hdd+dgpu", "makespan_s": res.makespan,
            "verified": res.verified, "shares": shares,
            "dev_transfer_share": res.breakdown.dev_transfer_share,
            "dev_transfer_busy_s": res.breakdown.dev_transfer,
            "io_busy_s": res.breakdown.io}


@register("fig9")
def fig9_cell(app: str) -> dict:
    """One Figure 9 series: project ``app``'s SSD run up the storage
    ladder and measure the remaining gap to in-memory."""
    from repro.emulator.projection import sweep
    base = figures._run_baseline(app, SCALE)
    res = figures._run_app(app, figures._apu_tree_for(app, "ssd"), "ssd",
                           SCALE)
    ssd_latency = (configs.device_spec("ssd").latency
                   / configs.BYTE_SCALE)
    projections = sweep(res.io_profile, configs.FIG9_LADDER,
                        latency=ssd_latency)
    io0, ov0 = projections[0].io_time, projections[0].overall
    return {"app": app, "verified": base.verified and res.verified,
            "in_memory_s": base.makespan,
            "io_norm": [p.io_time / io0 for p in projections],
            "overall_norm": [p.overall / ov0 for p in projections],
            "gap_to_in_memory":
                projections[-1].overall / base.makespan - 1.0}


# -- Figure 11 / the tuner's workload -----------------------------------------

def _parse_input(value: str) -> tuple[int, int]:
    try:
        m, n = value.lower().split("x")
        return int(m), int(n)
    except ValueError:
        raise ConfigError(f"fig11 input must look like '2048x512', "
                          f"got {value!r}") from None


@register("fig11")
def fig11_cell(input: str, gpu_queues: int, cpu_threads: int = 4,
               steps_per_chunk: int = configs.FIG11_STEPS_PER_CHUNK
               ) -> dict:
    """One Figure 11 point: HotSpot CPU+GPU work stealing vs GPU-only,
    with critical-path attribution of the binding resource."""
    from repro.core.stealing import StealConfig, simulate, speedup_vs_gpu_only
    from repro.obs.spans import Observer
    from repro.tools.autotune import binding_from_trace
    m, n = _parse_input(input)
    cfg = StealConfig(
        matrix_dim=m, chunk_dim=n, gpu_queues=int(gpu_queues),
        cpu_threads=int(cpu_threads),
        gpu_cells_per_s=configs.FIG11_GPU_CELLS_PER_S,
        cpu_cells_per_s=configs.FIG11_CPU_CELLS_PER_S,
        ssd_read_bw=1400e6, ssd_write_bw=600e6,
        steps_per_chunk=int(steps_per_chunk))
    observer = Observer()
    stats = simulate(cfg, observer=observer)
    binding, attribution = binding_from_trace(observer.trace)
    return {"matrix_dim": m, "chunk_dim": n, "gpu_queues": cfg.gpu_queues,
            "cpu_threads": cfg.cpu_threads,
            "steps_per_chunk": cfg.steps_per_chunk,
            "makespan_s": stats.makespan,
            "speedup": speedup_vs_gpu_only(cfg),
            "steals": stats.steals,
            "cpu_share": stats.tasks_cpu / stats.tasks_total,
            "binding": binding, "attribution": attribution}


# -- Section V-B overhead + ablations -----------------------------------------

@register("overhead")
def overhead_cell(app: str) -> dict:
    """Runtime bookkeeping share of one app (Section V-B)."""
    row = figures.runtime_overhead(SCALE, apps=(app,))[0]
    return {"app": app, "runtime_fraction": row.runtime_fraction,
            "runtime_ops": row.runtime_ops}


_ABLATIONS = {
    "gemm_reuse": figures.ablation_gemm_reuse,
    "hotspot_fusion": figures.ablation_hotspot_fusion,
    "pipeline_depth": figures.ablation_pipeline_depth,
    "blocking_size": figures.ablation_blocking_size,
}


@register("ablation")
def ablation_cell(ablation: str) -> dict:
    """One design-choice ablation family (all its variants)."""
    try:
        fn = _ABLATIONS[ablation]
    except KeyError:
        raise ConfigError(f"unknown ablation {ablation!r}; known: "
                          f"{sorted(_ABLATIONS)}") from None
    rows = fn(SCALE)
    return {"ablation": ablation, "rows": [asdict(r) for r in rows]}


@register("cache_policy")
def cache_policy_cell() -> dict:
    """The buffer-cache policy ablation (all apps x variants)."""
    rows = figures.ablation_cache_policies(SCALE)
    return {"rows": [asdict(r) for r in rows]}


# -- Forward-looking analyses -------------------------------------------------

@register("future_generation")
def future_generation_cell(app: str, storage: str) -> dict:
    """One (app, storage generation) slowdown point (Section V-D)."""
    base = figures._run_baseline(app, SCALE)
    res = figures._run_app(app, figures._apu_tree_for(app, storage),
                           storage, SCALE)
    return {"app": app, "storage": storage,
            "verified": base.verified and res.verified,
            "slowdown": res.makespan / base.makespan}


@register("future_spmv")
def future_spmv_cell() -> dict:
    """SpMV sharding strategy vs input structure (Section IV-C)."""
    from repro.bench.future import spmv_input_structures
    rows = spmv_input_structures(SCALE)
    return {"rows": [asdict(r) for r in rows]}


# -- Library apps -------------------------------------------------------------

@register("library_reduce")
def library_reduce_cell(storage: str, n: int = 2_000_000) -> dict:
    """Out-of-core reduction: one storage generation."""
    import numpy as np
    from repro.apps.reduce import ReduceApp
    from repro.core.system import System
    from repro.sim.trace import Phase
    system = System(configs.scaled_apu_tree(storage))
    try:
        app = ReduceApp(system, n=int(n), op="l2", seed=2019)
        app.run(system)
        verified = app.result() == np.float64(app.reference())
        bd = system.breakdown()
        return {"storage": storage, "n": int(n),
                "makespan_s": system.makespan(), "verified": bool(verified),
                "io_read_bytes": bd.bytes_by_phase.get(Phase.IO_READ, 0),
                "io_write_bytes": bd.bytes_by_phase.get(Phase.IO_WRITE, 0)}
    finally:
        system.close()


@register("library_sort")
def library_sort_cell(staging_divisor: int, n: int = 1_000_000) -> dict:
    """External merge sort under a shrunken staging budget."""
    import numpy as np
    from repro.apps.sort import SortApp
    from repro.core.system import System
    from repro.sim.trace import Phase
    system = System(configs.scaled_apu_tree(
        "ssd", staging_bytes=configs.STAGING_BYTES // int(staging_divisor)))
    try:
        app = SortApp(system, n=int(n), seed=2019)
        app.run(system)
        verified = np.array_equal(app.result(), app.reference())
        bd = system.breakdown()
        return {"staging_divisor": int(staging_divisor), "n": int(n),
                "makespan_s": system.makespan(), "verified": bool(verified),
                "io_read_bytes": bd.bytes_by_phase.get(Phase.IO_READ, 0),
                "runs": len(app.runs)}
    finally:
        system.close()


# -- Framework hot-path ops (wall-clock; record lives under meta) -------------

def framework_op(system, op: str):
    """A zero-arg callable performing one hot-path framework op --
    shared between the scenario cell below and the pytest-benchmark
    shim in ``benchmarks/bench_framework_ops.py``."""
    from repro.compute.processor import KernelCost
    from repro.memory.units import KB, MB
    leaf = system.tree.leaves()[0]
    root = system.tree.root
    if op == "alloc_release":
        def fn():
            h = system.alloc(64 * KB, leaf)
            system.release(h)
        return fn
    if op == "move_64k":
        src = system.alloc(64 * KB, root)
        dst = system.alloc(64 * KB, leaf)
        return lambda: system.move_down(dst, src, 64 * KB)
    if op == "move_2d":
        src = system.alloc(1 * MB, root)
        dst = system.alloc(64 * 1024, leaf)
        return lambda: system.move_2d(
            dst, src, rows=64, row_bytes=1024, src_offset=0,
            src_stride=4096, dst_offset=0, dst_stride=1024)
    if op == "kernel_launch":
        gpu = leaf.processor_named("gpu-apu")
        buf = system.alloc(4 * KB, leaf)
        cost = KernelCost(flops=1e6, bytes_read=4096)
        return lambda: system.launch(gpu, cost, reads=(buf,))
    if op == "map_region":
        parent = system.alloc(1 * MB, leaf)

        def fn():
            w = system.map_region(parent, 1024, 4096)
            system.release(w)
        return fn
    raise ConfigError(f"unknown framework op {op!r}")


@register("framework_op")
def framework_op_cell(op: str, rounds: int = 200) -> dict:
    """Wall-clock cost of one hot-path framework operation."""
    from repro.core.system import System
    from repro.memory.units import MB
    from repro.topology.builders import apu_two_level
    system = System(apu_two_level(storage_capacity=256 * MB,
                                  staging_bytes=64 * MB))
    try:
        fn = framework_op(system, op)
        samples = []
        for _ in range(int(rounds)):
            system.reset_time()
            t0 = perf_counter()
            fn()
            samples.append(perf_counter() - t0)
        samples.sort()
        return {"op": op, "rounds": int(rounds),
                "meta": {"p50_ns": round(samples[len(samples) // 2] * 1e9),
                         "min_ns": round(samples[0] * 1e9)}}
    finally:
        system.close()


# -- Pipelined vs in-order scheduling -----------------------------------------

def _hotspot_run(scheduler, storage: str, staging_bytes: int,
                 **app_kw) -> tuple[float, bytes]:
    """One HotSpot run; ``(virtual makespan, result bytes)``."""
    import numpy as np
    from repro.apps.hotspot import HotspotApp
    from repro.core.system import System
    system = System(configs.scaled_apu_tree(storage,
                                            staging_bytes=staging_bytes))
    try:
        app = HotspotApp(system, seed=5, **app_kw)
        app.run(system, scheduler=scheduler)
        return system.makespan(), np.asarray(app.result()).tobytes()
    finally:
        system.close()


@register("pipeline")
def pipeline_cell(case: str, storage: str, steps_per_pass: int,
                  pipeline_depth: int, iterations: int, n: int,
                  staging_bytes: int) -> dict:
    """One starved-channel case: the pipelined scheduler's overlap win
    over in-order replay of the same HotSpot plan.

    The hdd/ssd-class devices share one half-duplex ``{dev}.ch``
    resource.  In program order chunk k's ``move_up`` books the channel
    where only a compute-sized gap is left -- too short for chunk
    k+1's ``move_down`` whenever compute is shorter than the transfer.
    The pipelined order (combine ranked before move_up in
    :data:`repro.plan.graph.STAGE_RANK`) releases the window edge first,
    so the next descent books back-to-back and the channel stays busy.
    """
    from repro.core.scheduler import InOrderScheduler, PipelinedScheduler
    kw = dict(n=n, iterations=iterations, steps_per_pass=steps_per_pass,
              pipeline_depth=pipeline_depth)
    inorder_mk, inorder_out = _hotspot_run(InOrderScheduler(), storage,
                                           staging_bytes, **kw)
    pipe_mk, pipe_out = _hotspot_run(PipelinedScheduler(), storage,
                                     staging_bytes, **kw)
    assert pipe_out == inorder_out, (
        f"{case}: pipelined schedule changed the result bytes")
    return {"case": case, "storage": storage, **kw,
            "staging_bytes": staging_bytes,
            "inorder_makespan_s": inorder_mk,
            "pipelined_makespan_s": pipe_mk,
            "speedup": round(inorder_mk / pipe_mk, 3),
            "results_identical": True}


# -- Multi-tenant serving -----------------------------------------------------

@register("serve_policy")
def serve_policy_cell(policy: str, seed: int = 0) -> dict:
    """The committed job stream served under one scheduling policy,
    every job verified against its solo in-order run."""
    from repro.serve import bench as serve_bench
    return serve_bench.run_policy(policy, seed=int(seed),
                                  oracle=serve_bench.SoloOracle())


# -- Distributed execution ----------------------------------------------------

def _dist_gemm(sys_):
    from repro.apps.gemm import GemmApp
    return GemmApp(sys_, m=128, k=128, n=128, seed=3)


def _dist_hotspot(sys_):
    from repro.apps.hotspot import HotspotApp
    return HotspotApp(sys_, n=96, iterations=2, seed=4)


def _dist_spmv(sys_):
    from repro.apps.spmv import SpmvApp
    from repro.workloads.sparse import powerlaw_rows
    return SpmvApp(sys_, matrix=powerlaw_rows(3000, 3000, alpha=1.5,
                                              max_row=512, seed=3),
                   seed=3)


def _dist_sort(sys_):
    from repro.apps.sort import SortApp
    return SortApp(sys_, n=40_000, seed=3)


def _small_tree(storage_mb: int, staging_kb: int):
    from repro.memory.units import KB, MB
    from repro.topology.builders import apu_two_level
    return apu_two_level(storage_capacity=storage_mb * MB,
                         staging_bytes=staging_kb * KB)


#: ``app -> (make_app(system), make_tree())``: the backend-equivalence
#: suite's configurations, small enough to fork a worker pool per case.
DIST_APP_CASES = {
    "gemm": (_dist_gemm, lambda: _small_tree(8, 256)),
    "hotspot": (_dist_hotspot, lambda: _small_tree(16, 128)),
    "spmv": (_dist_spmv, lambda: _small_tree(16, 128)),
    "sort": (_dist_sort, lambda: _small_tree(16, 128)),
}

#: Worker counts of a projected scaling curve, its modeled network
#: channel and the partitioning strategy of both distributed sections.
DIST_LADDER = (1, 2, 4, 8)
DIST_CHANNEL = "loopback"
DIST_STRATEGY = "chunk"


def run_dist_app(name: str, *, executor=None, scheduler=None):
    """One :data:`DIST_APP_CASES` run; ``(result sha256, makespan, trace
    intervals)``.  ``executor`` instances are caller-owned, closed here."""
    import hashlib

    import numpy as np
    from repro.core.system import System
    make_app, make_tree = DIST_APP_CASES[name]
    sys_ = System(make_tree(), executor=executor)
    try:
        app = make_app(sys_)
        app.run(sys_, scheduler=scheduler)
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        return digest, sys_.makespan(), len(sys_.timeline.trace)
    finally:
        sys_.close()
        if executor is not None:
            executor.close()


def _dist_equivalence(app: str, workers: int) -> dict:
    """``app`` under the distributed scheduler + worker-process executor
    (network disabled): byte-identical result, bit-identical virtual
    makespan and trace shape vs the in-order inline run, or it raises."""
    from repro.dist import DistExecutor, DistributedScheduler, dist_residue
    reference = run_dist_app(app)
    sched = DistributedScheduler(strategy=DIST_STRATEGY)
    got = run_dist_app(app, executor=DistExecutor(workers=workers),
                       scheduler=sched)
    for what, ref, new in zip(("result bytes", "virtual makespan",
                               "trace shape"), reference, got):
        assert new == ref, (f"{app} x{workers} distributed changed the "
                            f"{what}: {new} != {ref}")
    residue = dist_residue()
    assert not residue, f"leaked dist worker processes: {residue}"
    return {"app": app, "workers": workers, "makespan_s": got[1],
            "result_identical": True, "makespan_identical": True,
            "trace_identical": True, "dist_residue": residue,
            "meta": {"partitioning": sched.partitionings[0].stats()}}


def _dist_scaling(app: str) -> dict:
    """``app``'s projected worker-count curve: one in-order run, its
    measured per-node costs list-scheduled onto 1..N worker lanes over
    the modeled network channel.  No timing: deterministic."""
    from repro.core.scheduler import InOrderScheduler
    from repro.core.system import System
    from repro.dist.model import project_run
    from repro.memory.network import NETWORK_PRESETS
    channel = NETWORK_PRESETS[DIST_CHANNEL]
    make_app, make_tree = DIST_APP_CASES[app]
    sched = InOrderScheduler(keep_plans=True)
    sys_ = System(make_tree())
    try:
        make_app(sys_).run(sys_, scheduler=sched)
        rows = [project_run(sched.plans, workers=w, channel=channel,
                            strategy=DIST_STRATEGY).row()
                for w in DIST_LADDER]
    finally:
        sys_.close()
    return {"app": app, "channel": channel.describe(), "rows": rows,
            "serial_s": rows[0]["makespan_s"]}


@register("distributed")
def distributed_cell(section: str, app: str, workers: int = 0) -> dict:
    """One distributed-scaling cell: an ``equivalence`` case of ``app``
    on ``workers`` processes, or ``app``'s projected ``scaling`` curve."""
    if section == "equivalence":
        return _dist_equivalence(app, int(workers))
    if section == "scaling":
        return _dist_scaling(app)
    raise ConfigError(f"unknown distributed section {section!r}; known: "
                      f"equivalence, scaling")
