"""Cell runners: the one producer of every committed figure.

Every runner here is a module-level ``fn(**params) -> dict`` registered
with :mod:`repro.tools.experiment.registry`, so the experiment harness
can expand a scenario matrix over it and fan cells across the
:mod:`repro.bench.parallel` pool.  Records are JSON-able; virtual
metrics sit at the top level (deterministic, regress-comparable) while
wall-clock measurements go under a ``meta`` key, which
:mod:`repro.obs.regress` ignores.

The ``benchmarks/bench_*.py`` shims run the same scenarios through
:func:`run_records`, render the records with :mod:`repro.bench.reporting`
and assert the paper shapes on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np

from repro.apps import GemmApp, HotspotApp, SpmvApp
from repro.bench import configs
from repro.compute.kernels.hotspot import (default_params, hotspot_cost,
                                           hotspot_run)
from repro.compute.processor import ProcessorKind
from repro.core.context import root_context
from repro.core.profiler import Breakdown
from repro.core.system import System
from repro.emulator.projection import IOProfile, sweep
from repro.errors import ConfigError
from repro.exec.base import Binding, kernel_spec
from repro.memory.catalog import spec as device_spec
from repro.sim.trace import Phase
from repro.tools.experiment.registry import register
from repro.workloads import thermal
from repro.workloads.matrices import load_bands
from repro.workloads.sparse import preset, preset_names

#: Every figure cell runs the committed 1/16-scale workload.
SCALE = configs.DEFAULT_SCALE


def _int(name: str, value) -> int:
    """A scenario's integer knob: an integral number, never a ``bool``
    (TOML's ``true`` is not a count) and never silently truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def run_records(scenario_name: str, out_dir: str, *,
                workers: int = 1) -> list[dict[str, Any]]:
    """Run a committed scenario and return its cell records in plan
    order -- the entry point the bench shims share."""
    from repro.tools.experiment.config import find_scenario, load_scenario
    from repro.tools.experiment.runner import run_scenario
    result = run_scenario(load_scenario(find_scenario(scenario_name)),
                          out_dir=out_dir, workers=workers)
    return [cell["record"] for cell in result.summary["cells"]]


# -- One measured Figure 6 application run ------------------------------------

@dataclass
class RunResult:
    """One measured execution and whether its result verified."""

    makespan: float
    breakdown: Breakdown
    verified: bool
    io_profile: IOProfile
    runtime_ops: int


def _measure(system: System, app_name: str, result,
             reference) -> RunResult:
    """``system``'s run of ``app_name``, verified against ``reference``
    bit for bit -- except GEMM, which keeps a tolerance: on the
    three-level discrete-GPU tree its result differs from the
    reference's in the last bits."""
    verified = bool(
        np.allclose(result, reference, rtol=1e-3, atol=1e-3)
        if app_name == "gemm" else np.array_equal(result, reference))
    breakdown = system.breakdown()
    return RunResult(makespan=system.makespan(), breakdown=breakdown,
                     verified=verified,
                     io_profile=IOProfile.from_trace(system.timeline.trace),
                     runtime_ops=system.runtime_ops)


def _spmv_matrix():
    return preset(SCALE.spmv_preset, nrows=SCALE.spmv_rows, seed=SCALE.seed)


def _run_app(app_name: str, tree) -> RunResult:
    """``app_name`` under Northup on ``tree``."""
    with System(tree) as system:
        if app_name == "gemm":
            app = GemmApp(system, m=SCALE.gemm_n, k=SCALE.gemm_n,
                          n=SCALE.gemm_n, seed=SCALE.seed)
        elif app_name == "hotspot":
            app = HotspotApp(system, n=SCALE.hotspot_n,
                             iterations=SCALE.hotspot_iterations,
                             steps_per_pass=SCALE.hotspot_steps_per_pass,
                             seed=SCALE.seed)
        elif app_name == "spmv":
            app = SpmvApp(system, matrix=_spmv_matrix(), seed=SCALE.seed)
        else:
            raise ConfigError(f"unknown app {app_name!r}")
        app.run(system)
        return _measure(system, app_name, app.result(), app.reference())


def _run_in_memory(app_name: str) -> RunResult:
    """``app_name``'s in-memory bar, Section V-B's "performance upper
    bound that Northup can achieve": the data already in DRAM.  GEMM
    and SpMV run the real app on the one-node DRAM tree; HotSpot keeps
    :func:`_hotspot_in_memory`."""
    tree = configs.scaled_inmemory_tree(flop_bound_app=(app_name == "gemm"))
    if app_name != "hotspot":
        return _run_app(app_name, tree)
    n, steps, seed = SCALE.hotspot_n, SCALE.hotspot_iterations, SCALE.seed
    with System(tree) as system:
        result = _hotspot_in_memory(system, n, steps, seed)
        return _measure(system, app_name, result, hotspot_run(
            thermal.initial_temperature(n, n, seed=seed),
            thermal.power_grid(n, n, seed=seed + 1),
            default_params(n, n), steps))


def _hotspot_in_memory(system: System, n: int, steps: int,
                       seed: int) -> np.ndarray:
    """HotSpot's Figure 6 normaliser on ``system``'s root: ``steps``
    full-grid launches on the resident grid (the Rodinia loop), the last
    of which runs all the steps.  ``HotspotApp`` on the same tree
    charges its padded, temporally blocked frames instead (43.28 vs
    41.96 ms at bench scale), so moving this bar onto it re-banks the
    figure."""
    root = system.tree.root
    temp, power, out = (system.alloc(n * n * 4, root, label=label)
                        for label in ("temp", "power", "out"))
    load_bands(system, temp,
               thermal.initial_temperature_bands(n, n, seed=seed))
    load_bands(system, power, thermal.power_grid_bands(n, n, seed=seed + 1))
    gpu = root_context(system).get_device(ProcessorKind.GPU)
    grid = (n, n)
    for step in range(steps):
        kernel = None if step < steps - 1 else kernel_spec(
            hotspot_run, Binding.read("temp", temp, np.float32, grid),
            Binding.read("power", power, np.float32, grid),
            Binding.update("out", out, np.float32, grid),
            params=default_params(n, n), steps=steps)
        system.launch(gpu, hotspot_cost(n, n), reads=(temp, power),
                      writes=(out,), kernel=kernel,
                      label=f"hotspot step {step}")
    return system.fetch(out, np.float32, shape=grid)


def _apu_tree_for(app_name: str, storage: str, **kw):
    return configs.scaled_apu_tree(storage,
                                   flop_bound_app=(app_name == "gemm"), **kw)


# -- Figures 6/7/8/9 ----------------------------------------------------------

@register("fig6")
def fig6_cell(app: str, config: str) -> dict:
    """One Figure 6 bar: ``app`` on ``config`` (in-memory/ssd/hdd)."""
    if config == "in-memory":
        res = _run_in_memory(app)
    else:
        res = _run_app(app, _apu_tree_for(app, config))
    return {"app": app, "config": config, "makespan_s": res.makespan,
            "verified": res.verified}


@register("fig7")
def fig7_cell(app: str, storage: str) -> dict:
    """One Figure 7 breakdown: ``app`` on the 2-level APU tree."""
    res = _run_app(app, _apu_tree_for(app, storage))
    return {"app": app, "storage": storage, "makespan_s": res.makespan,
            "verified": res.verified, "shares": res.breakdown.shares(),
            "dev_transfer_share": res.breakdown.dev_transfer_share}


@register("fig8")
def fig8_cell(app: str) -> dict:
    """One Figure 8 breakdown: ``app`` on the 3-level discrete-GPU tree."""
    tree = configs.scaled_dgpu_tree("hdd", flop_bound_app=(app == "gemm"))
    res = _run_app(app, tree)
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
    base = _run_in_memory(app)
    res = _run_app(app, _apu_tree_for(app, "ssd"))
    ssd_latency = device_spec("ssd").latency / configs.BYTE_SCALE
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
    from repro.core.stealing import StealConfig, gpu_only_config, simulate
    from repro.obs.spans import Observer
    from repro.tools.autotune import binding_from_trace
    m, n = _parse_input(input)
    cfg = StealConfig(
        matrix_dim=m, chunk_dim=n,
        gpu_queues=_int("gpu_queues", gpu_queues),
        cpu_threads=_int("cpu_threads", cpu_threads),
        gpu_cells_per_s=configs.FIG11_GPU_CELLS_PER_S,
        cpu_cells_per_s=configs.FIG11_CPU_CELLS_PER_S,
        ssd_read_bw=1400e6, ssd_write_bw=600e6,
        steps_per_chunk=_int("steps_per_chunk", steps_per_chunk))
    observer = Observer()
    stats = simulate(cfg, observer=observer)
    binding, attribution = binding_from_trace(observer.trace)
    return {"matrix_dim": m, "chunk_dim": n, "gpu_queues": cfg.gpu_queues,
            "cpu_threads": cfg.cpu_threads,
            "steps_per_chunk": cfg.steps_per_chunk,
            "makespan_s": stats.makespan,
            "speedup": simulate(gpu_only_config(cfg)).makespan
            / stats.makespan,
            "steals": stats.steals,
            "cpu_share": stats.tasks_cpu / stats.tasks_total,
            "binding": binding, "attribution": attribution}


# -- Section V-B overhead + ablations -----------------------------------------

@register("overhead")
def overhead_cell(app: str) -> dict:
    """Runtime bookkeeping share of one app (Section V-B), with the
    system's own count of the runtime ops it charged."""
    res = _run_app(app, _apu_tree_for(app, "ssd"))
    return {"app": app,
            "runtime_fraction": res.breakdown.runtime_overhead_fraction(),
            "runtime_ops": res.runtime_ops}


def _ablation_gemm_reuse() -> list[dict]:
    """Row-shard reuse on/off (the Section IV-A optimisation).

    Since the reuse moved from the app into the runtime's buffer cache,
    the switch is the system's cache config: "reuse" runs the default
    (explicit-fetch caching), "no-reuse" disables caching entirely.
    Tile shape is held fixed across the two variants so the comparison
    isolates the caching itself, not the chooser's different plans.
    """
    from repro.apps.gemm import choose_gemm_tiles
    from repro.cache.manager import CacheConfig
    n = SCALE.gemm_n
    tiles = choose_gemm_tiles(
        n, n, n, elem_size=4,
        budget_bytes=int(configs.STAGING_BYTES * 0.9), depth=2)
    rows = []
    for cached in (True, False):
        with System(_apu_tree_for("gemm", "ssd"),
                    cache=CacheConfig() if cached
                    else CacheConfig.disabled()) as system:
            app = GemmApp(system, m=n, k=n, n=n, seed=SCALE.seed,
                          force_tiles=tiles)
            app.run(system)
            bd = system.breakdown()
            rows.append({
                "name": "gemm-row-shard-reuse",
                "variant": "reuse" if cached else "no-reuse",
                "makespan": system.makespan(),
                "io_read_bytes": bd.bytes_by_phase.get(Phase.IO_READ, 0)})
    return rows


def _ablation_pipeline_depth() -> list[dict]:
    """Prefetch depth (buffer sets) for the HotSpot pass."""
    rows = []
    for depth in (1, 2, 3):
        with System(_apu_tree_for("hotspot", "ssd")) as system:
            app = HotspotApp(system, n=SCALE.hotspot_n,
                             iterations=SCALE.hotspot_iterations,
                             steps_per_pass=SCALE.hotspot_steps_per_pass,
                             seed=SCALE.seed, pipeline_depth=depth)
            app.run(system)
            rows.append({"name": "hotspot-pipeline-depth",
                         "variant": f"depth={depth}",
                         "makespan": system.makespan(), "io_read_bytes": 0})
    return rows


def _ablation_hotspot_fusion() -> list[dict]:
    """Steps fused per storage pass (ghost-zone temporal blocking)."""
    rows = []
    for k in (1, 2, 4, 8):
        with System(_apu_tree_for("hotspot", "ssd")) as system:
            app = HotspotApp(system, n=SCALE.hotspot_n,
                             iterations=SCALE.hotspot_iterations,
                             steps_per_pass=k, seed=SCALE.seed)
            app.run(system)
            bd = system.breakdown()
            rows.append({
                "name": "hotspot-steps-per-pass", "variant": f"K={k}",
                "makespan": system.makespan(),
                "io_read_bytes": bd.bytes_by_phase.get(Phase.IO_READ, 0)})
    return rows


def _ablation_blocking_size() -> list[dict]:
    """Blocking-size sensitivity via the staging-buffer budget
    (Section V-B: "this also depends on the chosen blocking sizes")."""
    rows = []
    for staging in (configs.STAGING_BYTES // 4, configs.STAGING_BYTES,
                    configs.STAGING_BYTES * 4):
        with System(_apu_tree_for("gemm", "ssd",
                                  staging_bytes=staging)) as system:
            app = GemmApp(system, m=SCALE.gemm_n, k=SCALE.gemm_n,
                          n=SCALE.gemm_n, seed=SCALE.seed)
            app.run(system)
            rows.append({"name": "gemm-blocking-size",
                         "variant": f"staging={staging // (1 << 20)}MiB",
                         "makespan": system.makespan(), "io_read_bytes": 0})
    return rows


_ABLATIONS = {
    "gemm_reuse": _ablation_gemm_reuse,
    "hotspot_fusion": _ablation_hotspot_fusion,
    "pipeline_depth": _ablation_pipeline_depth,
    "blocking_size": _ablation_blocking_size,
}


@register("ablation")
def ablation_cell(ablation: str) -> dict:
    """One design-choice ablation family (all its variants)."""
    try:
        fn = _ABLATIONS[ablation]
    except KeyError:
        raise ConfigError(f"unknown ablation {ablation!r}; known: "
                          f"{sorted(_ABLATIONS)}") from None
    return {"ablation": ablation, "rows": fn()}


@register("cache_policy")
def cache_policy_cell() -> dict:
    """The buffer-cache policy ablation (all apps x variants).

    Each app runs uncached and then under each eviction policy with the
    transparent ("full") cache; results must stay bit-identical to the
    uncached run.  The workloads are sized so the cache matters:

    * GEMM reuses its row shard across column tiles (the Section IV-A
      pattern, now owned by the cache);
    * HotSpot re-stages the read-only power grid every pass, with the
      tile forced below the auto-chooser's pick so the staging level has
      cache headroom;
    * SpMV sweeps its CSR shards cyclically through a cache smaller than
      the working set -- the access pattern where LRU evicts each block
      just before reuse and only the Belady oracle retains a prefix.
    """
    from repro.cache.manager import CacheConfig
    from repro.memory.units import KB, MB
    from repro.topology.builders import apu_two_level
    from repro.workloads.sparse import uniform_random

    def run(app_name: str, variant: str) -> tuple[np.ndarray, dict]:
        cache = (CacheConfig.disabled() if variant == "off"
                 else CacheConfig(mode="full", policy=variant))
        if app_name == "gemm":
            tree = _apu_tree_for("gemm", "ssd")
        elif app_name == "hotspot":
            tree = apu_two_level(storage_capacity=8 * MB,
                                 staging_bytes=2 * MB)
        else:
            tree = apu_two_level(storage_capacity=16 * MB,
                                 staging_bytes=512 * KB)
        with System(tree, cache=cache) as system:
            if app_name == "gemm":
                n = SCALE.gemm_n
                app = GemmApp(system, m=n, k=n, n=n, seed=SCALE.seed)
            elif app_name == "hotspot":
                app = HotspotApp(system, n=256, iterations=8,
                                 steps_per_pass=4, force_tile=128,
                                 seed=SCALE.seed)
            else:
                matrix = uniform_random(8000, 8000, nnz_per_row=16, seed=7)
                app = SpmvApp(system, matrix=matrix, seed=SCALE.seed,
                              iterations=3)
            app.run(system)
            st = system.cache.total_stats()
            bd = system.breakdown()
            row = {"app": app_name, "variant": variant,
                   "makespan": system.makespan(),
                   "io_read_bytes": bd.bytes_by_phase.get(Phase.IO_READ, 0),
                   "hits": st.hits, "misses": st.misses,
                   "evictions": st.evictions,
                   "prefetch_used": st.prefetch_used}
            return app.result(), row

    rows = []
    for app_name in ("gemm", "hotspot", "spmv"):
        baseline = None
        for variant in ("off", "lru", "cost", "oracle"):
            result, row = run(app_name, variant)
            if baseline is None:
                baseline = result
            row["identical"] = bool(np.array_equal(result, baseline))
            rows.append(row)
    return {"rows": rows}


# -- Forward-looking analyses -------------------------------------------------

@register("future_generation")
def future_generation_cell(app: str, storage: str) -> dict:
    """One (app, storage generation) slowdown point (Section V-D).

    NVM here is the block-mode device (2.5/2.0 GB/s): the "per-node
    slower memory" the paper argues NVM bandwidth now justifies.
    """
    base = _run_in_memory(app)
    res = _run_app(app, _apu_tree_for(app, storage))
    return {"app": app, "storage": storage,
            "verified": base.verified and res.verified,
            "slowdown": res.makespan / base.makespan}


@register("future_spmv")
def future_spmv_cell() -> dict:
    """SpMV sharding strategy vs input structure (Section IV-C).

    Northup's nnz-aware sharding vs the naive equal-rows split.  On
    regular inputs the two are near-identical; on power-law inputs
    equal-rows sharding produces wildly variable shard sizes and may
    overflow the next level entirely -- "Northup has a unique advantage
    to handle this situation thanks to its recursive scheme."
    """
    from repro.errors import CapacityError

    inputs = {name: preset(name, nrows=SCALE.spmv_rows, seed=SCALE.seed)
              for name in preset_names()}
    inputs["adversarial-skew"] = _adversarial_skew(SCALE.spmv_rows,
                                                   seed=SCALE.seed)

    rows = []
    for name, matrix in inputs.items():

        with System(configs.scaled_inmemory_tree()) as base_sys:
            base = SpmvApp(base_sys, matrix=matrix, seed=SCALE.seed)
            base.run(base_sys)
            assert np.allclose(base.result(), base.reference(),
                               rtol=1e-3, atol=1e-3)
            base_time = base_sys.makespan()

        for strategy in ("nnz", "rows"):
            # A tighter staging budget so several shards exist and the
            # skew has room to show.
            with System(_apu_tree_for(
                    "spmv", "ssd",
                    staging_bytes=configs.STAGING_BYTES // 8)) as system:
                app = SpmvApp(system, matrix=matrix, seed=SCALE.seed,
                              shard_strategy=strategy)
                try:
                    app.run(system)
                except CapacityError:
                    rows.append({"preset": name, "strategy": strategy,
                                 "completed": False,
                                 "slowdown": float("inf"), "shard_count": 0,
                                 "shard_size_cv": float("inf")})
                    continue
                assert np.allclose(app.result(), app.reference(),
                                   rtol=1e-3, atol=1e-3)
                sizes = [iv.nbytes for iv in system.timeline.trace
                         if iv.phase is Phase.IO_READ
                         and iv.label == "data down"]
                mean = float(np.mean(sizes)) if sizes else 0.0
                cv = float(np.std(sizes) / mean) if mean else 0.0
                rows.append({"preset": name, "strategy": strategy,
                             "completed": True,
                             "slowdown": system.makespan() / base_time,
                             "shard_count": len(sizes),
                             "shard_size_cv": cv})
    return {"rows": rows}


def _adversarial_skew(nrows: int, *, seed: int):
    """Mostly single-nonzero rows plus a few giant rows, each close to a
    whole next-level budget: the input family for which equal-rows
    sharding cannot work at all."""
    rng = np.random.default_rng(seed)
    lengths = np.ones(nrows, dtype=np.int64)
    giant = max(16, nrows // 3000)
    positions = rng.choice(nrows, size=giant, replace=False)
    lengths[positions] = nrows  # clipped to ncols by the assembler
    from repro.workloads.sparse import _assemble
    return _assemble(lengths, nrows, rng)


# -- Library apps -------------------------------------------------------------

@register("library_reduce")
def library_reduce_cell(storage: str, n: int = 2_000_000) -> dict:
    """Out-of-core reduction: one storage generation."""
    from repro.apps.reduce import ReduceApp
    n = _int("n", n)
    with System(configs.scaled_apu_tree(storage)) as system:
        app = ReduceApp(system, n=n, op="l2", seed=2019)
        app.run(system)
        verified = app.result() == np.float64(app.reference())
        bd = system.breakdown()
        return {"storage": storage, "n": n,
                "makespan_s": system.makespan(), "verified": bool(verified),
                "io_read_bytes": bd.bytes_by_phase.get(Phase.IO_READ, 0),
                "io_write_bytes": bd.bytes_by_phase.get(Phase.IO_WRITE, 0)}


@register("library_sort")
def library_sort_cell(staging_divisor: int, n: int = 1_000_000) -> dict:
    """External merge sort under a shrunken staging budget."""
    from repro.apps.sort import SortApp
    staging_divisor = _int("staging_divisor", staging_divisor)
    n = _int("n", n)
    with System(configs.scaled_apu_tree(
            "ssd", staging_bytes=configs.STAGING_BYTES // staging_divisor)
            ) as system:
        app = SortApp(system, n=n, seed=2019)
        app.run(system)
        verified = np.array_equal(app.result(), app.reference())
        bd = system.breakdown()
        return {"staging_divisor": staging_divisor, "n": n,
                "makespan_s": system.makespan(), "verified": bool(verified),
                "io_read_bytes": bd.bytes_by_phase.get(Phase.IO_READ, 0),
                "runs": len(app.runs)}


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
    from repro.memory.units import MB
    from repro.topology.builders import apu_two_level
    rounds = _int("rounds", rounds)
    with System(apu_two_level(storage_capacity=256 * MB,
                              staging_bytes=64 * MB)) as system:
        fn = framework_op(system, op)
        samples = []
        for _ in range(rounds):
            system.reset_time()
            t0 = perf_counter()
            fn()
            samples.append(perf_counter() - t0)
        samples.sort()
        return {"op": op, "rounds": rounds,
                "meta": {"p50_ns": round(samples[len(samples) // 2] * 1e9),
                         "min_ns": round(samples[0] * 1e9)}}


# -- Pipelined vs in-order scheduling -----------------------------------------

def _hotspot_run(scheduler, storage: str, staging_bytes: int,
                 **app_kw) -> tuple[float, bytes]:
    """One HotSpot run; ``(virtual makespan, result bytes)``."""
    with System(configs.scaled_apu_tree(
            storage, staging_bytes=staging_bytes)) as system:
        app = HotspotApp(system, seed=5, **app_kw)
        app.run(system, scheduler=scheduler)
        return system.makespan(), np.asarray(app.result()).tobytes()


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
    return serve_bench.run_policy(policy, seed=_int("seed", seed),
                                  oracle=serve_bench.SoloOracle())


# -- Distributed execution ----------------------------------------------------

def _dist_gemm(sys_):
    return GemmApp(sys_, m=128, k=128, n=128, seed=3)


def _dist_hotspot(sys_):
    return HotspotApp(sys_, n=96, iterations=2, seed=4)


def _dist_spmv(sys_):
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

#: Worker counts of a projected scaling curve and its modeled network
#: channel.
DIST_LADDER = (1, 2, 4, 8)
DIST_CHANNEL = "loopback"


def run_dist_app(name: str, *, executor=None, scheduler=None):
    """One :data:`DIST_APP_CASES` run; ``(result sha256, makespan, trace
    intervals)``.  ``executor`` instances are caller-owned, closed here."""
    import hashlib
    from contextlib import nullcontext
    make_app, make_tree = DIST_APP_CASES[name]
    with nullcontext() if executor is None else executor, \
            System(make_tree(), executor=executor) as sys_:
        app = make_app(sys_)
        app.run(sys_, scheduler=scheduler)
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        return digest, sys_.makespan(), len(sys_.timeline.trace)


def _dist_equivalence(app: str, workers: int) -> dict:
    """``app`` under the distributed scheduler + worker-process executor
    (network disabled): byte-identical result, bit-identical virtual
    makespan and trace shape vs the in-order inline run, or it raises."""
    from repro.dist import DistExecutor, DistributedScheduler, dist_residue
    reference = run_dist_app(app)
    sched = DistributedScheduler()
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
    from repro.dist.model import project_run
    from repro.memory.network import NETWORK_PRESETS
    channel = NETWORK_PRESETS[DIST_CHANNEL]
    make_app, make_tree = DIST_APP_CASES[app]
    sched = InOrderScheduler(keep_plans=True)
    with System(make_tree()) as sys_:
        make_app(sys_).run(sys_, scheduler=sched)
        rows = [project_run(sched.plans, workers=w, channel=channel).row()
                for w in DIST_LADDER]
    return {"app": app, "channel": channel.describe(), "rows": rows,
            "serial_s": rows[0]["makespan_s"]}


@register("distributed")
def distributed_cell(section: str, app: str, workers: int = 0) -> dict:
    """One distributed-scaling cell: an ``equivalence`` case of ``app``
    on ``workers`` processes, or ``app``'s projected ``scaling`` curve."""
    if section == "equivalence":
        return _dist_equivalence(app, _int("workers", workers))
    if section == "scaling":
        return _dist_scaling(app)
    raise ConfigError(f"unknown distributed section {section!r}; known: "
                      f"equivalence, scaling")
