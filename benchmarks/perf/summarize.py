"""Stage 2 of measure / summarise / report: raw per-rep records in,
named metrics with median, min, max, IQR and sample count out.

The metric tables below are the single definition of every metric's
name, unit and direction; ``BENCHMARK.json`` repeats them and the smoke
test checks the two agree.
"""

from __future__ import annotations

import statistics

from hostprobe import REF_S
from layers import SPAN_LAYER

#: End-to-end metrics: (name, unit, better, bound).  ``bound`` is the
#: share of the parent's median by which the metric may worsen.
END_TO_END = (
    ("run_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Per-layer metrics: (name, unit, better).  ``*_s`` entries marked in
#: LEDGER are self times that partition the traced ``run_s``.
PER_LAYER = (
    ("workloads.gen_s", "s", "lower"),
    ("apps.init_s", "s", "lower"),
    ("apps.self_s", "s", "lower"),
    ("memory.read_s", "s", "lower"),
    ("memory.read_calls", "count", "lower"),
    ("memory.read_bytes", "B", "lower"),
    ("memory.read_mb_per_s", "MB/s", "higher"),
    ("memory.write_s", "s", "lower"),
    ("memory.write_calls", "count", "lower"),
    ("memory.write_bytes", "B", "lower"),
    ("memory.write_mb_per_s", "MB/s", "higher"),
    ("memory.copy_s", "s", "lower"),
    ("memory.alloc_s", "s", "lower"),
    ("memory.alloc_calls", "count", "lower"),
    ("memory.fd_pool_hit_ratio", "ratio", "higher"),
    ("sim.charge_s", "s", "lower"),
    ("sim.charge_calls", "count", "lower"),
    ("sim.intervals", "count", "lower"),
    ("sim.us_per_interval", "us", "lower"),
    ("sim.virtual_makespan", "virtual_s", "lower"),
    ("core.move_s", "s", "lower"),
    ("core.launch_s", "s", "lower"),
    ("core.alloc_s", "s", "lower"),
    ("core.host_s", "s", "lower"),
    ("core.move_calls", "count", "lower"),
    ("core.launch_calls", "count", "lower"),
    ("core.alloc_calls", "count", "lower"),
    ("core.wall_physical_s", "s", "lower"),
    ("core.wall_bytes_moved", "B", "lower"),
    ("cache.consult_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("plan.lower_s", "s", "lower"),
    ("plan.schedule_s", "s", "lower"),
    ("plan.partition_s", "s", "lower"),
    ("plan.nodes", "count", "lower"),
    ("compute.kernel_s", "s", "lower"),
    ("compute.kernel_calls", "count", "lower"),
    ("compute.flops", "count", "lower"),
    ("compute.gflops_per_s", "GF/s", "higher"),
    ("exec.submit_s", "s", "lower"),
    ("exec.wait_s", "s", "lower"),
    ("exec.dispatch_s", "s", "lower"),
    ("exec.merge_s", "s", "lower"),
    ("exec.tasks", "count", "lower"),
    ("exec.bytes_in", "B", "lower"),
    ("exec.bytes_out", "B", "lower"),
    ("exec.worker_busy_s", "s", "lower"),
    ("exec.worker_util", "ratio", "higher"),
    ("exec.pool_start_s", "s", "lower"),
    ("dist.grant_bytes", "B", "lower"),
    ("dist.ack_bytes", "B", "lower"),
    ("dist.worker_unpickle_s", "s", "lower"),
    ("dist.worker_kernel_s", "s", "lower"),
    ("dist.worker_ack_s", "s", "lower"),
    ("serve.loop_self_s", "s", "lower"),
    ("serve.select_s", "s", "lower"),
    ("serve.handoff_s", "s", "lower"),
    ("serve.grants", "count", "lower"),
    ("serve.us_per_grant", "us", "lower"),
    ("serve.jobs_done", "count", "higher"),
    ("serve.jobs_rejected", "count", "lower"),
    ("serve.threads_peak", "count", "lower"),
    ("serve.virtual_p99_latency", "virtual_s", "lower"),
    ("backend.vs_inline_ratio", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.sum_check_frac", "ratio", "lower"),
    ("host.slowdown", "ratio", "lower"),
    ("host.wall_run_s", "s", "lower"),
    ("host.wall_setup_s", "s", "lower"),
)

#: Ledger entries: coordinator-side self times that sum to traced run_s.
LEDGER = tuple(sorted(set(SPAN_LAYER.values())
                      | {"compute.kernel_s", "serve.handoff_s"}))

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def stats(values: list[float]) -> dict:
    """Median, min, max, IQR and sample count.  No tail percentile: a
    dozen samples leave none with ten samples beyond it."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "iqr": q3 - q1, "n": len(values)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rep_ledger(rec: dict) -> dict[str, float]:
    """One traced rep's run phase as ledger entries (seconds).  Inline
    kernels execute inside ``System.launch``; ``ExecStats.worker_busy``
    says how long, so that share moves from core.launch_s to
    compute.kernel_s.  Pool kernels run off the coordinator thread and
    are not on this ledger at all."""
    out = dict.fromkeys(LEDGER, 0.0)
    for name, (self_s, _calls, _qty, _peak) in rec["ledger"]["run"].items():
        out[SPAN_LAYER[name]] += self_s
    inline = rec["counts"]["inline_kernel_s"]
    out["compute.kernel_s"] = inline
    out["core.launch_s"] -= inline
    out["serve.handoff_s"] = rec["ledger"]["handoff_s"]
    return out


def rep_layers(rec: dict) -> dict[str, float]:
    """Additive per-layer values of one traced rep (ratios come later,
    from medians)."""
    run = rec["ledger"]["run"]
    setup = rec["ledger"]["setup"]
    phases = rec.get("worker_phases", {})

    def calls(name):
        return run.get(name, (0.0, 0, 0, 0))[1]

    def qty(name):
        return run.get(name, (0.0, 0, 0, 0))[2]

    out = rep_ledger(rec)
    total = sum(out.values())
    # Input generation happens in setup for the file workloads and
    # inside the served jobs for serve_mix: report it wherever it ran.
    for name in ("workloads.gen", "apps.init"):
        out[SPAN_LAYER[name]] += setup.get(name, (0.0,))[0]
    out.update({
        "memory.read_calls": calls("memory.read"),
        "memory.read_bytes": qty("memory.read"),
        "memory.write_calls": calls("memory.write"),
        "memory.write_bytes": qty("memory.write"),
        "memory.alloc_calls": calls("memory.alloc"),
        "sim.charge_calls": calls("sim.charge"),
        "core.move_calls": calls("core.move"),
        "core.launch_calls": calls("core.launch"),
        "core.alloc_calls": calls("core.alloc"),
        "plan.nodes": qty("plan.lower"),
        "compute.flops": qty("core.launch"),
        "serve.threads_peak": run.get("serve.select", (0, 0, 0, 0))[3],
        "dist.grant_bytes": phases.get("unpickle", (0.0, 0))[1],
        "dist.ack_bytes": phases.get("send", (0.0, 0))[1],
        "dist.worker_unpickle_s": phases.get("unpickle", (0.0, 0))[0],
        "dist.worker_kernel_s": phases.get("kernel", (0.0, 0))[0],
        "dist.worker_ack_s": phases.get("send", (0.0, 0))[0],
        "trace.spans": len(rec["spans"]),
        "trace.sum_check_frac": abs(total - rec["run_s"]) / rec["run_s"],
    })
    return out


def _medians(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def at_ref_speed(reps: list[dict]) -> dict[str, list[float]]:
    """Every rep's wall seconds at the speed of the reference host:
    scaled by how slow the host probe ran around that rep (see
    hostprobe)."""
    return {key: [r[key] * REF_S / r["host_s"] for r in reps]
            for key in ("run_s", "setup_s")}


def end_to_end(samples: dict[str, list[float]],
               peak_rss_mb: float) -> dict[str, dict]:
    """Stats of the end-to-end metrics: the scaled samples of the
    untraced timed reps, and the one RSS reading."""
    out = {name: stats(values) for name, values in samples.items()}
    out["peak_rss_mb"] = stats([peak_rss_mb])
    return out


def wall(reps: list[dict]) -> dict[str, dict]:
    """What the end-to-end times were scaled from: the wall seconds as
    the clock read them, and the host's slow-down against REF_S."""
    return {"run_s": stats([r["run_s"] for r in reps]),
            "setup_s": stats([r["setup_s"] for r in reps]),
            "host_slowdown": stats([r["host_s"] / REF_S for r in reps])}


def per_layer(untraced: list[dict], traced: list[dict],
              inline_run_s: float | None) -> dict[str, float]:
    """Every per-layer metric as one number: medians over the traced
    reps for span-derived values, over the untraced reps for counters
    and speeds (so the tracer's cost does not inflate them).

    ``inline_run_s`` is the median run_s of the same input on the inline
    backend within this invocation (None: the workload *is* inline).
    """
    out = _medians([rep_layers(r) for r in traced])
    counts = _medians([r["counts"] for r in untraced])
    run_s = statistics.median(r["run_s"] for r in untraced)
    traced_run_s = statistics.median(r["run_s"] for r in traced)
    # A pool's kernels are off the coordinator ledger; report them from
    # the executor's own counter either way.
    out["compute.kernel_s"] = counts["compute.kernel_s"]
    for key in ("sim.intervals", "core.wall_physical_s",
                "core.wall_bytes_moved", "cache.hits", "cache.misses",
                "cache.evictions", "compute.kernel_calls",
                "exec.dispatch_s", "exec.merge_s", "exec.tasks",
                "exec.bytes_in", "exec.bytes_out", "exec.worker_busy_s",
                "exec.pool_start_s"):
        out[key] = counts[key]
    for key in ("serve.grants", "serve.jobs_done", "serve.jobs_rejected",
                "serve.virtual_p99_latency"):
        out[key] = counts.get(key, 0)
    out["sim.virtual_makespan"] = counts["virtual_makespan"]
    out["memory.read_mb_per_s"] = _ratio(out["memory.read_bytes"],
                                         out["memory.read_s"]) / 1e6
    out["memory.write_mb_per_s"] = _ratio(out["memory.write_bytes"],
                                          out["memory.write_s"]) / 1e6
    out["memory.fd_pool_hit_ratio"] = _ratio(
        counts["fd_pool_hits"],
        counts["fd_pool_hits"] + counts["fd_pool_opens"])
    out["sim.us_per_interval"] = 1e6 * _ratio(out["sim.charge_s"],
                                              out["sim.intervals"])
    out["cache.hit_ratio"] = _ratio(out["cache.hits"],
                                    out["cache.hits"] + out["cache.misses"])
    out["compute.gflops_per_s"] = _ratio(out["compute.flops"],
                                         out["compute.kernel_s"]) / 1e9
    out["exec.worker_util"] = _ratio(out["exec.worker_busy_s"],
                                     counts["exec.workers"] * run_s)
    out["serve.us_per_grant"] = 1e6 * _ratio(run_s, out["serve.grants"]) \
        if out["serve.grants"] else 0.0
    out["backend.vs_inline_ratio"] = \
        1.0 if inline_run_s is None else run_s / inline_run_s
    out["trace.overhead_frac"] = traced_run_s / run_s - 1.0
    out["host.slowdown"] = statistics.median(
        r["host_s"] for r in untraced) / REF_S
    out["host.wall_run_s"] = run_s
    out["host.wall_setup_s"] = statistics.median(
        r["setup_s"] for r in untraced)
    return {name: out[name] for name, _unit, _better in PER_LAYER}
