#!/usr/bin/env python3
"""The wall-clock benchmark: measure, summarise, report.

Two ways in, one measuring core.

* **One workload, one process** (what ``BENCHMARK.json`` names)::

      python3 benchmarks/perf/run.py --workload gemm_ooc --seed 7 \\
          --seconds 10 --trace 0

  runs one untimed warm-up rep, then timed reps for ``--seconds``, then
  the output checks, and prints one JSON object as the last line of
  stdout: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
  end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1``).

* **The whole suite**::

      python3 benchmarks/perf/run.py [--seed N] [--workloads a,b]
          [--seconds S | --reps N] [--trace] [--scale full|smoke]
          [--out FILE]

  runs every workload in a child process of its own (the first form),
  gathers their raw records, and prints every metric by name with its
  unit; exits 1 if any operation failed.

Protocol: BLAS pinned to one thread; pool workloads use ``min(2,
nproc)`` workers; every rep builds a fresh temp dir, ``System`` and
executor; timings are medians over in-process reps after one warm-up
(fresh-process reps were 2-4x noisier on first-touch page faults).
Everything the benchmark writes stays under ``benchmarks/perf/out/``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
OUT_DIR = os.path.join(HERE, "out")

# Before NumPy loads: kernels must not fan out over a BLAS thread pool,
# or pool workloads would oversubscribe the cores they are measured on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

#: Timed reps below this count are not a median worth reporting.
MIN_REPS = 3


def measure(name: str, *, scale: str, seed: int, seconds: float,
            reps: int | None, trace: bool) -> dict:
    """Stage 1: run one workload's reps and checks in this process and
    return the raw result (per-rep samples, summary, failures)."""
    import numpy as np

    import hostprobe
    import summarize
    import tracer as tracer_mod
    import workloads
    from workloads import BY_NAME, SIZES, run_rep

    wl = BY_NAME[name]
    sizes = SIZES[scale]
    pooled = wl.backend != "inline"
    ops_per_rep = sizes["serve"]["jobs"] if wl.app == "serve" else 1
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    # Anything the stack itself puts in a temp dir stays in the checkout.
    os.environ["TMPDIR"] = tmp_root
    tempfile.tempdir = None

    if wl.app == "serve":
        _single_file_process()

    tally = {"attempted": 0, "failed": 0}
    failures: list[str] = []
    records: dict[str, list[dict]] = {"plain": [], "traced": [], "inline": []}
    expect: dict = {}
    probe = hostprobe.make_probe()
    probe_s = probe()        # the latest probe closes one rep, opens the next

    def attempt(kind: str, inspect=None, keep: bool = True) -> None:
        nonlocal probe_s
        # Collect between reps, not at a random instant inside one: the
        # served jobs leave reference cycles (threads, gates, spans).
        gc.collect()
        before = probe_s
        try:
            rec = run_rep(wl, sizes, seed, tmp_root,
                          traced=kind == "traced",
                          backend="inline" if kind == "inline" else None,
                          inspect=inspect)
        except Exception:  # a rep that raises is a failed operation
            traceback.print_exc()
            tally["attempted"] += ops_per_rep
            tally["failed"] += ops_per_rep
            failures.append(f"{kind} rep raised (traceback on stderr)")
            return
        probe_s = probe()
        rec["host_s"] = (before + probe_s) / 2
        # Same seed, same bytes, same virtual time -- on every rep and,
        # for the pool workloads, on the inline backend too.
        seen = {"digest": rec["digest"],
                "virtual_makespan": rec["counts"]["virtual_makespan"],
                "sim.intervals": rec["counts"]["sim.intervals"],
                "serve.virtual_p99_latency":
                    rec["counts"].get("serve.virtual_p99_latency", 0.0)}
        for key, value in seen.items():
            if expect.setdefault(key, value) != value:
                rec["failures"].append(
                    f"{kind} rep: {key} {value!r} != {expect[key]!r}")
        tally["attempted"] += rec["ops"]
        tally["failed"] += max(rec["failed_ops"],
                               1 if rec["failures"] else 0)
        failures.extend(rec["failures"])
        if keep and not rec["failures"]:
            records[kind].append(rec)

    cycle = ["plain"]
    if trace:
        cycle.append("traced")
        if pooled:
            cycle.append("inline")

    try:
        for kind in cycle:                       # warm-up, untimed
            attempt(kind, keep=False)
        start = perf_counter()
        cycles = 0
        last = 0.0
        while True:
            if reps is not None:
                if cycles >= reps:
                    break
            elif cycles >= MIN_REPS and \
                    perf_counter() - start + last > seconds:
                break
            t0 = perf_counter()
            for kind in cycle:
                attempt(kind)
            last = perf_counter() - t0
            cycles += 1
        measured_s = perf_counter() - start

        # Peak RSS before the checks below allocate reference results.
        self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_rss_mb = (self_kib + child_kib) / 1024.0

        inspect = workloads.check_against_solo() if wl.app == "serve" \
            else workloads.check_against_reference(wl)
        attempt("plain", inspect=inspect, keep=False)
        if pooled and not trace:
            attempt("inline", keep=False)        # cross-backend equality
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        _stop_resource_tracker()

    plain, traced = records["plain"], records["traced"]
    if not plain or (trace and not traced):
        sys.exit(f"{name}: no rep completed; nothing to report")

    samples = summarize.at_ref_speed(plain)
    result = {
        "workload": name, "seed": seed, "scale": scale,
        "sizes": sizes[wl.app], "backend": wl.backend,
        "workers": workloads.pool_workers() if pooled else 1,
        "correct": tally["failed"] == 0, **tally,
        "failures": failures, "measured_s": measured_s,
        "end_to_end": summarize.end_to_end(samples, peak_rss_mb),
        "samples": samples,
        "wall": summarize.wall(plain),
        "virtual_makespan": expect.get("virtual_makespan"),
        "virtual_p99_latency": expect.get("serve.virtual_p99_latency"),
        "digest": expect.get("digest"),
        "per_layer": None,
    }
    if trace:
        inline = records["inline"]
        inline_run_s = statistics.median(r["run_s"] for r in inline) \
            if inline else None
        result["per_layer"] = summarize.per_layer(plain, traced,
                                                  inline_run_s)
        # The ledger of one rep adds up to that rep's run_s; medians
        # taken entry by entry would not.  Show the median-run_s rep.
        typical = sorted(traced, key=lambda r: r["run_s"])[len(traced) // 2]
        result["ledger"] = summarize.rep_ledger(typical)
        result["traced_run_s"] = typical["run_s"]
        with open(os.path.join(OUT_DIR, f"{name}.trace.json"), "w") as fh:
            json.dump(tracer_mod.dump_spans(traced[-1]["spans"]), fh)
    result["numpy"] = np.__version__
    return result


def _single_file_process() -> None:
    """Process settings for ``serve_mix``, whose service runs exactly
    one of its many threads at a time.

    * One core.  Left to the scheduler the baton hand-offs sometimes
      cross cores, and in a VM a cross-core wake-up costs ~100 us: whole
      runs then read 0.95 s instead of 0.54 s.
    * One malloc arena.  glibc hands each new thread one of up to
      8 x cores arenas, and which arena a job's thread lands in decides
      how the heap fragments: ``peak_rss_mb`` read 105-122 MiB run to
      run, 97-99 MiB with a single arena.  (Not for the pool workloads:
      their sender threads do contend, and one arena made them slower
      and their RSS bimodal.)
    """
    import ctypes
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        ctypes.CDLL(None).mallopt(-8, 1)        # M_ARENA_MAX
    except (OSError, AttributeError):
        pass                                    # not glibc: nothing to pin


def _stop_resource_tracker() -> None:
    """The shm pool starts multiprocessing's resource tracker, a helper
    process that otherwise lingers until interpreter exit; stop it and
    wait for it, as for every process this benchmark started."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def contract_line(result: dict, trace: bool) -> str:
    """The one JSON object the driver reads."""
    import summarize
    if trace:
        values = result["per_layer"]
    else:
        values = {k: v["median"] for k, v in result["end_to_end"].items()}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": summarize.UNITS[name]}
                    for name, value in values.items()},
    })


# -- the suite: one child per workload ---------------------------------------

def run_suite(args) -> int:
    import numpy as np

    import report
    import summarize
    from repro.exec.base import effective_cpu_count
    from workloads import SIZES, WORKLOADS, pool_workers

    names = [w.name for w in WORKLOADS]
    if args.workloads:
        names = [n.strip() for n in args.workloads.split(",")]
    os.makedirs(OUT_DIR, exist_ok=True)
    started = perf_counter()
    bounds = {name: bound for name, _u, _b, bound in summarize.END_TO_END}
    doc_workloads = {}
    for name in names:
        merged = None
        for trace in ((0, 1) if args.trace else (0,)):
            raw = os.path.join(OUT_DIR, f"{name}.trace{trace}.raw.json")
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", args.scale, "--raw", raw]
            if args.reps is not None:
                cmd += ["--reps", str(args.reps)]
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if not os.path.exists(raw):
                print(f"{name}: child exited {done.returncode} without a "
                      f"result", file=sys.stderr)
                return 1
            with open(raw) as fh:
                child = json.load(fh)
            os.remove(raw)
            if merged is None:
                merged = child
            else:                       # the traced pass adds the layers
                for key in ("attempted", "failed"):
                    merged[key] += child[key]
                merged["failures"] += child["failures"]
                merged["correct"] = merged["correct"] and child["correct"]
                for key in ("per_layer", "ledger", "traced_run_s"):
                    merged[key] = child[key]
        for metric, row in merged["end_to_end"].items():
            row["unit"] = summarize.UNITS[metric]
            row["bound"] = bounds[metric]
        for metric, row in merged["wall"].items():
            row["unit"] = "ratio" if metric == "host_slowdown" else "s"
        if merged["per_layer"]:
            merged["per_layer"] = {
                metric: {"value": value, "unit": summarize.UNITS[metric]}
                for metric, value in merged["per_layer"].items()}
        merged["fail_frac"] = merged["failed"] / merged["attempted"]
        doc_workloads[name] = merged
    doc = {
        "schema": 1,
        "claim": None,
        "meta": {
            "nproc": os.cpu_count(),
            "effective_cpu_count": effective_cpu_count(),
            "pool_workers": pool_workers(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "reps": args.reps,
            "sizes": SIZES[args.scale],
            "total_wall_s": perf_counter() - started,
        },
        "workloads": doc_workloads,
    }
    print(report.format_tables(doc))
    if args.out:
        report.write(doc, args.out)
        print(f"wrote {args.out}")
    bad = [n for n, wl in doc_workloads.items() if not wl["correct"]]
    for name in bad:
        for line in doc_workloads[name]["failures"]:
            print(f"FAILED {name}: {line}", file=sys.stderr)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this "
                        "process and print the driver's JSON line")
    parser.add_argument("--workloads", help="suite: comma-separated subset")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed reps of one workload run")
    parser.add_argument("--reps", type=int, default=None,
                        help="exactly this many timed reps instead")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="also run traced reps for the per-layer ledger")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="suite: write the result document")
    parser.add_argument("--raw", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import the repro package from {SRC}: {exc}")

    if args.workload is None:
        if args.scale == "smoke":
            args.trace = 1
            if args.reps is None:
                args.reps = 1
        return run_suite(args)

    from workloads import BY_NAME
    if args.workload not in BY_NAME:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"known: {', '.join(BY_NAME)}")
    result = measure(args.workload, scale=args.scale, seed=args.seed,
                     seconds=args.seconds, reps=args.reps,
                     trace=bool(args.trace))
    if args.raw:
        with open(args.raw, "w") as fh:
            json.dump(result, fh)
    for line in result["failures"]:
        print(f"FAILED {args.workload}: {line}", file=sys.stderr)
    print(contract_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
