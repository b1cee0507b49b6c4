"""Paper-style tables rendered from scenario cell records.

Every formatter takes the records of one committed scenario -- the
dicts :func:`repro.bench.cells.run_records` returns, in plan order -- so
a table shows exactly what the harness recorded.
"""

from __future__ import annotations


def _table(header: list[str], rows: list[list[str]], title: str) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = [title,
             "  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _in_memory(records: list[dict]) -> dict[str, float]:
    return {r["app"]: r["makespan_s"] for r in records
            if r["config"] == "in-memory"}


def fig6_slowdowns(records: list[dict]) -> dict[str, dict[str, float]]:
    """``{app: {storage: slowdown}}`` from ``fig6`` records: each
    out-of-core bar over its app's in-memory bar."""
    base = _in_memory(records)
    out: dict[str, dict[str, float]] = {}
    for r in records:
        if r["config"] != "in-memory":
            out.setdefault(r["app"], {})[r["config"]] = (
                r["makespan_s"] / base[r["app"]])
    return out


def format_fig6(records: list[dict]) -> str:
    """Figure 6 as a normalized-runtime table."""
    base = _in_memory(records)
    body = [[app, f"{base[app] * 1e3:.2f} ms", "1.00x",
             f"{s['ssd']:.2f}x", f"{s['hdd']:.2f}x"]
            for app, s in fig6_slowdowns(records).items()]
    return _table(
        ["app", "in-memory", "norm", "ssd", "disk"],
        body,
        "Figure 6: normalized runtime vs in-memory (lower is better)")


def format_breakdown(records: list[dict], title: str) -> str:
    """Figures 7/8 as a busy-share table."""
    body = []
    for r in records:
        shares = r["shares"]
        body.append([
            r["app"], r["storage"],
            f"{shares['cpu']:.1%}", f"{shares['gpu']:.1%}",
            f"{shares['setup']:.1%}", f"{shares['transfer']:.1%}",
            f"{r['dev_transfer_share']:.1%}",
            f"{shares['runtime']:.2%}",
        ])
    return _table(
        ["app", "storage", "cpu", "gpu", "setup", "transfer(all)",
         "dev-xfer", "runtime"],
        body, title)


def format_fig9(records: list[dict]) -> str:
    """Figure 9 as normalized I/O and overall series."""
    body = []
    for r in records:
        body.append([
            r["app"],
            " ".join(f"{x:.2f}" for x in r["io_norm"]),
            " ".join(f"{x:.2f}" for x in r["overall_norm"]),
            f"{r['gap_to_in_memory']:+.1%}",
        ])
    avg = sum(r["gap_to_in_memory"] for r in records) / len(records)
    table = _table(
        ["app", "I/O time (norm.)", "overall (norm.)", "gap to in-mem"],
        body,
        "Figure 9: projection onto faster storage "
        "(ladder 1400/600 -> 3500/2100 MB/s)")
    return table + f"\naverage gap to in-memory at fastest point: {avg:+.1%}"


def format_fig11(records: list[dict]) -> str:
    """Figure 11 as speedup-vs-GPU-only rows."""
    body = [[f"({r['matrix_dim']}, {r['chunk_dim']})", str(r["gpu_queues"]),
             f"{r['speedup']:.2f}x", str(r["steals"]),
             f"{r['cpu_share']:.1%}"]
            for r in records]
    return _table(
        ["input (m, n)", "gpu queues", "speedup vs gpu-only", "steals",
         "cpu task share"],
        body,
        "Figure 11: HotSpot CPU+GPU work stealing vs GPU-only Northup")


def format_overhead(records: list[dict]) -> str:
    """The Section V-B runtime-overhead table."""
    body = [[r["app"], f"{r['runtime_fraction']:.3%}", str(r["runtime_ops"])]
            for r in records]
    return _table(["app", "runtime overhead", "runtime ops"], body,
                  "Section V-B: Northup runtime bookkeeping overhead "
                  "(paper: < 1%)")


def format_cache_policies(rows: list[dict]) -> str:
    """The buffer-cache policy ablation, normalized per app."""
    base = {r["app"]: r["makespan"] for r in rows if r["variant"] == "off"}
    body = []
    for r in rows:
        cached = r["variant"] != "off"
        gain = 1.0 - r["makespan"] / base[r["app"]]
        body.append([
            r["app"], r["variant"], f"{r['makespan'] * 1e3:.2f} ms",
            f"{gain:+.1%}" if cached else "-",
            f"{r['io_read_bytes'] / 1e6:.1f} MB",
            f"{r['hits']}/{r['misses']}" if cached else "-",
            str(r["evictions"]) if cached else "-",
            str(r["prefetch_used"]) if cached else "-",
            "yes" if r["identical"] else "NO",
        ])
    return _table(
        ["app", "cache", "makespan", "gain", "io reads", "hit/miss",
         "evict", "pf-used", "bit-identical"],
        body,
        "Ablation: buffer-cache eviction policy (off / lru / cost-aware "
        "/ Belady oracle)")


def format_ablation(rows: list[dict], title: str) -> str:
    """A design-choice ablation table."""
    body = [[r["name"], r["variant"], f"{r['makespan'] * 1e3:.2f} ms",
             f"{r['io_read_bytes'] / 1e6:.1f} MB"
             if r["io_read_bytes"] else "-"]
            for r in rows]
    return _table(["ablation", "variant", "makespan", "io reads"], body,
                  title)


def format_generations(records: list[dict]) -> str:
    """The storage-generations table."""
    lines = ["Storage generations: normalized runtime vs in-memory",
             f"{'app':<10}{'storage':<8}{'slowdown':>10}"]
    for r in records:
        lines.append(f"{r['app']:<10}{r['storage']:<8}{r['slowdown']:>9.2f}x")
    return "\n".join(lines)


def format_spmv_structures(rows: list[dict]) -> str:
    """The sharding-strategy table."""
    lines = ["SpMV sharding strategy vs input structure (SSD)",
             f"{'preset':<18}{'strategy':<9}{'slowdown':>9}{'shards':>8}"
             f"{'size CV':>9}"]
    for r in rows:
        if not r["completed"]:
            lines.append(f"{r['preset']:<18}{r['strategy']:<9}"
                         f"{'OVERFLOWS next level':>26}")
            continue
        lines.append(f"{r['preset']:<18}{r['strategy']:<9}"
                     f"{r['slowdown']:>8.2f}x"
                     f"{r['shard_count']:>8}{r['shard_size_cv']:>9.2f}")
    return "\n".join(lines)
