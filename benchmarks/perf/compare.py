#!/usr/bin/env python3
"""Compare two result documents of ``run.py --out``: A is the parent,
B the change (or a second set of runs of the same commit).

    python3 benchmarks/perf/compare.py A.json B.json

Every (workload, end-to-end metric) pair gets its own row and one of
three verdicts, by the bound the benchmark fixed for the metric:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the run-to-run spread (IQR over median, either
  side) is wider than the bound and the two sides' samples interleave,
  so the data cannot tell unchanged from changed;
* ``ok``         -- otherwise.

The virtual metrics and ``fail_frac`` have bound 0: any worsening is a
regression.  Exits 1 if any row regressed.
"""

from __future__ import annotations

import json
import sys

#: Metrics compared exactly (bound 0), read from the workload record.
EXACT = ("virtual_makespan", "virtual_p99_latency", "fail_frac")


def verdict(a: dict, b: dict, bound: float,
            a_samples: list[float], b_samples: list[float]) -> str:
    """Verdict for one lower-is-better metric given both sides' stats
    (``median``, ``iqr``) and raw samples."""
    worse_by = (b["median"] - a["median"]) / a["median"]
    spread = max(a["iqr"] / a["median"], b["iqr"] / b["median"])
    if spread > bound:
        if max(b_samples) < min(a_samples):
            return "ok"
        if min(b_samples) > max(a_samples) and worse_by > bound:
            return "regressed"
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(doc_a: dict, doc_b: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, change, bound, verdict)``."""
    rows = []
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            continue
        for metric, a in wa["end_to_end"].items():
            b = wb["end_to_end"][metric]
            sa = wa["samples"].get(metric, [a["median"]])
            sb = wb["samples"].get(metric, [b["median"]])
            rows.append((name, metric, a["median"], b["median"],
                         (b["median"] - a["median"]) / a["median"],
                         a["bound"],
                         verdict(a, b, a["bound"], sa, sb)))
        for metric in EXACT:
            va, vb = wa.get(metric), wb.get(metric)
            if not va and not vb:          # absent, or 0 on both sides
                continue
            change = (vb - va) / va if va else float("inf")
            rows.append((name, metric, va, vb, change, 0.0,
                         "regressed" if vb > va else "ok"))
    return rows


def format_rows(rows: list[tuple]) -> str:
    head = (f"{'workload':<12} {'metric':<20} {'A':>12} {'B':>12} "
            f"{'change':>8} {'bound':>6}  verdict")
    lines = [head, "-" * len(head)]
    for name, metric, a, b, change, bound, result in rows:
        lines.append(f"{name:<12} {metric:<20} {a:>12.6g} {b:>12.6g} "
                     f"{change:>+8.1%} {bound:>6.0%}  {result}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    rows = compare(*docs)
    print(format_rows(rows))
    counts = {v: sum(1 for r in rows if r[-1] == v)
              for v in ("ok", "unresolved", "regressed")}
    print(f"{counts['ok']} ok, {counts['unresolved']} unresolved, "
          f"{counts['regressed']} regressed")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
