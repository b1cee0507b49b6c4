"""Stage 3 of measure / summarise / report: print every metric by name
with its unit, and write the result document."""

from __future__ import annotations

import json


def _num(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value)}"
    return f"{value:.6g}"


def format_tables(doc: dict) -> str:
    """One end-to-end table and, when traced, one per-layer table."""
    lines = []
    head = (f"{'workload':<12} {'metric':<18} {'unit':<5} {'median':>10} "
            f"{'min':>10} {'max':>10} {'iqr':>10} {'n':>3}")
    lines += ["end-to-end (tracing off; times at reference-host speed, "
              "wall.* as the clock read them)", head, "-" * len(head)]
    for name, wl in doc["workloads"].items():
        rows = list(wl["end_to_end"].items())
        rows += [(f"wall.{metric}", row) for metric, row in wl["wall"].items()]
        for metric, row in rows:
            lines.append(
                f"{name:<12} {metric:<18} {row['unit']:<5} "
                f"{_num(row['median']):>10} {_num(row['min']):>10} "
                f"{_num(row['max']):>10} {_num(row['iqr']):>10} "
                f"{row['n']:>3}")
        lines.append(
            f"{name:<12} {'fail_frac':<18} {'ratio':<5} "
            f"{_num(wl['fail_frac']):>10}   "
            f"({wl['failed']} failed of {wl['attempted']} operations)")
    traced = {n: wl for n, wl in doc["workloads"].items()
              if wl.get("per_layer")}
    if traced:
        names = list(traced)
        head = f"{'metric':<26} {'unit':<9} " + \
            " ".join(f"{n:>12}" for n in names)
        lines += ["", "per-layer (traced reps, medians)", head,
                  "-" * len(head)]
        first = traced[names[0]]["per_layer"]
        for metric in first:
            lines.append(
                f"{metric:<26} {first[metric]['unit']:<9} " + " ".join(
                    f"{_num(traced[n]['per_layer'][metric]['value']):>12}"
                    for n in names))
    return "\n".join(lines)


def write(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
