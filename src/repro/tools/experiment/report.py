"""Markdown rendering of experiment summaries (``report.md``)."""

from __future__ import annotations

from typing import Any


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cell_table(cells: list[dict[str, Any]]) -> list[str]:
    """One row per cell: the varying params plus every scalar record
    key (column set is the union, blank where absent)."""
    param_keys: list[str] = []
    record_keys: list[str] = []
    for cell in cells:
        for key in cell.get("params", {}):
            if key not in param_keys:
                param_keys.append(key)
        for key, value in cell.get("record", {}).items():
            if isinstance(value, (str, int, float, bool)) \
                    and key not in record_keys:
                record_keys.append(key)
    # Drop params that never vary; they belong in prose, not columns.
    varying = [k for k in param_keys
               if len({repr(c.get("params", {}).get(k))
                       for c in cells}) > 1]
    show_repeat = any(c.get("repeat", 0) for c in cells)
    header = varying + (["repeat"] if show_repeat else []) + record_keys
    if not header:
        return []
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for cell in cells:
        row = [_fmt(cell.get("params", {}).get(k, "")) for k in varying]
        if show_repeat:
            row.append(str(cell.get("repeat", 0)))
        row += [_fmt(cell.get("record", {}).get(k, ""))
                for k in record_keys]
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_report(summary: dict[str, Any]) -> str:
    """The ``report.md`` body for one experiment summary."""
    lines = [f"# Experiment: {summary.get('scenario', '?')}", ""]
    lines.append(f"- runner: `{summary.get('runner', '?')}`")
    lines.append(f"- cells: {summary.get('cell_count', 0)}")
    meta = summary.get("meta", {})
    if "wall_s" in meta:
        lines.append(f"- wall-clock: {meta['wall_s']}s "
                     f"({meta.get('workers', 1)} worker(s))")
    tuned = summary.get("tuned")
    if tuned:
        lines += ["", "## Tuned configuration", ""]
        for key, value in sorted(tuned.get("best_params", {}).items()):
            lines.append(f"- `{key}` = {_fmt(value)}")
        lines.append(f"- best score: {_fmt(tuned.get('best_score', ''))}")
        lines.append(
            f"- evaluated {tuned.get('evaluated')} of "
            f"{tuned.get('grid_size')} grid cells "
            f"({100 * tuned.get('coverage', 0):.0f}% coverage, "
            f"{'converged' if tuned.get('converged') else 'budget hit'})")
    table = _cell_table(summary.get("cells", []))
    if table:
        lines += ["", "## Cells", ""] + table
    return "\n".join(lines) + "\n"
