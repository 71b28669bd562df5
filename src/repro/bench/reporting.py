"""Formatting of benchmark series in the style of the paper's figures.

A row is a plain dict keyed by its JSON column names; floats are rounded to
three places only here, when a row is printed or serialised, so speedups
computed from rows use the unrounded wall times.
"""

from __future__ import annotations

import json
from typing import Iterable


def _rounded(row: dict) -> dict:
    return {
        column: round(value, 3) if isinstance(value, float) else value
        for column, value in row.items()
    }


def wall_speedups(rows: Iterable[dict], baseline: str = "sequential") -> dict[str, float]:
    """Real wall-clock speedup per backend, relative to *baseline*.

    Returns ``{backend: baseline_wall / backend_wall}`` over the rows'
    ``backend`` and ``wall_s`` columns — the measured counterpart of the
    simulated ``RunTimings.speedup``; backends whose wall time is zero
    (degenerate tiny runs) are omitted.  An absent baseline yields ``{}``.
    """
    by_backend = {row["backend"]: float(row["wall_s"]) for row in rows}
    baseline_wall = by_backend.get(baseline)
    if not baseline_wall:
        return {}
    return {
        backend: baseline_wall / wall
        for backend, wall in by_backend.items()
        if wall > 0
    }


def rows_as_json(name: str, title: str, rows: Iterable[dict]) -> str:
    """Serialise a measured series as machine-readable JSON.

    The shape (``{"name", "title", "rows": [...]}``) is what the CI smoke
    job and the ``BENCH_*.json`` perf-trajectory files consume.
    """
    return json.dumps(
        {"name": name, "title": title, "rows": [_rounded(row) for row in rows]},
        indent=2,
        sort_keys=True,
        default=str,
    )


def format_rows(rows: Iterable[dict]) -> str:
    """Render rows as an aligned text table (every column, first-seen order)."""
    dictionaries = [_rounded(row) for row in rows]
    if not dictionaries:
        return "(no rows)"
    columns = list(dict.fromkeys(column for row in dictionaries for column in row))
    widths = {
        column: max(len(str(column)), *(len(str(d.get(column, ""))) for d in dictionaries))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for entry in dictionaries:
        lines.append(
            "  ".join(str(entry.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def print_series(title: str, rows: Iterable[dict]) -> None:
    """Print a titled series table (what the benchmark logs show)."""
    print(f"\n== {title} ==")
    print(format_rows(rows))
