"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep the formatting consistent across benchmarks and example scripts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.telemetry.log import console

__all__ = ["format_table", "format_rows", "print_experiment"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence], float_fmt: str = "{:.3f}") -> str:
    """Render a fixed-width text table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for value in row:
            if isinstance(value, float):
                rendered.append(float_fmt.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    separator = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rendered_rows)
    return "\n".join([line, separator, body]) if body else "\n".join([line, separator])


def format_rows(rows: Sequence[Dict], columns: Sequence[str] | None = None, float_fmt: str = "{:.3f}") -> str:
    """Render a list of homogeneous dicts as a table."""
    if not rows:
        return "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())
    table_rows = [[row.get(col, "") for col in columns] for row in rows]
    return format_table(columns, table_rows, float_fmt=float_fmt)


def print_experiment(title: str, result: Dict, columns: Sequence[str] | None = None) -> None:
    """Print an experiment result in the standard layout used by benchmarks."""
    console()
    console("=" * len(title))
    console(title)
    console("=" * len(title))
    rows = result.get("rows")
    if rows:
        if columns is None:
            # Per-cell payloads (series, certified steps, per-flow lists)
            # would swamp the table; only scalar columns print.
            columns = [key for key, value in rows[0].items()
                       if not isinstance(value, (list, dict))]
        console(format_rows(rows, columns=columns))
    for key, value in result.items():
        # "axes" (the registry's resolved axis dict) and "profile" (the
        # merged phase report, rendered as a table by `run --profile`) are
        # structured payloads, not scalar metrics — kept out of the standard
        # layout like the row dumps.
        if key in ("rows", "series", "axes", "profile"):
            continue
        console(f"{key}: {value}")
