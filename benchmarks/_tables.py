"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures/tables as a text
table: printed to stdout and written under ``benchmarks/results/`` so
EXPERIMENTS.md can reference the latest run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

RESULTS_DIR = Path(__file__).parent / "results"


def format_table(
    title: str, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    rows = [tuple(str(c) for c in r) for r in rows]
    header = tuple(str(c) for c in header)
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    lines = [title, fmt(header), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def emit_table(
    name: str,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
) -> str:
    """Print a table and persist it to benchmarks/results/<name>.txt."""
    text = format_table(title, header, rows)
    if notes:
        text += "\n" + notes
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text

