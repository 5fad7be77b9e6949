"""Terminal rendering helpers for experiment output.

The benches, examples, and the CLI all print timelines and tables to the
terminal; these helpers keep that rendering in one place.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np


__all__ = ["sparkline", "format_table", "span_timeline"]

_BLOCKS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 70,
              lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Compress ``values`` into a fixed-width density string.

    By default the scale runs from 0 to the series maximum. ``lo`` /
    ``hi`` pin the scale instead (values outside are clamped), so
    bounded signals — a ``[0, 1]`` pressure index, an SLO floor — render
    against their domain rather than the observed range, and two
    sparklines drawn with the same bounds are directly comparable.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return ""
    floor = 0.0 if lo is None else float(lo)
    top = (v.max() if hi is None else float(hi)) - floor
    if top <= 0:
        return " " * min(width, v.size)
    v = np.clip((v - floor) / top, 0.0, 1.0)
    bins = np.array_split(v, min(width, v.size))
    return "".join(_BLOCKS[int(b.mean() * (len(_BLOCKS) - 1))]
                   for b in bins)


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 indent: str = "  ") -> list[str]:
    """Fixed-width text table (right-aligned numbers, left-aligned text)."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    cols = list(zip(*([list(headers)] + str_rows))) if str_rows \
        else [headers]
    widths = [max(len(c) for c in col) for col in cols]
    lines = [indent + "  ".join(h.ljust(w)
                                for h, w in zip(headers, widths))]
    for row in str_rows:
        cells = []
        for cell, w, orig in zip(row, widths, row):
            cells.append(cell.rjust(w) if _numeric(orig) else cell.ljust(w))
        lines.append(indent + "  ".join(cells))
    return lines


def span_timeline(spans: Iterable[tuple],
                  t0: Optional[float] = None,
                  t1: Optional[float] = None,
                  width: int = 60,
                  label_width: int = 28) -> list[str]:
    """ASCII Gantt chart of ``(label, start, end)`` rows.

    Rows share one time axis from ``t0`` to ``t1`` (defaulting to the
    earliest start / latest end); each prints as a labelled bar plus
    its absolute interval, so traced migration phases can be inspected
    without leaving the terminal::

        vm0 round-1       |####                | 0.10-2.30s
        vm0 stop-and-copy |    ##              | 2.30-3.10s
    """
    rows = [(str(label), float(s), float(e)) for label, s, e in spans]
    if not rows:
        return ["  (no spans)"]
    lo = min(s for _, s, _ in rows) if t0 is None else float(t0)
    hi = max(e for _, _, e in rows) if t1 is None else float(t1)
    if hi <= lo:
        hi = lo + 1.0
    scale = width / (hi - lo)
    lines = [f"  {'':<{label_width}s}|{lo:<{width - 9}.2f}{hi:>8.2f}s|"]
    for label, s, e in rows:
        i0 = int(np.clip((s - lo) * scale, 0, width - 1))
        i1 = int(np.clip(np.ceil((e - lo) * scale), i0 + 1, width))
        bar = " " * i0 + "#" * (i1 - i0) + " " * (width - i1)
        lines.append(f"  {label:<{label_width}.{label_width}s}|{bar}| "
                     f"{s:.2f}-{e:.2f}s")
    return lines


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:,.1f}"
    return str(cell)


def _numeric(cell: str) -> bool:
    try:
        float(cell.replace(",", ""))
        return True
    except ValueError:
        return False
