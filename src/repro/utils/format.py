"""Plain-text reporting helpers: tables and inline series.

The benchmark harness regenerates every table and figure of the paper as
text. These helpers render aligned ASCII tables and compact numeric series so
the output can be diffed and pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def format_si(value: float, unit: str = "", digits: int = 3) -> str:
    """Format ``value`` with an SI prefix (k, M, G, T)."""
    prefixes = [(1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")]
    for scale, prefix in prefixes:
        if abs(value) >= scale:
            return f"{value / scale:.{digits}g}{prefix}{unit}"
    return f"{value:.{digits}g}{unit}"


def format_bytes(num_bytes: float) -> str:
    """Format a byte count using binary prefixes (KiB, MiB, GiB)."""
    value = float(num_bytes)
    for prefix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024 or prefix == "TiB":
            return f"{value:.4g}{prefix}" if prefix != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.4g}TiB"  # pragma: no cover - unreachable

def format_seconds(seconds: float) -> str:
    """Format a duration, auto-selecting s/ms/µs (``"n/a"`` for NaN)."""
    if math.isnan(seconds):
        return "n/a"
    if seconds >= 1.0:
        return f"{seconds:.3g}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3g}ms"
    return f"{seconds * 1e6:.3g}µs"


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render a simple aligned ASCII table.

    Cell values are converted with ``str``; floats keep 4 significant digits.
    """

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("-+-".join("-" * w for w in widths))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def ascii_series(name: str, xs: Sequence[object], ys: Sequence[float]) -> str:
    """Render one named (x, y) series on a single line, for figure data."""
    pairs = ", ".join(f"{x}={y:.4g}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"
