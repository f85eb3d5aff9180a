"""Every file sensan writes: report JSON, CSV tables and SVG line plots.

This is the one module that opens files for writing. `report.json` is
`json.dump` with an indent of 2 and a final newline. A table has a
header row and writes floats as repr, integer columns as integers and
text columns as text. A column whose values repeat formats each
distinct value once and looks it up for the other rows, which writes
the same bytes as formatting every row: a 2-d node table has only as
many distinct coordinates as grid nodes per axis. Node tables of fields
and samples and the Monte Carlo `table.csv` end their lines in CRLF;
1-d curve tables and the education `table.csv` end them in LF. Plots
are SVG polylines on a fixed canvas, so a run can be eyeballed without
any plotting stack; CSV stays the canonical artifact.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

__all__ = ["line_plot", "write_curves", "write_json", "write_table"]

_ROW_BLOCK = 1024   # rows that write_table formats at a time
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 16, 34, 46


def _ticks(lo: float, hi: float, want: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0.0 or not math.isfinite(span):
        return [lo]
    raw = span / want
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 2.5, 5.0, 10.0)), key=lambda m: abs(m * mag - raw)) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


def line_plot(path: str, curves, title: str = "", xlabel: str = "",
              ylabel: str = "") -> None:
    """Write a line plot. `curves` is a sequence of (label, x, y)."""
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in curves])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in curves])
    xlo, xhi = float(np.min(xs)), float(np.max(xs))
    ylo, yhi = float(np.min(ys)), float(np.max(ys))
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    # plain floats and float64 arrays alike
    def px(v):
        return _ML + (v - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    # axes box and ticks
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="#888"/>')
    for t in _ticks(xlo, xhi):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" '
                     f'y2="{_H - _MB + 4}" stroke="#888"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 17}" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(ylo, yhi):
        y = py(t)
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" '
                     f'y2="{y:.1f}" stroke="#888"/>')
        parts.append(f'<text x="{_ML - 7}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{_fmt(t)}</text>')
        parts.append(f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" '
                     f'y2="{y:.1f}" stroke="#eee"/>')
    if xlabel:
        parts.append(f'<text x="{_W / 2:.0f}" y="{_H - 10}" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_H / 2:.0f})">{ylabel}</text>')
    for k, (label, x, y) in enumerate(curves):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(map("{:.2f},{:.2f}".format,
                           px(np.asarray(x, dtype=float)).tolist(),
                           py(np.asarray(y, dtype=float)).tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        if label:
            yleg = _MT + 16 + 16 * k
            parts.append(f'<line x1="{_W - _MR - 130}" y1="{yleg - 4}" '
                         f'x2="{_W - _MR - 110}" y2="{yleg - 4}" '
                         f'stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{_W - _MR - 105}" y="{yleg}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _distinct_text(c: np.ndarray, fmt):
    """(text of each distinct value as an object array, index of each
    entry into it) for a column whose values repeat, on average at least
    twice, else None. Floats are told apart by their bits, so -0.0 and
    0.0 keep their own text."""
    key = c.view(np.int64) if c.dtype.kind == "f" else c
    uniq, inverse = np.unique(key, return_inverse=True)
    # a mostly distinct column gains little and would hold most of its
    # text at once; it is formatted block by block instead
    if 2 * len(uniq) > len(c):
        return None
    values = uniq.view(c.dtype) if c.dtype.kind == "f" else uniq
    return np.array(list(map(fmt, values.tolist())), dtype=object), inverse


def write_table(path: str, header, columns, eol: str = "\n") -> None:
    """CSV with a header row and one row per entry of the columns. Floats
    are written as repr, integer columns as integers and text columns as
    text, each distinct value of a repeating column formatted once."""
    n = min(map(len, columns))
    columns = [c[:n] if c.dtype.kind in "iuU" else c[:n].astype(float, copy=False)
               for c in map(np.asarray, columns)]
    # str equals repr on floats and ints but is slower; text needs it
    fmt = str if any(c.dtype.kind == "U" for c in columns) else repr
    distinct = [_distinct_text(c, fmt) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + eol)
        # rows in bounded blocks: Python strings for whole columns would
        # cost several megabytes on a 2-d grid
        for start in range(0, n, _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            cells = [list(map(fmt, c[block].tolist())) if d is None
                     else d[0][d[1][block]].tolist()
                     for c, d in zip(columns, distinct)]
            fh.write(eol.join(map(",".join, zip(*cells))) + eol)


def write_curves(out: str, name: str, header, columns, title: str,
                 ylabel: str) -> tuple[str, str]:
    """Write curves/<name>.csv and plots/<name>.svg under out, the plot
    drawing columns[1:] against columns[0] with legends header[1:], and
    return both paths."""
    table = os.path.join(out, "curves", name + ".csv")
    plot = os.path.join(out, "plots", name + ".svg")
    write_table(table, header, columns)
    line_plot(plot, [(h, columns[0], c) for h, c in zip(header[1:], columns[1:])],
              title=title, xlabel=header[0], ylabel=ylabel)
    return table, plot
