"""Deterministic serialization helpers: CSV, JSON, and hand-rolled SVG.

Output is meant to be byte-identical across runs and platforms, so floats
are rendered with fixed rules (17 significant digits in CSV, shortest
round-trip decimal in JSON) and lines always end with a bare newline.  The
SVG writer emits self-contained documents, polylines and text only, with
the generating command recorded in a leading comment.
"""

from __future__ import annotations

import json
import math
import sys

from .errors import FreeNormalError

__all__ = [
    "csv_cell",
    "csv_text",
    "json_text",
    "svg_figure",
    "write_text",
]


def csv_cell(value) -> str:
    """Render one CSV cell; floats get a fixed 17-significant-digit form."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """JSON with shortest round-trip floats and stable key order."""
    return json.dumps(obj, indent=2, allow_nan=False, sort_keys=False) + "\n"


def write_text(path, text: str) -> None:
    """Write to a file, or to stdout when path is None or '-'.

    ``FreeNormalError`` if the file cannot be opened or written.
    """
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise FreeNormalError(f"cannot write {path}: {exc.strerror or exc}") from exc


_COLORS = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910", "#117a8b")


def _nice_ticks(lo: float, hi: float):
    """About five round tick values covering ``[lo, hi]``."""
    if not (hi > lo):
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 0.5 * step:
        ticks.append(0.0 if abs(t) < 0.5 * step * 1e-9 else t)
        t += step
    return ticks


def _tick_label(v: float) -> str:
    if v == 0.0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e4:
        s = f"{v:.6g}"
    else:
        s = f"{v:.2e}"
    return s


def _panel(series, x0, y0, w, h, title="", xlabel="", ylabel="",
           xlog=False, ylog=False):
    """Render one plot panel as an SVG fragment at (x0, y0)."""

    def fx(v):
        return math.log10(v) if xlog else v

    def fy(v):
        return math.log10(v) if ylog else v

    xs = [fx(p[0]) for _, pts, *_ in series for p in pts]
    ys = [fy(p[1]) for _, pts, *_ in series for p in pts]
    if not xs or not ys:
        return f'<text x="{x0 + 10}" y="{y0 + 20}">empty panel</text>'
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    padx = 0.04 * (xmax - xmin)
    pady = 0.06 * (ymax - ymin)
    xmin -= padx
    xmax += padx
    ymin -= pady
    ymax += pady

    ml, mr, mt, mb = 64.0, 14.0, 26.0, 40.0
    pw, ph = w - ml - mr, h - mt - mb

    def sx(v):
        return x0 + ml + (fx(v) - xmin) / (xmax - xmin) * pw

    def sy(v):
        return y0 + mt + (ymax - fy(v)) / (ymax - ymin) * ph

    out = []
    out.append(
        f'<rect x="{x0 + ml:.2f}" y="{y0 + mt:.2f}" width="{pw:.2f}" '
        f'height="{ph:.2f}" fill="none" stroke="#444" stroke-width="1"/>'
    )
    if title:
        out.append(
            f'<text x="{x0 + ml:.2f}" y="{y0 + mt - 8:.2f}" '
            f'font-size="13" fill="#222">{title}</text>'
        )

    for t in _nice_ticks(xmin, xmax):
        px = x0 + ml + (t - xmin) / (xmax - xmin) * pw
        py = y0 + mt + ph
        label = f"1e{t:.0f}" if xlog else _tick_label(t)
        if xlog and t != round(t):
            continue
        out.append(
            f'<line x1="{px:.2f}" y1="{py:.2f}" x2="{px:.2f}" '
            f'y2="{py + 4:.2f}" stroke="#444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{py + 16:.2f}" font-size="10" '
            f'text-anchor="middle" fill="#222">{label}</text>'
        )
    for t in _nice_ticks(ymin, ymax):
        px = x0 + ml
        py = y0 + mt + (ymax - t) / (ymax - ymin) * ph
        label = f"1e{t:.0f}" if ylog else _tick_label(t)
        if ylog and t != round(t):
            continue
        out.append(
            f'<line x1="{px - 4:.2f}" y1="{py:.2f}" x2="{px:.2f}" '
            f'y2="{py:.2f}" stroke="#444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px - 7:.2f}" y="{py + 3:.2f}" font-size="10" '
            f'text-anchor="end" fill="#222">{label}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{x0 + ml + pw / 2:.2f}" y="{y0 + h - 8:.2f}" '
            f'font-size="11" text-anchor="middle" fill="#222">{xlabel}</text>'
        )
    if ylabel:
        cx, cy = x0 + 14, y0 + mt + ph / 2
        out.append(
            f'<text x="{cx:.2f}" y="{cy:.2f}" font-size="11" '
            f'text-anchor="middle" fill="#222" '
            f'transform="rotate(-90 {cx:.2f} {cy:.2f})">{ylabel}</text>'
        )

    for i, entry in enumerate(series):
        label, pts = entry[0], entry[1]
        style = entry[2] if len(entry) > 2 else {}
        color = style.get("color", _COLORS[i % len(_COLORS)])
        dash = ' stroke-dasharray="6 4"' if style.get("dash") else ""
        coords = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in pts)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.4"{dash}/>'
        )
        if label:
            ly = y0 + mt + 16 + 14 * i
            out.append(
                f'<line x1="{x0 + ml + pw - 72:.2f}" y1="{ly - 4:.2f}" '
                f'x2="{x0 + ml + pw - 56:.2f}" y2="{ly - 4:.2f}" '
                f'stroke="{color}" stroke-width="1.4"{dash}/>'
            )
            out.append(
                f'<text x="{x0 + ml + pw - 52:.2f}" y="{ly:.2f}" '
                f'font-size="10" fill="#222">{label}</text>'
            )
    return "\n".join(out)


def svg_figure(command: str, panels) -> str:
    """Assemble panels (dicts of ``_panel`` keyword arguments) into one SVG.

    The rendered document references nothing external; the generating
    command line is kept as a comment right after the XML declaration, with
    each ``--`` written as ``- -`` because XML forbids ``--`` in a comment.
    Each panel is 640 by 300 pixels, stacked vertically.
    """
    width, panel_height = 640, 300
    while "--" in command:
        command = command.replace("--", "- -")
    height = panel_height * len(panels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- generated by: {command} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="Helvetica, Arial, sans-serif">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for i, p in enumerate(panels):
        parts.append(_panel(x0=0, y0=i * panel_height, w=width,
                            h=panel_height, **p))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
