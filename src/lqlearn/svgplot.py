"""Dependency-free SVG line plots.

Deliberately minimal: polylines, axis frame, min/max tick labels and a
legend. Every number shown in a plot is also present in the emitted CSV;
richer plotting belongs to external tools reading that CSV.
"""

from __future__ import annotations

import numpy as np

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _span(values):
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) if lo != 0 else 1.0
        lo, hi = lo - 0.5 * pad, hi + 0.5 * pad
    return lo, hi


def line_plot(path, series, title, xlabel, ylabel) -> None:
    """Write an SVG with one polyline per (label, ys) pair; x runs 1..len(ys)."""
    series = [(label, list(ys)) for label, ys in series if len(ys) > 0]
    if not series:
        raise ValueError("nothing to plot")
    xlo, xhi = 1, max(len(ys) for _, ys in series)
    if xhi == xlo:
        xhi = xlo + 1
    ylo, yhi = _span([v for _, ys in series for v in ys])

    # Scalars and arrays alike: the points of a series map in one expression.
    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = xlo + frac * (xhi - xlo)
        yv = ylo + frac * (yhi - ylo)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.6g}</text>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{sy(yv) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.6g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{xlabel}</text>"
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>'
    )
    for idx, (label, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        xs = sx(np.arange(1, len(ys) + 1)).tolist()
        points = " ".join(
            [f"{x:.2f},{y:.2f}" for x, y in zip(xs, sy(np.array(ys)).tolist())]
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        ly = _MT + 16 + 15 * idx
        parts.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" x2="{_W - _MR - 96}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 90}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
