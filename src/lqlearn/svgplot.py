"""Dependency-free SVG line plots.

Deliberately minimal: polylines, axis frame, min/max tick labels and a
legend. Every number shown in a plot is also present in the emitted CSV;
richer plotting belongs to external tools reading that CSV.

The x coordinates of a frame are formatted once and kept for later plots of
that length, and a series whose float64 bytes equal an earlier series' in
the same plot reuses its points string, so a run whose sensors agree
formats one polyline; the bytes are those of formatting each point.
The title, axis labels and series labels are escaped as XML text. Every
value must be finite: a NaN or infinity has no place on the axes, so it
raises ValueError naming its series.
"""

from __future__ import annotations

from functools import lru_cache

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


# XML text escapes for the title and labels.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                          '"': "&quot;", "'": "&#39;"})


def _text(label) -> str:
    return str(label).translate(_ESCAPES)


def _sx(x, xhi):
    """Plot x of round x (a scalar or an array) on a frame of rounds 1..xhi."""
    return _ML + (x - 1) / (xhi - 1) * (_W - _ML - _MR)


@lru_cache(maxsize=8)
def _x_prefixes(n: int, xhi: int) -> tuple[str, ...]:
    """Rounds 1..n's formatted x, each with its comma: shared by every
    series and every plot on the same frame."""
    return tuple(f"{x:.2f}," for x in _sx(np.arange(1, n + 1), xhi).tolist())


def _span(lo, hi):
    if lo == hi:
        pad = abs(lo) if lo != 0 else 1.0
        lo, hi = lo - 0.5 * pad, hi + 0.5 * pad
    return lo, hi


def line_plot(path, series, title, xlabel, ylabel) -> None:
    """Write an SVG with one polyline per (label, ys) pair; x runs 1..len(ys)."""
    series = [(label, np.asarray(ys, dtype=float)) for label, ys in series
              if len(ys) > 0]
    if not series:
        raise ValueError("nothing to plot")
    for label, ys in series:
        if not np.isfinite(ys).all():
            raise ValueError(f"series {label!r} has a non-finite value")
    n_max = max(len(ys) for _, ys in series)
    xhi = max(n_max, 2)  # a one-round plot spans rounds 1 and 2
    ylo, yhi = _span(float(min(ys.min() for _, ys in series)),
                     float(max(ys.max() for _, ys in series)))

    # Scalars and arrays alike: the points of a series map in one expression.
    def sy(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_text(title)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = 1 + frac * (xhi - 1)
        yv = ylo + frac * (yhi - ylo)
        parts.append(
            f'<text x="{_sx(xv, xhi):.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.6g}</text>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{sy(yv) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.6g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{_text(xlabel)}</text>"
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">'
        f"{_text(ylabel)}</text>"
    )
    xs = _x_prefixes(n_max, xhi)
    points_of = {}  # series bytes -> its points string
    for idx, (label, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        key = ys.tobytes()
        points = points_of.get(key)
        if points is None:
            points = points_of[key] = " ".join(
                [f"{x}{y:.2f}" for x, y in zip(xs, sy(ys).tolist())])
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
            f'font-size="11">{_text(label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
