"""Minimal standalone SVG plots (no plotting dependency).

CSV files are the ground truth; these log-log scatter/line plots are a
convenience for eyeballing sweeps.
"""

from __future__ import annotations

import math
from typing import Sequence

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 60


def _ticks(lo: float, hi: float) -> list[int]:
    a = math.floor(math.log10(lo))
    b = math.ceil(math.log10(hi))
    return list(range(a, b + 1))


def write_loglog_svg(
    path,
    xs: Sequence[float],
    ys: Sequence[float],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
):
    """Log-log plot of the positive points of ys against xs."""
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    allx = [p[0] for p in pts] or [1e-3, 1e-1]
    ally = [p[1] for p in pts] or [1e-3, 1e-1]
    x_lo, x_hi = min(allx) / 1.5, max(allx) * 1.5
    y_lo, y_hi = min(ally) / 1.5, max(ally) * 1.5

    def sx(x):
        return _ML + (math.log10(x) - math.log10(x_lo)) / (
            math.log10(x_hi) - math.log10(x_lo)
        ) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (math.log10(y) - math.log10(y_lo)) / (
            math.log10(y_hi) - math.log10(y_lo)
        ) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W/2}" y="{_H-15}" text-anchor="middle">{xlabel}</text>',
        f'<text x="18" y="{_H/2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_H/2})">{ylabel}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        'fill="none" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        v = 10.0**t
        if x_lo <= v <= x_hi:
            parts.append(
                f'<line x1="{sx(v):.1f}" y1="{_H-_MB}" x2="{sx(v):.1f}" y2="{_H-_MB+5}" stroke="black"/>'
                f'<text x="{sx(v):.1f}" y="{_H-_MB+18}" text-anchor="middle">1e{t}</text>'
            )
    for t in _ticks(y_lo, y_hi):
        v = 10.0**t
        if y_lo <= v <= y_hi:
            parts.append(
                f'<line x1="{_ML-5}" y1="{sy(v):.1f}" x2="{_ML}" y2="{sy(v):.1f}" stroke="black"/>'
                f'<text x="{_ML-8}" y="{sy(v)+4:.1f}" text-anchor="end">1e{t}</text>'
            )
    if pts:
        path_d = " ".join(f"{'M' if i == 0 else 'L'}{sx(x):.1f},{sy(y):.1f}" for i, (x, y) in enumerate(pts))
        parts.append(f'<path d="{path_d}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="#1f77b4"/>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")
