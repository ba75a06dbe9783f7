"""Minimal native SVG rendering for sample paths and histograms.

Line plots and bar overlays are emitted as plain SVG primitives so the
figure pipeline carries no plotting dependency; the CSV files written
alongside remain the ground-truth output, figures are a convenience.
"""

from __future__ import annotations

import numpy as np

__all__ = ["svg_histogram", "svg_line_plot"]

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 36, 46

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


PX0, PX1 = MARGIN_L, WIDTH - MARGIN_R
PY0, PY1 = HEIGHT - MARGIN_B, MARGIN_T


def _axes(x_lo, x_hi, y_lo, y_hi, title, xlabel, ylabel):
    parts = [
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{PX0}" y1="{PY0}" x2="{PX1}" y2="{PY0}" stroke="black"/>',
        f'<line x1="{PX0}" y1="{PY0}" x2="{PX0}" y2="{PY1}" stroke="black"/>',
        f'<text x="{(PX0 + PX1) / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{(PX0 + PX1) / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{(PY0 + PY1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(PY0 + PY1) / 2:.1f})">{ylabel}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        px = PX0 + frac * (PX1 - PX0)
        py = PY0 - frac * (PY0 - PY1)
        parts.append(
            f'<text x="{px:.1f}" y="{PY0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{PX0 - 6}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    return parts


def _plot(series, bounds, title, xlabel, ylabel, draw) -> str:
    """Axes over ``bounds`` (x_lo, x_hi, y_lo, y_hi), one ``draw(to_px,
    xs, ys, color)`` per series with its palette colour, and the legend."""
    x_lo, x_hi, y_lo, y_hi = bounds
    sx = (PX1 - PX0) / (x_hi - x_lo) if x_hi > x_lo else 0.0
    sy = (PY0 - PY1) / (y_hi - y_lo) if y_hi > y_lo else 0.0

    def to_px(x, y):
        return PX0 + (np.asarray(x) - x_lo) * sx, PY0 - (np.asarray(y) - y_lo) * sy

    parts = _axes(*bounds, title, xlabel, ylabel)
    legend_y = MARGIN_T + 8
    legend = []
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        parts.extend(draw(to_px, xs, ys, color))
        legend.append(
            f'<rect x="{WIDTH - MARGIN_R - 140}" y="{legend_y - 9}" width="12" height="12" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
        legend.append(
            f'<text x="{WIDTH - MARGIN_R - 122}" y="{legend_y + 2}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
        legend_y += 18
    body = "\n".join(parts + legend)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n{body}\n</svg>\n'
    )


def _polyline(to_px, xs, ys, color):
    px, py = to_px(xs, ys)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist()))
    return [f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.2"/>']


def _bars(to_px, edges, dens, color):
    x0, y_top = to_px(edges[:-1], dens)
    x1, y_bot = to_px(edges[1:], 0.0)
    return [
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{max(right - left, 0.1):.2f}" '
        f'height="{max(y_bot - top, 0.0):.2f}" fill="{color}" fill-opacity="0.45"/>'
        for left, right, top in zip(x0.tolist(), x1.tolist(), y_top.tolist())
    ]


def svg_line_plot(series, title: str) -> str:
    """Overlayed polylines of v against t; series is a list of (label, xs, ys)."""
    if not series:
        raise ValueError("at least one series is required")
    x_lo = min(float(np.min(xs)) for _, xs, _ in series)
    x_hi = max(float(np.max(xs)) for _, xs, _ in series)
    y_lo = min(float(np.min(ys)) for _, _, ys in series)
    y_hi = max(float(np.max(ys)) for _, _, ys in series)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    return _plot(series, (x_lo, x_hi, y_lo, y_hi), title, "t", "v", _polyline)


def svg_histogram(series, title: str) -> str:
    """Overlayed translucent density bars of v(T); series is a list of
    (label, edges, densities)."""
    if not series:
        raise ValueError("at least one series is required")
    x_lo = min(float(np.min(edges)) for _, edges, _ in series)
    x_hi = max(float(np.max(edges)) for _, edges, _ in series)
    y_hi = max(float(np.max(dens)) for _, _, dens in series)
    if y_hi == 0.0:
        y_hi = 1.0
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    return _plot(series, (x_lo, x_hi, 0.0, y_hi), title, "v(T)", "density", _bars)
