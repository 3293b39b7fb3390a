"""Minimal self-contained SVG chart writer: axes, legend, polylines, markers.

No external assets or scripts; output is deterministic for identical
input, so chart bytes can be diffed across runs.  Text nodes are escaped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 34, 46
TICKS = 5  # per axis, at most


@dataclass
class Series:
    label: str
    x: list[float]
    y: list[float]
    mode: str = "line"  # "line" or "points"


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / TICKS))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= TICKS:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def write_chart(
    path,
    series: list[Series],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Write the chart to ``path``, making its directory only once it has a finite point."""
    # imported here, not at the top: it loads urllib.request (40 ms, 7 MB)
    from xml.sax.saxutils import escape

    finite = [
        (x, y)
        for s in series
        for x, y in zip(s.x, s.y)
        if math.isfinite(x) and math.isfinite(y)
    ]
    if not finite:
        raise ValueError("nothing to plot: no finite points")
    xs = [p[0] for p in finite]
    ys = [p[1] for p in finite]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
        )
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" '
            'stroke="#333"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{escape(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="14" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {MARGIN_T + plot_h / 2})">{escape(y_label)}</text>'
        )
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = [
            (px(x), py(y))
            for x, y in zip(s.x, s.y)
            if math.isfinite(x) and math.isfinite(y)
        ]
        if s.mode == "points":
            for x, y in pts:
                out.append(
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{color}"/>'
                )
        else:
            poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{poly}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
    legend_y = MARGIN_T + 14
    for idx, s in enumerate(series[:10]):
        color = PALETTE[idx % len(PALETTE)]
        out.append(
            f'<rect x="{MARGIN_L + plot_w - 130}" y="{legend_y - 8}" width="10" '
            f'height="10" fill="{color}"/>'
        )
        out.append(
            f'<text x="{MARGIN_L + plot_w - 115}" y="{legend_y + 1}" '
            f'font-family="sans-serif" font-size="10">{escape(s.label)}</text>'
        )
        legend_y += 14
    out.append("</svg>")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(out) + "\n")
