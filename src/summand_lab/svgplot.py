"""Deterministic SVG line plots: fixed canvas, fixed coordinate precision,
no timestamps, so outputs are byte-stable and diffable in CI."""

from __future__ import annotations

from typing import Sequence

CANVAS_W = 640.0
CANVAS_H = 400.0
MARGIN_L = 64.0
MARGIN_R = 16.0
MARGIN_T = 28.0
MARGIN_B = 44.0

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


class PlotError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _label(x: float) -> str:
    return f"{x:.6g}"


def _span(lo: float, hi: float) -> tuple[float, float]:
    """lo and hi apart: a zero span is padded by 1.0 each way, and where
    that rounds away (|lo| near 1e16 or more), by the bounds' own size."""
    if hi - lo == 0.0:
        lo, hi = lo - 1.0, hi + 1.0
    if hi - lo == 0.0:
        lo, hi = lo - abs(lo), hi + abs(hi)
    return lo, hi


def _bounds(series):
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy]
    return (*_span(min(xs), max(xs)), *_span(min(ys), max(ys)))


def line_plot_svg(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render labeled polylines. series: (label, xs, ys) triples.

    Raises PlotError("nothing to plot") for an empty table.
    """
    series = [(lab, tuple(map(float, xs)), tuple(map(float, ys))) for lab, xs, ys in series]
    series = [(lab, xs, ys) for lab, xs, ys in series if xs]
    if not series:
        raise PlotError("nothing to plot")
    for lab, xs, ys in series:
        if len(xs) != len(ys):
            raise PlotError(f"series {lab!r}: x/y length mismatch")

    x0, x1, y0, y1 = _bounds(series)
    plot_w = CANVAS_W - MARGIN_L - MARGIN_R
    plot_h = CANVAS_H - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def py(y):
        return MARGIN_T + (y1 - y) / (y1 - y0) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(CANVAS_W)}" '
        f'height="{int(CANVAS_H)}" viewBox="0 0 {int(CANVAS_W)} {int(CANVAS_H)}">'
    )
    out.append(f'<rect x="0" y="0" width="{int(CANVAS_W)}" height="{int(CANVAS_H)}" fill="#ffffff"/>')
    # frame
    out.append(
        f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    # ticks: 5 per axis
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4.0
        fy = y0 + (y1 - y0) * i / 4.0
        gx = px(fx)
        gy = py(fy)
        out.append(
            f'<line x1="{_fmt(gx)}" y1="{_fmt(MARGIN_T + plot_h)}" x2="{_fmt(gx)}" '
            f'y2="{_fmt(MARGIN_T + plot_h + 4)}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(gx)}" y="{_fmt(MARGIN_T + plot_h + 16)}" font-size="10" '
            f'font-family="monospace" text-anchor="middle">{_label(fx)}</text>'
        )
        out.append(
            f'<line x1="{_fmt(MARGIN_L - 4)}" y1="{_fmt(gy)}" x2="{_fmt(MARGIN_L)}" '
            f'y2="{_fmt(gy)}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(MARGIN_L - 6)}" y="{_fmt(gy + 3)}" font-size="10" '
            f'font-family="monospace" text-anchor="end">{_label(fy)}</text>'
        )
    if title:
        out.append(
            f'<text x="{_fmt(CANVAS_W / 2)}" y="18" font-size="13" font-family="monospace" '
            f'text-anchor="middle">{_escape(title)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_fmt(CANVAS_W / 2)}" y="{_fmt(CANVAS_H - 10)}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{_escape(xlabel)}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="14" y="{_fmt(MARGIN_T + plot_h / 2)}" font-size="11" font-family="monospace" '
            f'text-anchor="middle" transform="rotate(-90 14 {_fmt(MARGIN_T + plot_h / 2)})">'
            f"{_escape(ylabel)}</text>"
        )
    for k, (lab, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        ly = MARGIN_T + 14.0 + 14.0 * k
        out.append(
            f'<line x1="{_fmt(MARGIN_L + plot_w - 120)}" y1="{_fmt(ly - 3)}" '
            f'x2="{_fmt(MARGIN_L + plot_w - 104)}" y2="{_fmt(ly - 3)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_fmt(MARGIN_L + plot_w - 100)}" y="{_fmt(ly)}" font-size="10" '
            f'font-family="monospace">{_escape(lab)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
