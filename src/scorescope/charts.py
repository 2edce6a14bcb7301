"""Hand-rolled SVG 1.1 charts: deterministic text output, no plotting deps."""

from __future__ import annotations

import re

import numpy as np

from .rdc import Rdc, ThresholdBand, log_view

WIDTH = 800
HEIGHT = 400


# code points XML 1.0 text cannot hold, lone surrogates (which UTF-8 cannot encode) among them
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _text(value: str) -> str:
    """``value`` as SVG text: markup escaped, each code point XML cannot hold written as its backslash escape."""
    value = _NOT_XML.sub(lambda m: m.group().encode("unicode_escape").decode("ascii"), value)
    # "&" first, so no entity is escaped twice; xml.sax.saxutils.escape would import urllib.request and ssl
    return value.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".") or "0"


class _Panel:
    """One plot area with data-space to pixel-space mapping."""

    def __init__(self, x0: float, y0: float, x1: float, y1: float, xmax: float, ymax: float):
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1
        self.xmax = xmax
        self.ymax = ymax if ymax > 0 else 1.0

    def px(self, x: float) -> float:
        return self.x0 + (x / self.xmax) * (self.x1 - self.x0)

    def py(self, y: float) -> float:
        return self.y1 - (y / self.ymax) * (self.y1 - self.y0)


def _bars(panel: _Panel, values: np.ndarray, color: str) -> list[str]:
    parts = []
    k = len(values)
    bar_w = (panel.x1 - panel.x0) / k
    for i, v in enumerate(values):
        if v <= 0:
            continue
        x = panel.x0 + i * bar_w
        y = panel.py(float(v))
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(panel.y1 - y)}" fill="{color}"/>'
        )
    return parts


def _axes(panel: _Panel, title: str, ymax_label: str) -> list[str]:
    return [
        f'<line x1="{_fmt(panel.x0)}" y1="{_fmt(panel.y1)}" x2="{_fmt(panel.x1)}" y2="{_fmt(panel.y1)}" stroke="#333"/>',
        f'<line x1="{_fmt(panel.x0)}" y1="{_fmt(panel.y0)}" x2="{_fmt(panel.x0)}" y2="{_fmt(panel.y1)}" stroke="#333"/>',
        f'<text x="{_fmt((panel.x0 + panel.x1) / 2)}" y="{_fmt(panel.y0 - 8)}" font-size="13" text-anchor="middle" fill="#333">{_text(title)}</text>',
        f'<text x="{_fmt(panel.x0)}" y="{_fmt(panel.y1 + 14)}" font-size="10" text-anchor="middle" fill="#333">0</text>',
        f'<text x="{_fmt(panel.x1)}" y="{_fmt(panel.y1 + 14)}" font-size="10" text-anchor="middle" fill="#333">1</text>',
        f'<text x="{_fmt(panel.x0 - 4)}" y="{_fmt(panel.y0 + 4)}" font-size="10" text-anchor="end" fill="#333">{ymax_label}</text>',
    ]


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    return "\n".join([head, f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>'] + body + ["</svg>"]) + "\n"


def rdc_chart(
    rdc: Rdc,
    band: ThresholdBand | None = None,
    mode_locations: tuple[float, ...] = (),
    title: str = "response distribution",
) -> str:
    """Two-panel bar chart of an Rdc: linear counts and log(1 + count).

    Mode locations get markers, the threshold band a shaded region (both on
    each panel).
    """
    counts = rdc.counts.astype(np.float64)
    log_counts = log_view(rdc)
    left = _Panel(50, 40, 390, 360, 1.0, float(counts.max()))
    right = _Panel(450, 40, 790, 360, 1.0, float(log_counts.max()))
    body: list[str] = []
    for panel, values, label in (
        (left, counts, f"{title} (counts, n={rdc.n})"),
        (right, log_counts, "log(1+count) view"),
    ):
        if band is not None:
            bx0, bx1 = panel.px(band.lower), panel.px(band.upper)
            body.append(
                f'<rect x="{_fmt(bx0)}" y="{_fmt(panel.y0)}" width="{_fmt(bx1 - bx0)}" '
                f'height="{_fmt(panel.y1 - panel.y0)}" fill="#cde8cd"/>'
            )
        body.extend(_bars(panel, values, "#4878a8"))
        if band is not None:
            rx = panel.px(band.recommended)
            body.append(
                f'<line x1="{_fmt(rx)}" y1="{_fmt(panel.y0)}" x2="{_fmt(rx)}" y2="{_fmt(panel.y1)}" '
                f'stroke="#2a7d2a" stroke-dasharray="4,3"/>'
            )
        for loc in mode_locations:
            mx = panel.px(loc)
            body.append(
                f'<path d="M {_fmt(mx - 5)} {_fmt(panel.y0 + 2)} L {_fmt(mx + 5)} {_fmt(panel.y0 + 2)} '
                f'L {_fmt(mx)} {_fmt(panel.y0 + 11)} Z" fill="#c0392b"/>'
            )
        body.extend(_axes(panel, label, _fmt(panel.ymax)))
    return _document(body)


def curve_chart(
    points: list[tuple[float, float]],
    x_label: str = "new model accuracy",
    y_label: str = "impacted traffic upper bound",
) -> str:
    """Line chart of (x, y) pairs with x on [min, max] and y from 0."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    span = (x_hi - x_lo) or 1.0
    panel = _Panel(70, 40, 770, 350, 1.0, max(ys) or 1.0)
    to_px = lambda x: panel.px((x - x_lo) / span)
    coords = " ".join(f"{_fmt(to_px(x))},{_fmt(panel.py(y))}" for x, y in points)
    body = [
        f'<polyline points="{coords}" fill="none" stroke="#4878a8" stroke-width="2"/>',
    ]
    for x, y in points:
        body.append(f'<circle cx="{_fmt(to_px(x))}" cy="{_fmt(panel.py(y))}" r="3" fill="#c0392b"/>')
    body.extend(
        [
            f'<line x1="{_fmt(panel.x0)}" y1="{_fmt(panel.y1)}" x2="{_fmt(panel.x1)}" y2="{_fmt(panel.y1)}" stroke="#333"/>',
            f'<line x1="{_fmt(panel.x0)}" y1="{_fmt(panel.y0)}" x2="{_fmt(panel.x0)}" y2="{_fmt(panel.y1)}" stroke="#333"/>',
            f'<text x="{_fmt((panel.x0 + panel.x1) / 2)}" y="{_fmt(panel.y1 + 30)}" font-size="12" text-anchor="middle" fill="#333">{_text(x_label)}</text>',
            f'<text x="{_fmt(panel.x0 - 6)}" y="{_fmt(panel.y0 + 4)}" font-size="10" text-anchor="end" fill="#333">{_fmt(panel.ymax)}</text>',
            f'<text x="{_fmt(panel.x0 - 6)}" y="{_fmt(panel.y1 + 4)}" font-size="10" text-anchor="end" fill="#333">0</text>',
            f'<text x="{_fmt(panel.x0)}" y="{_fmt(panel.y1 + 14)}" font-size="10" text-anchor="middle" fill="#333">{_fmt(x_lo)}</text>',
            f'<text x="{_fmt(panel.x1)}" y="{_fmt(panel.y1 + 14)}" font-size="10" text-anchor="middle" fill="#333">{_fmt(x_hi)}</text>',
            f'<text x="20" y="{_fmt((panel.y0 + panel.y1) / 2)}" font-size="12" text-anchor="middle" fill="#333" '
            f'transform="rotate(-90 20 {_fmt((panel.y0 + panel.y1) / 2)})">{_text(y_label)}</text>',
        ]
    )
    return _document(body)
