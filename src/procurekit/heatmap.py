"""Minimal SVG heatmap rendering for two-axis scenario grids.

Produces a self-contained SVG string: colored cells, tick labels, axis
titles, and a colorbar. Plot-quality output is delegated to the long-format
CSV that accompanies every heatmap; this rendering is a quick visual check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, real_array

# three-stop gradient: dark purple, teal, yellow
_STOPS = ((68, 1, 84), (33, 145, 140), (253, 231, 37))
_MISSING = "#cccccc"

_CELL = 56
_MARGIN_LEFT = 88
_MARGIN_BOTTOM = 64
_MARGIN_TOP = 40
_COLORBAR_GAP = 28
_COLORBAR_WIDTH = 18
_MARGIN_RIGHT = _COLORBAR_GAP + _COLORBAR_WIDTH + 62


def _escape(text: str) -> str:
    """Text with &, > and < as XML entities, as xml.sax.saxutils.escape
    writes it; that module imports urllib, http and ssl."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _blend(low: tuple, high: tuple, t: float) -> tuple:
    return tuple(round(a + (b - a) * t) for a, b in zip(low, high))


def _color(t: float) -> str:
    t = min(1.0, max(0.0, t))
    if t <= 0.5:
        r, g, b = _blend(_STOPS[0], _STOPS[1], 2.0 * t)
    else:
        r, g, b = _blend(_STOPS[1], _STOPS[2], 2.0 * t - 1.0)
    return f"#{r:02x}{g:02x}{b:02x}"


def _fmt(value: float | tuple) -> str:
    # a suppliers.beta_range tick is a (low, high) pair, labelled low:high
    if isinstance(value, tuple):
        return ":".join(_fmt(v) for v in value)
    return f"{value:.4g}"


def render_heatmap_svg(
    xs: tuple,
    ys: tuple,
    values: np.ndarray,
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Render a len(xs) by len(ys) grid; values[i, j] maps to (xs[i], ys[j])."""
    values = real_array("values", values, (2,))
    if values.shape != (len(xs), len(ys)):
        raise ValidationError(
            f"values must have shape ({len(xs)}, {len(ys)}), got {values.shape}"
        )
    if len(xs) == 0 or len(ys) == 0:
        raise ValidationError("heatmap needs at least one value on each axis")

    finite = values[np.isfinite(values)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo

    width = _MARGIN_LEFT + _CELL * len(xs) + _MARGIN_RIGHT
    height = _MARGIN_TOP + _CELL * len(ys) + _MARGIN_BOTTOM
    plot_h = _CELL * len(ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">'
        f"{_escape(title)}</text>",
    ]

    # cells; y axis runs bottom-up so larger ys sit higher
    for i, x in enumerate(xs):
        for j, _ in enumerate(ys):
            value = values[i, j]
            if math.isfinite(value):
                t = 0.5 if span == 0.0 else (value - lo) / span
                fill = _color(t)
            else:
                fill = _MISSING
            cx = _MARGIN_LEFT + i * _CELL
            cy = _MARGIN_TOP + (len(ys) - 1 - j) * _CELL
            parts.append(
                f'<rect x="{cx}" y="{cy}" width="{_CELL}" height="{_CELL}" '
                f'fill="{fill}" stroke="white" stroke-width="1"/>'
            )

    # tick labels
    for i, x in enumerate(xs):
        tx = _MARGIN_LEFT + i * _CELL + _CELL / 2
        ty = _MARGIN_TOP + plot_h + 18
        parts.append(f'<text x="{tx:.1f}" y="{ty}" text-anchor="middle">{_fmt(x)}</text>')
    for j, y in enumerate(ys):
        tx = _MARGIN_LEFT - 8
        ty = _MARGIN_TOP + (len(ys) - 1 - j) * _CELL + _CELL / 2 + 4
        parts.append(f'<text x="{tx}" y="{ty:.1f}" text-anchor="end">{_fmt(y)}</text>')

    # axis titles
    parts.append(
        f'<text x="{_MARGIN_LEFT + _CELL * len(xs) / 2:.1f}" '
        f'y="{_MARGIN_TOP + plot_h + 44}" text-anchor="middle">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.1f})">{_escape(y_label)}</text>'
    )

    # colorbar, low at the bottom
    bar_x = _MARGIN_LEFT + _CELL * len(xs) + _COLORBAR_GAP
    steps = 32
    step_h = plot_h / steps
    for k in range(steps):
        t = (k + 0.5) / steps
        cy = _MARGIN_TOP + plot_h - (k + 1) * step_h
        parts.append(
            f'<rect x="{bar_x}" y="{cy:.2f}" width="{_COLORBAR_WIDTH}" '
            f'height="{step_h + 0.5:.2f}" fill="{_color(t)}"/>'
        )
    label_x = bar_x + _COLORBAR_WIDTH + 6
    parts.append(
        f'<text x="{label_x}" y="{_MARGIN_TOP + 10}" text-anchor="start">{_fmt(hi)}</text>'
    )
    parts.append(
        f'<text x="{label_x}" y="{_MARGIN_TOP + plot_h}" text-anchor="start">{_fmt(lo)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
