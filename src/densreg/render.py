"""Minimal deterministic SVG emission for curves and heatmaps.

Hand-rolled on purpose: output depends only on the numbers passed in, so
repeated runs produce byte-identical files.
"""
from __future__ import annotations

import numpy as np

__all__ = ["curve_svg", "heatmap_svg"]

_W, _H, _PAD = 640, 420, 48
_CURVE = "#1f77b4"


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, float) - lo) / span * (out_hi - out_lo)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _write_svg(path, title: str, body: list) -> None:
    """An SVG file: white canvas, centred title, then the ``body`` elements."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        *body,
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def curve_svg(path, x: np.ndarray, y: np.ndarray, label: str, markers: dict, title: str) -> None:
    """Polyline plot of the curve ``y`` over ``x``, named ``label``.

    ``markers`` maps labels to (x, y) points drawn as circles, used for
    values sitting on atoms rather than the continuous grid.
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    all_y = np.concatenate([y, np.asarray([p[1] for p in markers.values()], float)])
    lo_x, hi_x = float(x.min()), float(x.max())
    lo_y, hi_y = float(all_y.min()), float(all_y.max())
    if lo_y == hi_y:
        lo_y, hi_y = lo_y - 1.0, hi_y + 1.0
    px = _scale(x, lo_x, hi_x, _PAD, _W - _PAD)
    py = _scale(y, lo_y, hi_y, _H - _PAD, _PAD)
    pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
    parts = [
        f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_H - _PAD}" stroke="black"/>',
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H - _PAD}" stroke="black"/>',
        f'<text x="{_PAD}" y="{_H - _PAD + 16}" font-size="10">{_fmt(lo_x)}</text>',
        f'<text x="{_W - _PAD}" y="{_H - _PAD + 16}" text-anchor="end" font-size="10">{_fmt(hi_x)}</text>',
        f'<text x="{_PAD - 4}" y="{_H - _PAD}" text-anchor="end" font-size="10">{_fmt(lo_y)}</text>',
        f'<text x="{_PAD - 4}" y="{_PAD + 4}" text-anchor="end" font-size="10">{_fmt(hi_y)}</text>',
        f'<polyline fill="none" stroke="{_CURVE}" stroke-width="1.5" points="{pts}"/>',
        f'<text x="{_W - _PAD}" y="{_PAD + 14}" text-anchor="end" '
        f'fill="{_CURVE}" font-size="11">{label}</text>',
    ]
    for label, (mx, my) in markers.items():
        px = float(_scale([mx], lo_x, hi_x, _PAD, _W - _PAD)[0])
        py = float(_scale([my], lo_y, hi_y, _H - _PAD, _PAD)[0])
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#333"/>')
        parts.append(
            f'<text x="{_fmt(px + 6)}" y="{_fmt(py - 6)}" font-size="10">{label}</text>'
        )
    _write_svg(path, title, parts)


def _diverging_color(v: float, vmax: float) -> str:
    """Blue (negative) through white to red (positive)."""
    if vmax <= 0:
        return "#ffffff"
    s = max(-1.0, min(1.0, v / vmax))
    if s >= 0:
        r, g, b = 255, int(255 * (1 - s)), int(255 * (1 - s))
    else:
        r, g, b = int(255 * (1 + s)), int(255 * (1 + s)), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap_svg(path, values: np.ndarray, is_atom, title: str) -> None:
    """Cell grid of a square log-odds matrix, atoms rendered as border bands."""
    values = np.asarray(values, float)
    n = values.shape[0]
    size = min((_W - 2 * _PAD) / n, (_H - 2 * _PAD) / n)
    vmax = float(np.max(np.abs(values))) if values.size else 1.0
    parts = []
    for i in range(n):
        for j in range(n):
            x = _PAD + j * size
            y = _PAD + (n - 1 - i) * size
            color = _diverging_color(values[i, j], vmax)
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(size)}" '
                f'height="{_fmt(size)}" fill="{color}"/>'
            )
    for k, flag in enumerate(np.asarray(is_atom, bool)):
        if flag:
            x = _PAD + k * size
            y = _PAD + (n - 1 - k) * size
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(_PAD)}" width="{_fmt(size)}" '
                f'height="{_fmt(n * size)}" fill="none" stroke="#444" stroke-width="0.8"/>'
            )
            parts.append(
                f'<rect x="{_fmt(_PAD)}" y="{_fmt(y)}" width="{_fmt(n * size)}" '
                f'height="{_fmt(size)}" fill="none" stroke="#444" stroke-width="0.8"/>'
            )
    parts.append(
        f'<text x="{_PAD}" y="{_H - 12}" font-size="10">scale: +/- {_fmt(vmax)}</text>'
    )
    _write_svg(path, title, parts)
