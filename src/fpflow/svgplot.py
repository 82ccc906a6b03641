"""Minimal deterministic SVG line plots (semilog-y), no plotting dependency.

Produces self-contained SVG strings: decade gridlines, axis labels, a
legend, and one polyline per series.  Points with nonpositive or
non-finite y are dropped, splitting the polyline so that round-off noise
at an equilibrium does not draw misleading connecting segments.  Output
is a pure function of the inputs -- no timestamps, ids or randomness --
so regenerated files are byte-identical.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 78, 24, 46, 56


def _fmt(value: float) -> str:
    out = f"{value:.6g}"
    return "0" if out == "-0" else out


def semilogy_svg(
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    title: str = "",
    xlabel: str = "t",
    ylabel: str = "",
) -> str:
    """Render (label, x, y) triples as a semilog-y SVG plot."""
    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError(f"series {label!r} must carry equal-length 1D arrays")
        cleaned.append((str(label), x, y))

    keep_masks = [np.isfinite(y) & (y > 0.0) & np.isfinite(x) for _, x, y in cleaned]
    have_points = any(bool(np.any(m)) for m in keep_masks)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="26" text-anchor="middle" '
            f'font-size="15" fill="#222">{_escape(title)}</text>'
        )
    if not have_points:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT / 2:.0f}" text-anchor="middle" '
            f'font-size="13" fill="#666">no positive data to plot</text>'
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    x_lo = min(float(np.min(x[m])) for (_, x, _), m in zip(cleaned, keep_masks) if np.any(m))
    x_hi = max(float(np.max(x[m])) for (_, x, _), m in zip(cleaned, keep_masks) if np.any(m))
    y_lo = min(float(np.min(y[m])) for (_, _, y), m in zip(cleaned, keep_masks) if np.any(m))
    y_hi = max(float(np.max(y[m])) for (_, _, y), m in zip(cleaned, keep_masks) if np.any(m))
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_lo + 0.5
    e_lo = math.floor(math.log10(y_lo))
    e_hi = math.ceil(math.log10(y_hi))
    if e_hi <= e_lo:
        e_hi = e_lo + 1

    pw = _WIDTH - _ML - _MR
    ph = _HEIGHT - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return _MT + (1.0 - (math.log10(y) - e_lo) / (e_hi - e_lo)) * ph

    # Decade gridlines and y tick labels (thinned when there are many decades).
    stride = max(1, (e_hi - e_lo + 9) // 10)
    for e in range(e_lo, e_hi + 1):
        yy = py(10.0**e)
        parts.append(
            f'<line x1="{_ML}" y1="{yy:.2f}" x2="{_ML + pw}" y2="{yy:.2f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        if (e - e_lo) % stride == 0:
            parts.append(
                f'<text x="{_ML - 8}" y="{yy + 4:.2f}" text-anchor="end" '
                f'font-size="11" fill="#444">1e{e}</text>'
            )

    for i in range(6):
        xv = x_lo + (x_hi - x_lo) * i / 5.0
        xx = px(xv)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{_MT}" x2="{xx:.2f}" y2="{_MT + ph}" '
            f'stroke="#eee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{_MT + ph + 18}" text-anchor="middle" '
            f'font-size="11" fill="#444">{_fmt(xv)}</text>'
        )

    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#888" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_ML + pw / 2:.0f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-size="12" fill="#222">{_escape(xlabel)}</text>'
    )
    if ylabel:
        yc = _MT + ph / 2
        parts.append(
            f'<text x="20" y="{yc:.0f}" text-anchor="middle" font-size="12" '
            f'fill="#222" transform="rotate(-90 20 {yc:.0f})">{_escape(ylabel)}</text>'
        )

    for idx, ((label, x, y), mask) in enumerate(zip(cleaned, keep_masks)):
        color = _PALETTE[idx % len(_PALETTE)]
        for seg in _segments(mask):
            pts = " ".join(
                f"{px(float(xv)):.2f},{py(float(yv)):.2f}"
                for xv, yv in zip(x[seg], y[seg])
            )
            if len(seg) == 1:
                xv, yv = float(x[seg][0]), float(y[seg][0])
                parts.append(
                    f'<circle cx="{px(xv):.2f}" cy="{py(yv):.2f}" r="2.2" fill="{color}"/>'
                )
            else:
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="1.8"/>'
                )

    # Legend, top-right inside the plot box.
    for idx, (label, _, _) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        ly = _MT + 16 + 16 * idx
        lx = _ML + pw - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="11" fill="#222">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _segments(mask: np.ndarray) -> list[np.ndarray]:
    """Runs of consecutive kept indices (each run becomes one polyline)."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    return [seg for seg in np.split(idx, breaks + 1)]


def _escape(text: str) -> str:
    """XML text with non-ASCII characters as character references, so SVGs stay ASCII."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text.encode("ascii", "xmlcharrefreplace").decode("ascii")
