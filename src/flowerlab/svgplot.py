"""Minimal deterministic SVG rendering of 2D bodies (radial boundary polylines)."""
from __future__ import annotations

import numpy as np

from .errors import UnsupportedDimensionError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_VIEW = 640.0


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def plot_svg(bodies, labels=None) -> str:
    """Render the radial boundaries of 2D bodies with a unit-circle reference.

    bodies: iterable of 2D StarBody (flowers included) and ConvexBody
    objects; a star body is drawn from its radial samples, a convex body from
    its radial() (the radial of its half-space body).  Viewport is
    auto-scaled with a 10% margin.  Returns the SVG text.
    """
    # imported here: xml.sax loads urllib.request, about 2 MiB and 16 ms that
    # every other subcommand would pay at start-up
    from xml.sax.saxutils import escape

    snaps = []
    for b in bodies:
        grid = b.grid
        if grid.dim != 2:
            raise UnsupportedDimensionError("plot_svg renders 2D bodies only")
        snaps.append((grid.angles(), b.radial() if hasattr(b, "support") else b.radial))
    if labels is None:
        labels = [f"body {i + 1}" for i in range(len(snaps))]

    rmax = max((float(r.max()) for _, r in snaps), default=1.0)
    half = 1.1 * max(rmax, 1.0)  # include the unit circle, 10% margin
    mid = _VIEW / 2

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_VIEW)}" height="{_fmt(_VIEW)}" '
        f'viewBox="0 0 {_fmt(_VIEW)} {_fmt(_VIEW)}">',
        f'<rect width="{_fmt(_VIEW)}" height="{_fmt(_VIEW)}" fill="white"/>',
        f'<circle cx="{_fmt(mid)}" cy="{_fmt(mid)}" r="{_fmt(mid / half)}" fill="none" '
        f'stroke="#999999" stroke-dasharray="4 3" stroke-width="1"/>',
    ]
    for i, (th, r) in enumerate(snaps):
        color = PALETTE[i % len(PALETTE)]
        # in units of half, so no sum of raw coordinates can leave the floats
        px, py = (r * np.cos(th) / half + 1) * mid, (1 - r * np.sin(th) / half) * mid
        pts = [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(px, py)]
        pts.append(pts[0])
        lines.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    for i, label in enumerate(labels):
        color = PALETTE[i % len(PALETTE)]
        y = 20 + 18 * i
        lines.append(f'<rect x="12" y="{_fmt(y - 9)}" width="14" height="4" fill="{color}"/>')
        lines.append(f'<text x="32" y="{_fmt(y)}" font-family="sans-serif" font-size="13">{escape(str(label))}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
