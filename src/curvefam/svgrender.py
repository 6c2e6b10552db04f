"""SVG rendering of curve arrangements: curves black, probes shaded.

Presentation only; geometry is normalized into a fixed viewport, so the
output is deterministic for a given input but carries no exactness
guarantees beyond the source coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .burling import BurlingInstance

VIEW_W = 1000


def _fmt(v: Fraction) -> str:
    return f"{float(v):.3f}"


def render_svg(polylines, probes=()) -> str:
    """Render polylines (any objects with .points) and probe strips to SVG."""
    xs, ys = [], []
    for poly in polylines:
        for p in poly.points:
            xs.append(Fraction(p.x))
            ys.append(Fraction(p.y))
    for pr in probes:
        xs.extend((Fraction(pr.x_lo), Fraction(pr.x_hi)))
    if not xs:
        xs, ys = [Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)]
    ys.append(Fraction(0))
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    w = (maxx - minx) or Fraction(1)
    h = (maxy - miny) or Fraction(1)
    pad = Fraction(VIEW_W, 25)
    sx = Fraction(VIEW_W) / w
    view_h = h * sx + 2 * pad

    def tx(x):
        return (Fraction(x) - minx) * sx + pad

    def ty(y):
        return (maxy - Fraction(y)) * sx + pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {VIEW_W + 2 * float(pad):.3f} {float(view_h):.3f}">'
    ]
    probe_top = ty(maxy)
    probe_bot = ty(0)
    for pr in probes:
        x0, x1 = tx(pr.x_lo), tx(pr.x_hi)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(probe_top)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(probe_bot - probe_top)}" fill="#cccccc" fill-opacity="0.55"/>')
    parts.append(
        f'<line x1="{_fmt(tx(minx))}" y1="{_fmt(ty(0))}" x2="{_fmt(tx(maxx))}" '
        f'y2="{_fmt(ty(0))}" stroke="#888888" stroke-width="1"/>')
    for poly in polylines:
        pts = " ".join(f"{_fmt(tx(p.x))},{_fmt(ty(p.y))}" for p in poly.points)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_family(obj) -> str:
    """Render a CurveFamily or BurlingInstance."""
    if isinstance(obj, BurlingInstance):
        polys = [p for m in obj.members for p in m.polylines()]
        return render_svg(polys, obj.probes)
    return render_svg([m.curve for m in obj.members])
