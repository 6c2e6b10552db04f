"""SVG rendering of curve arrangements: curves black, probes shaded.

Presentation only; geometry is normalized into a fixed viewport, so the
output is deterministic for a given input but carries no exactness
guarantees beyond the source coordinates. Each viewport value is an exact
quotient num / w of source-coordinate arithmetic, rounded once to a double
and printed to three decimals.
"""

from __future__ import annotations

VIEW_W = 1000


def render_svg(polylines, probes=()) -> str:
    """Render polylines (any objects with .points) and probe strips to SVG."""
    xs, ys = [], []
    for poly in polylines:
        for p in poly.points:
            xs.append(p.x)
            ys.append(p.y)
    for pr in probes:
        xs.extend((pr.x_lo, pr.x_hi))
    if not xs:
        xs, ys = [0, 1], [0, 1]
    ys.append(0)
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    w = (maxx - minx) or 1
    h = (maxy - miny) or 1
    pad = VIEW_W // 25

    def fmt(num) -> str:
        # num / w is a correctly rounded int division when both are ints, and
        # float() of the exact Fraction otherwise: the same double either way
        return f"{float(num / w):.3f}"

    # a source length d spans d * VIEW_W / w of the viewport
    tx = {x: fmt((x - minx) * VIEW_W + pad * w) for x in set(xs)}
    ty = {y: fmt((maxy - y) * VIEW_W + pad * w) for y in set(ys)}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {VIEW_W + 2 * pad:.3f} {fmt(h * VIEW_W + 2 * pad * w)}">'
    ]
    height = fmt(maxy * VIEW_W)
    for pr in probes:
        parts.append(
            f'<rect x="{tx[pr.x_lo]}" y="{ty[maxy]}" '
            f'width="{fmt((pr.x_hi - pr.x_lo) * VIEW_W)}" '
            f'height="{height}" fill="#cccccc" fill-opacity="0.55"/>')
    parts.append(
        f'<line x1="{tx[minx]}" y1="{ty[0]}" x2="{tx[maxx]}" '
        f'y2="{ty[0]}" stroke="#888888" stroke-width="1"/>')
    for poly in polylines:
        pts = " ".join(f"{tx[p.x]},{ty[p.y]}" for p in poly.points)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_family(obj) -> str:
    """Render a CurveFamily or BurlingInstance: every member's polylines,
    and the probes of an instance."""
    return render_svg([p for m in obj.members for p in m.polylines()],
                      getattr(obj, "probes", ()))
