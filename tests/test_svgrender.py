import random
from fractions import Fraction

from curvefam.burling import Probe
from curvefam.geometry import Point as P, Polyline
from curvefam.svgrender import VIEW_W, render_svg


def _fraction_render(polylines, probes=()) -> str:
    """The renderer as it was before it left Fractions: every coordinate goes
    through a Fraction affine map, and each printed value is float() of an
    exact Fraction. Kept as the oracle for render_svg."""
    def fmt(v):
        return f"{float(v):.3f}"

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
            f'<rect x="{fmt(x0)}" y="{fmt(probe_top)}" width="{fmt(x1 - x0)}" '
            f'height="{fmt(probe_bot - probe_top)}" fill="#cccccc" fill-opacity="0.55"/>')
    parts.append(
        f'<line x1="{fmt(tx(minx))}" y1="{fmt(ty(0))}" x2="{fmt(tx(maxx))}" '
        f'y2="{fmt(ty(0))}" stroke="#888888" stroke-width="1"/>')
    for poly in polylines:
        pts = " ".join(f"{fmt(tx(p.x))},{fmt(ty(p.y))}" for p in poly.points)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _coord(rng):
    """An int, or a Fraction with a denominator that is not a power of two."""
    if rng.random() < 0.5:
        return rng.randint(-50, 50)
    return Fraction(rng.randint(-5000, 5000), rng.choice((3, 7, 10, 12, 97, 1000, 2**40 + 1)))


def _random_scene(rng):
    polys = []
    for i in range(rng.randint(0, 4)):
        pts = []
        while len(pts) < rng.randint(2, 6):
            p = P(_coord(rng), _coord(rng))
            if not pts or p != pts[-1]:
                pts.append(p)
        polys.append(Polyline(tuple(pts), f"c{i}"))
    probes = []
    for _ in range(rng.randint(0, 3)):
        lo = rng.randint(-40, 40)
        probes.append(Probe(lo, lo + rng.randint(1, 20)))
    return polys, probes


def test_matches_fraction_oracle():
    rng = random.Random(12)
    for _ in range(500):
        polys, probes = _random_scene(rng)
        assert render_svg(polys, probes) == _fraction_render(polys, probes)


def test_degenerate_extents_match_oracle():
    # one point column, one flat row, a lone probe and nothing at all
    for polys, probes in (
            ([Polyline((P(3, 1), P(3, 4)), "v")], ()),
            ([Polyline((P(1, 0), P(5, 0)), "h")], ()),
            ([], [Probe(2, 9)]),
            ([], [])):
        assert render_svg(polys, probes) == _fraction_render(polys, probes)
