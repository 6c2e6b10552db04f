"""Exact planar primitives for curves anchored to a horizontal baseline.

All coordinates are exact numbers: Python ints (fixed-point, units of
1/scale) or Fractions produced by cutting edges off the integer grid; a
whole-number Fraction is stored as an int. Every predicate is decided
with integer/rational arithmetic only, so results are invariant under
scaling and never suffer floating-point flakiness. Python integers are
arbitrary precision, which subsumes the wide-intermediate requirement for
orientation tests.

The baseline is the line y = 0; the closed upper half-plane is y >= 0.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .errors import (
    CollinearError,
    ContractError,
    OverlapError,
    TangencyError,
)

Coord = Union[int, Fraction]

#: Loader limit on polyline vertices per curve. The underlying theory puts no
#: bound on curve complexity; this cap only guards resource use.
MAX_POLYLINE_VERTICES = 10_000

#: Generator limit on the double-curves of one probe-construction level.
#: Level 5 (39,733) fits; level 6 (2,375,752,501) could never be built.
MAX_GENERATED_CURVES = 1_000_000

#: Magnitude contract for fixed-point coordinates.
MAX_COORD_MAGNITUDE = 2**62


def is_exact(v) -> bool:
    """True if v is an exact coordinate (int or Fraction, not bool/float)."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


@dataclass(init=False, unsafe_hash=True, slots=True)
class Point:
    """A point with exact coordinates. y = 0 is the baseline."""

    x: Coord
    y: Coord

    def __init__(self, x: Coord, y: Coord):
        if type(x) is not int or type(y) is not int:
            if not is_exact(x) or not is_exact(y):
                raise TypeError(f"coordinates must be int or Fraction, got {x!r}, {y!r}")
            # Whole numbers are stored as ints, so every point that is integral
            # keeps the predicates on int arithmetic. Equality and hashing are
            # unchanged: Fraction(5, 1) == 5 and both hash alike.
            if type(x) is not int and x.denominator == 1:
                x = x.numerator
            if type(y) is not int and y.denominator == 1:
                y = y.numerator
        self.x = x
        self.y = y

    def __iter__(self):
        return iter((self.x, self.y))

    def scaled(self, factor: int) -> "Point":
        return Point(self.x * factor, self.y * factor)


def _quotient(n: Coord, d: Coord) -> Coord:
    """n / d exactly: an int when d divides n, else a Fraction."""
    if type(n) is int and n % d == 0:
        return n // d
    return Fraction(n, d)


def orientation(o: Point, a: Point, b: Point) -> int:
    """Sign of the cross product (a - o) x (b - o).

    +1 for a counter-clockwise turn, -1 for clockwise, 0 for collinear.
    """
    v = (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
    return (v > 0) - (v < 0)


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True if p lies on the closed segment ab."""
    if orientation(a, b, p) != 0:
        return False
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


class SegRelation(enum.Enum):
    DISJOINT = "disjoint"
    POINT = "point"
    OVERLAP = "overlap"


# Module globals for the pair loops: an enum attribute read costs about 100 ns.
_DISJOINT, _POINT, _OVERLAP = SegRelation.DISJOINT, SegRelation.POINT, SegRelation.OVERLAP
_NO_MEETING = (_DISJOINT, None)


def segment_intersection(p1: Point, p2: Point, q1: Point, q2: Point):
    """Classify the intersection of closed segments p1p2 and q1q2.

    Returns (SegRelation.DISJOINT, None), (SegRelation.POINT, point) or
    (SegRelation.OVERLAP, (a, b)) where ab is the shared subsegment of
    positive length. All computed points are exact. The exact test of every
    pair loop: it rejects a pair once one segment lies strictly on one side
    of the other's line, and settles a proper crossing before the collinear
    and touching cases.
    """
    ax, ay, bx, by, cx, cy, dx, dy = p1.x, p1.y, p2.x, p2.y, q1.x, q1.y, q2.x, q2.y
    px, py, qx, qy = bx - ax, by - ay, dx - cx, dy - cy
    c1 = qx * (ay - cy) - qy * (ax - cx)
    c2 = qx * (by - cy) - qy * (bx - cx)
    if (c1 > 0 and c2 > 0) or (c1 < 0 and c2 < 0):
        return _NO_MEETING
    c3 = px * (cy - ay) - py * (cx - ax)
    c4 = px * (dy - ay) - py * (dx - ax)
    if (c3 > 0 and c4 > 0) or (c3 < 0 and c4 < 0):
        return _NO_MEETING

    if c1 and c2 and c3 and c4:
        # Proper crossing in both interiors: the point is p1 + (c1/den)(p2 - p1).
        den = c1 - c2                       # = qy * px - qx * py
        x, y = ax * den + c1 * px, ay * den + c1 * py
        if type(x) is int and type(y) is int and x % den == 0 and y % den == 0:
            return _POINT, Point(x // den, y // den)
        return _POINT, Point(_quotient(x, den), _quotient(y, den))

    if not (c1 or c2 or c3 or c4):
        # Collinear: project on the dominant axis and intersect parameter ranges.
        if ax != bx or cx != dx:
            key = lambda pt: pt.x
        else:
            key = lambda pt: pt.y
        lo_p, hi_p = sorted((p1, p2), key=key)
        lo_q, hi_q = sorted((q1, q2), key=key)
        lo = max(key(lo_p), key(lo_q))
        hi = min(key(hi_p), key(hi_q))
        if lo > hi:
            return _NO_MEETING
        pick = lambda v: lo_p if key(lo_p) == v else (hi_p if key(hi_p) == v else
                                                      (lo_q if key(lo_q) == v else hi_q))
        if lo == hi:
            return _POINT, pick(lo)
        return _OVERLAP, (pick(lo), pick(hi))

    # Touching cases: an endpoint of one segment lies on the other.
    for pt, da, (a, b) in ((p1, c1, (q1, q2)), (p2, c2, (q1, q2)),
                           (q1, c3, (p1, p2)), (q2, c4, (p1, p2))):
        if da == 0 and on_segment(pt, a, b):
            return _POINT, pt
    return _NO_MEETING


@dataclass(init=False, unsafe_hash=True, slots=True)
class Polyline:
    """A simple open polyline with exact vertices and an opaque id. bbox is
    (xmin, ymin, xmax, ymax) over the vertices; it takes no part in equality,
    hashing or repr."""

    points: tuple
    id: str = ""
    bbox: tuple = field(init=False, compare=False, repr=False)

    def __init__(self, points, id: str = ""):
        if type(points) is not tuple:
            points = tuple(points)
        if len(points) < 2:
            raise ContractError(f"polyline {id!r} needs at least 2 points")
        if len(points) > MAX_POLYLINE_VERTICES:
            raise ContractError(f"polyline {id!r} exceeds the {MAX_POLYLINE_VERTICES}-vertex cap")
        p = points[0]
        x0 = x1 = px = p.x
        y0 = y1 = py = p.y
        for p in points[1:]:
            x, y = p.x, p.y
            if y == py and x == px:             # y first: a crossing's y is the int 0
                raise ContractError(f"polyline {id!r} repeats vertex {p}")
            if x > x1:                          # most curves run rightward
                x1 = x
            elif x < x0:
                x0 = x
            if y > y1:
                y1 = y
            elif y < y0:
                y0 = y
            px, py = x, y
        self.points = points
        self.id = id
        self.bbox = (x0, y0, x1, y1)

    def reversed(self) -> "Polyline":
        return Polyline(self.points[::-1], self.id)

    def scaled(self, factor: int) -> "Polyline":
        return Polyline(tuple(p.scaled(factor) for p in self.points), self.id)


_xy = operator.attrgetter("x", "y")


def _segment_boxes(points) -> list:
    """Per segment ab of the vertex sequence points, in order, the tuple
    (xmin, xmax, ymin, ymax, a, b)."""
    boxes = []
    a = points[0]
    ax, ay = a.x, a.y
    for b in points[1:]:
        bx, by = b.x, b.y
        boxes.append((ax if ax < bx else bx, bx if ax < bx else ax,
                      ay if ay < by else by, by if ay < by else ay, a, b))
        a, ax, ay = b, bx, by
    return boxes


def validate_simple(poly: Polyline) -> None:
    """Reject self-intersecting polylines.

    Adjacent edges may meet only at their shared vertex; all other edge pairs
    must be disjoint. Two adjacent edges share a vertex, so they meet
    elsewhere exactly when they are collinear and reverse direction: one
    cross product and one dot product of the edge vectors decide the pair,
    and the exact segment test runs only on the others whose boxes meet.
    The fold-backs are found from the vertices first, so a polyline of at
    most two edges builds no boxes.
    """
    pts = poly.points
    n = len(pts) - 1
    fold = n        # the first i whose edges i and i + 1 fold back, else n
    for i in range(n - 1):
        a1, a2, a3 = pts[i], pts[i + 1], pts[i + 2]
        ux, uy, vx, vy = a2.x - a1.x, a2.y - a1.y, a3.x - a2.x, a3.y - a2.y
        if ux * vy == uy * vx and ux * vx + uy * vy < 0:
            fold = i
            break
    if n > 2:
        boxes = _segment_boxes(pts)
        for i, (sx0, sx1, sy0, sy1, a1, a2) in enumerate(boxes[:fold]):
            for j, (tx0, tx1, ty0, ty1, b1, b2) in enumerate(boxes[i + 2:], i + 2):
                if sx1 < tx0 or tx1 < sx0 or sy1 < ty0 or ty1 < sy0:
                    continue
                rel, _ = segment_intersection(a1, a2, b1, b2)
                if rel is not _DISJOINT:
                    raise ContractError(
                        f"polyline {poly.id!r} self-intersects between edges {i} and {j}")
    if fold < n:
        raise ContractError(f"polyline {poly.id!r} folds back on itself at edge {fold}-{fold + 1}")


def _box_pairs(a: Polyline, b: Polyline) -> list:
    """(a1, a2, b1, b2) for each segment pair whose boxes meet.

    The one segment-pair loop of the pairwise predicates. The segment boxes
    are built per call; segments outside the other polyline's bounding box
    are dropped before the pair loop.
    Plain loops, not comprehensions: a comprehension would turn the box
    bounds into closure cells, which costs every call, and most calls end
    at the first test.
    """
    ax0, ay0, ax1, ay1 = a.bbox
    bx0, by0, bx1, by1 = b.bbox
    pairs = []
    if ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
        return pairs
    b_boxes = []
    for box in _segment_boxes(b.points):
        if not (box[1] < ax0 or ax1 < box[0] or box[3] < ay0 or ay1 < box[2]):
            b_boxes.append(box)
    for sx0, sx1, sy0, sy1, a1, a2 in _segment_boxes(a.points):
        if sx1 < bx0 or bx1 < sx0 or sy1 < by0 or by1 < sy0:
            continue
        for tx0, tx1, ty0, ty1, b1, b2 in b_boxes:
            if not (sx1 < tx0 or tx1 < sx0 or sy1 < ty0 or ty1 < sy0):
                pairs.append((a1, a2, b1, b2))
    return pairs


def segments_intersect(a: Polyline, b: Polyline) -> list:
    """All common points of two simple polylines, exactly.

    A shared point is reported once even when several vertex-adjacent edges
    meet there. Raises OverlapError if the polylines share a segment of
    positive length. The result is sorted by (x, y), so it is symmetric in
    its arguments as a point set.
    """
    found = set()
    for a1, a2, b1, b2 in _box_pairs(a, b):
        rel, data = segment_intersection(a1, a2, b1, b2)
        if rel is _OVERLAP:
            raise OverlapError(
                f"polylines {a.id!r} and {b.id!r} share a segment of positive length")
        if rel is _POINT:
            found.add(data)
    return sorted(found, key=_xy) if found else []


def polylines_disjoint(a: Polyline, b: Polyline) -> bool:
    for a1, a2, b1, b2 in _box_pairs(a, b):
        rel, _ = segment_intersection(a1, a2, b1, b2)
        if rel is not _DISJOINT:
            return False
    return True


def point_on_polyline(p: Point, poly: Polyline) -> bool:
    pts = poly.points
    return any(on_segment(p, a, b) for a, b in zip(pts, pts[1:]))


# Positions along a polyline are (edge_index, parameter) pairs with the
# parameter an exact Fraction in [0, 1]; interior vertices are canonicalized
# to (i, 0) so positions compare lexicographically.

Position = tuple

def _canon(poly: Polyline, pos: Position) -> Position:
    i, t = pos
    if t == 1 and i < len(poly.points) - 2:
        return (i + 1, Fraction(0))
    return (i, Fraction(t))


def point_at(poly: Polyline, pos: Position) -> Point:
    i, t = pos
    a, b = poly.points[i], poly.points[i + 1]
    if t == 0:
        return a
    if t == 1:
        return b
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def position_of(poly: Polyline, p: Point) -> Position | None:
    """First position along poly at which point p occurs, or None."""
    pts = poly.points
    for i, (a, b) in enumerate(zip(pts, pts[1:])):
        if on_segment(p, a, b):
            if b.x != a.x:
                t = Fraction(p.x - a.x, b.x - a.x)
            else:
                t = Fraction(p.y - a.y, b.y - a.y)
            return _canon(poly, (i, t))
    return None


def subcurve(poly: Polyline, start: Position, end: Position, id: str = "") -> Polyline:
    """The sub-polyline between two positions (start strictly before end)."""
    start = _canon(poly, start)
    end = _canon(poly, end)
    if start >= end:
        raise ContractError("subcurve start must precede end")
    pts = [point_at(poly, start)]
    i = start[0]
    j = end[0]
    for k in range(i, j):
        nxt = poly.points[k + 1]
        if nxt != pts[-1]:
            pts.append(nxt)
    last = point_at(poly, end)
    if last != pts[-1]:
        pts.append(last)
    return Polyline(tuple(pts), id or poly.id)


def _crossing_scan(c: Polyline):
    """(refined points, crossing indices): c's points with every proper
    baseline crossing inside an edge inserted as a vertex, and the indices
    in them of all crossings, in order along c.

    Validates the crossing contract: baseline-collinear edges are rejected
    first, then two endpoints on the baseline, then an endpoint below it,
    then the first vertex that touches the baseline without crossing. An
    endpoint may sit on the baseline only as the single basepoint of a
    1-curve, and is not a crossing. An edge has at most one proper crossing,
    so each is inserted after its edge's first vertex as it comes.
    """
    pts = c.points
    ys = [p.y for p in pts]
    n = len(ys)
    if 0 in ys:
        for i in range(n - 1):
            if ys[i] == 0 and ys[i + 1] == 0:
                raise CollinearError(f"curve {c.id!r} has an edge on the baseline")
    if ys[0] == 0 and ys[-1] == 0:
        raise ContractError(f"curve {c.id!r} has both endpoints on the baseline")
    if ys[0] < 0 or ys[-1] < 0:
        raise ContractError(f"curve {c.id!r} has an endpoint below the baseline")

    out, cross, start = [], [], 0
    for i in range(1, n):
        y, prev = ys[i], ys[i - 1]
        if y == 0:
            if i == n - 1:
                break                       # 1-curve basepoint, not a crossing
            # No edge lies on the baseline, so both neighbours are off it.
            if (prev > 0) == (ys[i + 1] > 0):
                raise TangencyError(
                    f"curve {c.id!r} touches the baseline at {pts[i]} without crossing")
            cross.append(len(out) + i - start)
        elif prev != 0 and (prev > 0) != (y > 0):
            a, b = pts[i - 1], pts[i]
            out.extend(pts[start:i])
            cross.append(len(out))
            out.append(Point(_quotient(prev * b.x - a.x * y, prev - y), 0))
            start = i
    if not out:
        return pts, cross
    out.extend(pts[start:])
    return tuple(out), cross


def baseline_crossings_along(c: Polyline):
    """Proper baseline crossings in order along the curve.

    Returns a list of (Point, Position) with positions along c, read off
    _crossing_scan, which holds the validation rules.
    """
    pts = c.points
    refined, cross = _crossing_scan(c)
    out, inserted = [], 0
    for r in cross:
        j = r - inserted            # the vertex of c at r, unless r was inserted
        if pts[j].y == 0:
            out.append((pts[j], (j, Fraction(0))))
        else:                       # inside edge j - 1, whose ends are off the baseline
            a, b = pts[j - 1], pts[j]
            out.append((refined[r], (j - 1, Fraction(a.y, a.y - b.y))))
            inserted += 1
    return out


@dataclass(frozen=True)
class CapCurve:
    """A curve in the upper half-plane with both endpoints on the baseline."""

    polyline: Polyline

    def __post_init__(self):
        pts = self.polyline.points
        if pts[0].y != 0 or pts[-1].y != 0:
            raise ContractError(f"cap-curve {self.polyline.id!r} endpoints must be on the baseline")
        for p in pts[1:-1]:
            if p.y <= 0:
                raise ContractError(
                    f"cap-curve {self.polyline.id!r} interior must stay strictly above the baseline")
        validate_simple(self.polyline)


class Region(enum.Enum):
    INT = "int"
    EXT = "ext"
    ON = "on"


def region_of(cap: CapCurve, p: Point) -> Region:
    """Classify p against the closed region bound by a cap-curve and the baseline.

    ON iff p lies on the cap-curve or on the baseline segment between its
    endpoints; INT for the bounded component, EXT otherwise. Decided exactly
    by the even-odd rule on the closed ring of the cap and that segment.
    """
    pts = cap.polyline.points
    ring = pts + pts[:1]
    edges = tuple(zip(ring, ring[1:]))
    if any(on_segment(p, a, b) for a, b in edges):
        return Region.ON
    inside = False
    for a, b in edges:
        if (a.y > p.y) != (b.y > p.y):
            o = orientation(a, b, p)
            if (b.y > a.y and o > 0) or (b.y < a.y and o < 0):
                inside = not inside
    return Region.INT if inside else Region.EXT


def segment_meets_vstrip(a: Point, b: Point, lo: Coord, hi: Coord) -> bool:
    """True if segment ab has a point with lo <= x <= hi and y >= 0."""
    xmin, xmax = min(a.x, b.x), max(a.x, b.x)
    if xmax < lo or xmin > hi:
        return False
    if a.x == b.x:
        return max(a.y, b.y) >= 0
    if a.y == b.y:
        return a.y >= 0
    # Clip the x-range to the strip; linear y is highest at one end of it,
    # and y(x) * dx = a.y * dx + (x - a.x) * dy with dx > 0 once a is left.
    if a.x > b.x:
        a, b = b, a
    dx, dy = b.x - a.x, b.y - a.y
    x = (hi if hi < b.x else b.x) if dy > 0 else (lo if lo > a.x else a.x)
    return a.y * dx + (x - a.x) * dy >= 0


def polyline_meets_vstrip(poly: Polyline, lo: Coord, hi: Coord) -> bool:
    """True if the polyline meets the closed strip [lo, hi] x [0, inf)."""
    for xmin, xmax, _, ymax, a, b in _segment_boxes(poly.points):
        if xmax < lo or xmin > hi or ymax < 0:
            continue
        if segment_meets_vstrip(a, b, lo, hi):
            return True
    return False
