"""Family-class semantics for curves anchored to the baseline.

An even-curve has both endpoints above the baseline and a positive even
number of proper crossings. Its two end pieces, from an endpoint to the
nearest crossing along the curve, are 1-curves; the one with the left
basepoint is `left`, the other `right`, and `middle` is the remainder. The
baseline interval between the two end basepoints is `interval`.

A family is an LR-family when every intersection between two members is an
intersection of one member's left 1-curve with the other's right 1-curve.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    ContractError,
    FamilyValidationError,
    OddCrossingError,
)
from .geometry import (
    Point,
    Polyline,
    _OVERLAP,
    _POINT,
    _crossing_scan,
    segment_intersection,
    segments_intersect,
    validate_simple,
)
from .graphcore import _bits, chromatic_number, graph_from_edges, induced_subgraph


@dataclass(frozen=True, slots=True)
class EvenCurve:
    """An even-curve: its refined curve and the indices in curve.points of
    its baseline crossings, in order along the curve.

    The curve is canonically oriented so that it starts at the endpoint of
    `left`. A 1-curve has one crossing, its last point; its left and right
    are the whole curve, and it has no middle. The library builds every
    EvenCurve after the checks of decompose_even_curve or make_one_curve,
    or, in split_2t, from the end runs of one that passed them.
    """

    curve: Polyline
    cross: tuple

    @property
    def id(self) -> str:
        return self.curve.id

    @property
    def n_crossings(self) -> int:
        return len(self.cross)

    @property
    def basepoints(self) -> tuple:
        """The crossings along the curve; the first and last are the end basepoints."""
        pts = self.curve.points
        return tuple([pts[i] for i in self.cross])

    @property
    def interval(self) -> tuple:
        """(x_left, x_right) on the baseline."""
        pts = self.curve.points
        return pts[self.cross[0]].x, pts[self.cross[-1]].x

    @property
    def left(self) -> Polyline:
        """From an endpoint to its basepoint."""
        return Polyline(self.curve.points[:self.cross[0] + 1], self.curve.id)

    @property
    def middle(self) -> Optional[Polyline]:
        """From the left basepoint to the right one; None on a 1-curve."""
        i, j = self.cross[0], self.cross[-1]
        return Polyline(self.curve.points[i:j + 1], self.curve.id) if i < j else None

    @property
    def right(self) -> Polyline:
        """From its basepoint to the other endpoint; all of a 1-curve."""
        i, j = self.cross[0], self.cross[-1]
        return Polyline(self.curve.points[j:], self.curve.id) if i < j else self.curve

    def polylines(self) -> tuple:
        return (self.curve,)

    def part_runs(self) -> tuple:
        """(names, points) per part, sliced from curve.points: L, M and R, or
        one "LR" run, the whole curve, on a 1-curve."""
        pts, i, j = self.curve.points, self.cross[0], self.cross[-1]
        if i == j:
            return (("LR", pts),)
        return (("L", pts[:i + 1]), ("M", pts[i:j + 1]), ("R", pts[j:]))


def refine_at_crossings(c: Polyline) -> Polyline:
    """c with every baseline crossing inserted as an explicit vertex.

    Validates the crossing contract as baseline_crossings_along does; the
    refined curve can exceed the vertex cap, which raises ContractError.
    """
    pts, _ = _crossing_scan(c)
    return Polyline(pts, c.id)


def decompose_even_curve(c: Polyline) -> EvenCurve:
    """Split an even-curve into left/middle/right parts and its interval.

    c is checked to be simple, then one crossing scan validates its baseline
    contacts and refines it so that every crossing is a vertex. The curve is
    reoriented if necessary so that the first crossing along it is the left
    one; left and right are the maximal end pieces containing no crossing in
    their interior, middle is everything between. Concatenating the three
    parts reproduces the stored curve vertex for vertex.
    """
    validate_simple(c)
    pts, cross_idx = _crossing_scan(c)
    return _even_curve(pts, cross_idx, c.id)


def _even_curve(pts: tuple, cross_idx: Sequence[int], id: str) -> EvenCurve:
    """The EvenCurve of a refined curve given its interior crossing indices.

    pts must be the points of a simple curve with no tangency or baseline
    edge and both ends above the baseline (so an even crossing count),
    possibly cut short and with crossings inserted as vertices, and
    cross_idx must list every interior vertex on the baseline, in order.
    """
    curve = Polyline(pts, id)
    if not cross_idx or pts[0].y == 0 or pts[-1].y == 0:
        raise OddCrossingError(f"curve {id!r} is not an even-curve")

    if pts[cross_idx[0]].x > pts[cross_idx[-1]].x:
        curve = curve.reversed()
        cross_idx = [len(pts) - 1 - i for i in reversed(cross_idx)]
    return EvenCurve(curve, tuple(cross_idx))


def make_one_curve(c: Polyline) -> EvenCurve:
    """Wrap a 1-curve as a degenerate EvenCurve (single basepoint, no middle)."""
    validate_simple(c)
    pts = c.points
    on_start = pts[0].y == 0
    on_end = pts[-1].y == 0
    if on_start == on_end:
        raise ContractError(f"curve {c.id!r} must have exactly one endpoint on the baseline")
    for p in (pts[1:] if on_start else pts[:-1]):
        if p.y <= 0:
            raise ContractError(f"1-curve {c.id!r} must stay strictly above the baseline")
    oriented = c.reversed() if on_start else c  # endpoint first, basepoint last
    return EvenCurve(oriented, (len(pts) - 1,))


class FamilyKind(enum.Enum):
    ONE_CURVE = "one_curve"
    EVEN = "even"
    TWO_T = "two_t"
    LR = "lr"
    LR2 = "lr2"


class PairMapped:
    """Members (each with an id and part_runs()) whose part-labelled pair map and
    intersection graph are each built once, on first use."""

    @cached_property
    def pairs(self) -> dict:
        """The part-labelled pair map; see pair_points."""
        return pair_points(self.members)

    @cached_property
    def _graph(self):
        return graph_from_edges(len(self.members), self.pairs,
                                tuple(m.id for m in self.members))

    def graph(self):
        """The intersection graph, read off the pair map; vertex v is members[v]."""
        return self._graph


@dataclass(frozen=True)
class CurveFamily(PairMapped):
    """Members of one kind. Coordinates are in units of 1/scale, the scale
    of the file they were loaded from; families derived from this one keep
    it, and the file writer records it."""

    members: tuple
    kind: FamilyKind
    t: Optional[int] = None
    scale: int = 1

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        _validate_kind(self)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def ids(self) -> list:
        return [m.id for m in self.members]


def _validate_kind(fam: CurveFamily) -> None:
    seen = {}
    for m in fam.members:
        for p in m.basepoints:
            if p.x in seen:
                raise FamilyValidationError(
                    f"members {seen[p.x]!r} and {m.id!r} share basepoint x={p.x}")
            seen[p.x] = m.id
    ids = [m.id for m in fam.members]
    if len(set(ids)) != len(ids):
        raise FamilyValidationError("member ids must be unique")

    kind, t = fam.kind, fam.t
    two_t = kind is FamilyKind.TWO_T
    if two_t and (t is None or t < 1):
        raise FamilyValidationError("TWO_T family needs t >= 1")
    if not two_t and t is not None:
        raise FamilyValidationError(f"a {kind.value} family takes no t, got t={t}")
    if type(fam.scale) is not int or fam.scale < 1:
        raise FamilyValidationError(f"scale must be a positive integer, got {fam.scale!r}")
    one, even, lr2 = (kind is FamilyKind.ONE_CURVE, kind in (FamilyKind.EVEN, FamilyKind.LR),
                      kind is FamilyKind.LR2)
    for m in fam.members:
        n = m.n_crossings
        if one and n != 1:
            raise FamilyValidationError(f"{m.id!r} has {n} basepoints in a 1-curve family")
        if even and (n < 2 or n % 2):
            raise FamilyValidationError(f"{m.id!r} has {n} basepoints in an even-curve family")
        if two_t and n != 2 * t:
            raise FamilyValidationError(f"{m.id!r} has {n} basepoints, expected {2 * t}")
        if lr2 and n != 2:
            raise FamilyValidationError(f"{m.id!r} has {n} basepoints in a 2-curve family")


@dataclass(frozen=True)
class LRViolation:
    id1: str
    id2: str
    point: Point
    part1: str
    part2: str

    def __str__(self):
        return (f"{self.id1}\t{self.id2}\t({self.point.x},{self.point.y})"
                f"\t{self.part1}x{self.part2}")


@dataclass(frozen=True)
class LRResult:
    ok: bool
    checked_pairs: int
    violations: tuple

    def report_lines(self) -> list:
        return [str(v) for v in self.violations]


def member_intersections(m1, m2) -> list:
    """All intersection points between two members (full point sets)."""
    pts = set()
    for a in m1.polylines():
        for b in m2.polylines():
            pts.update(segments_intersect(a, b))
    return sorted(pts, key=lambda p: (p.x, p.y))


def _lmr(names: str) -> str:
    return names if len(names) == 1 else "".join(sorted(set(names)))  # L < M < R


def pair_points(members) -> dict:
    """{(i, j): [(p, on_i, on_j), ...]} over the pairs i < j that meet, in
    sorted order; the one all-pairs pass of a family.

    The points are member_intersections(members[i], members[j]); on_i names
    the parts of member i through p in "LMR" order, e.g. "R", "LM", or "LR"
    on a 1-curve. One sweep over the closed boxes of all part segments, read
    off each member's part_runs(), by left end (Shamos and Hoey 1976;
    Bentley and Wood 1980) runs the exact test only on box-meeting segments
    of two members. An OverlapError names the first overlapping member pair
    and, in it, the first polyline pair.
    """
    # Not geometry._segment_boxes: these boxes also carry member and names.
    # One comparison per axis: on Fraction coordinates each costs.
    boxes = []
    for i, m in enumerate(members):
        for names, pts in m.part_runs():
            a = pts[0]
            ax, ay = a.x, a.y
            for b in pts[1:]:
                bx, by = b.x, b.y
                if ax < bx:
                    x0, x1 = ax, bx
                else:
                    x0, x1 = bx, ax
                if ay < by:
                    y0, y1 = ay, by
                else:
                    y0, y1 = by, ay
                boxes.append((x0, x1, y0, y1, a, b, i, names))
                a, ax, ay = b, bx, by
    boxes.sort(key=lambda box: box[0])
    starts = [box[0] for box in boxes]
    found, overlaps = {}, []
    for n, box in enumerate(boxes):
        _, x1, y0, y1, _, _, u, _ = box
        for other in boxes[n + 1:bisect_right(starts, x1, n + 1)]:  # the boxes meeting box in x
            if other[3] >= y0 and y1 >= other[2] and other[6] != u:
                s, t = (box, other) if u < other[6] else (other, box)
                rel, p = segment_intersection(s[4], s[5], t[4], t[5])
                if rel is _OVERLAP:
                    overlaps.append((s[6], t[6]))
                elif rel is _POINT:
                    key = (s[6], t[6], p.x, p.y)
                    seen = found.get(key)
                    if seen is None:
                        found[key] = (p, s[7], t[7])
                    else:
                        found[key] = (p, _lmr(seen[1] + s[7]), _lmr(seen[2] + t[7]))
    if overlaps:                # segments_intersect raises the OverlapError
        i, j = min(overlaps)
        for a in members[i].polylines():
            for b in members[j].polylines():
                segments_intersect(a, b)
    out = {}
    for key in sorted(found):               # by pair, then by (x, y)
        out.setdefault(key[:2], []).append(found[key])
    return out


def _restricted_families(fam: CurveFamily, groups) -> list:
    """Subfamilies of fam whose pair maps are read off fam's, in one pass.

    The groups partition fam: groups[c] lists the members of subfamily c as
    (i, fam.members[i]) pairs, i increasing. Where two members meet does not
    depend on the other members, so subfamily c keeps the hits of fam's
    pairs with both ends in it, re-indexed by position. The re-indexing is
    monotone, so each map equals pair_points of the subfamily's members, in
    the same order. Each subfamily keeps fam's kind, t and scale.
    """
    cell_of = [None] * len(fam.members)
    for c, group in enumerate(groups):
        for k, (i, _) in enumerate(group):
            cell_of[i] = (c, k)
    maps = [{} for _ in groups]
    for (i, j), hits in fam.pairs.items():
        (c, ki), (d, kj) = cell_of[i], cell_of[j]
        if c == d:
            maps[c][ki, kj] = hits
    return [_with_pairs(tuple(m for _, m in group), fam.kind, fam.t, fam.scale, pairs)
            for group, pairs in zip(groups, maps)]


def _with_pairs(members: tuple, kind: FamilyKind, t, scale: int, pairs: dict) -> CurveFamily:
    """A family whose pair map is pairs, read off a parent family's map."""
    fam = CurveFamily(members, kind, t, scale)
    fam.__dict__["pairs"] = pairs           # where cached_property keeps it
    return fam


def validate_lr(members) -> LRResult:
    """Check that every pairwise intersection is a left-right incidence.

    Accepts a family (whose pair map is read) or any sequence of members
    exposing part_runs() (even-curves or double-curves). Returns a certificate
    (ok=True) or every violating (pair, point, first part of each) witness.
    Pairs missing from the map are certified disjoint.
    """
    ms = list(getattr(members, "members", members))
    pairs = members.pairs if hasattr(members, "pairs") else pair_points(ms)
    violations = tuple(LRViolation(ms[i].id, ms[j].id, p, on1[0], on2[0])
                       for (i, j), hits in pairs.items() for p, on1, on2 in hits
                       if not (("L" in on1 and "R" in on2) or ("L" in on2 and "R" in on1)))
    n = len(ms)
    return LRResult(ok=not violations, checked_pairs=n * (n - 1) // 2,
                    violations=violations)


def xi_of_family(fam: CurveFamily, budget=None) -> int:
    """Smallest xi such that fam is a xi-family.

    For each member, the exact chromatic number of the subfamily of the
    remaining members intersecting it; the result is the maximum over
    members. 0 for pairwise disjoint families.
    """
    g = fam.graph()
    best = 0
    for v in range(g.n):
        nbrs = list(_bits(g.adj[v]))
        if not nbrs:
            continue
        sub, _ = induced_subgraph(g, nbrs)
        chi, _ = chromatic_number(sub, budget=budget)
        best = max(best, chi)
    return best
