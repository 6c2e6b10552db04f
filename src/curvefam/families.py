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
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import (
    ContractError,
    FamilyValidationError,
    OddCrossingError,
)
from .geometry import (
    Point,
    Polyline,
    SegRelation,
    baseline_crossings_along,
    segment_intersection,
    segments_intersect,
    validate_simple,
)
from .graphcore import chromatic_number, graph_from_edges, induced_subgraph


@dataclass(frozen=True)
class EvenCurve:
    """An even-curve with its derived anatomy.

    The stored curve is canonically oriented so that it starts at the
    endpoint of `left`. 1-curves are stored degenerately with a single
    basepoint, left == right == the curve, and no middle.
    """

    curve: Polyline
    basepoints: tuple        # along the curve; first/last are the end basepoints
    left: Polyline           # from an endpoint to its basepoint
    middle: Optional[Polyline]
    right: Polyline          # from its basepoint to the other endpoint
    interval: tuple          # (x_left, x_right) on the baseline

    @property
    def id(self) -> str:
        return self.curve.id

    @property
    def n_crossings(self) -> int:
        return len(self.basepoints)

    @property
    def is_one_curve(self) -> bool:
        return len(self.basepoints) == 1

    def basepoint_xs(self) -> list:
        return [p.x for p in self.basepoints]

    def polylines(self) -> tuple:
        return (self.curve,)

    def parts(self) -> tuple:
        if self.middle is None:             # a 1-curve: one polyline, both ends
            return (("LR", self.curve),)
        return (("L", self.left), ("M", self.middle), ("R", self.right))


def refine_at_crossings(c: Polyline) -> Polyline:
    """Insert every baseline crossing of c as an explicit vertex."""
    crossings = baseline_crossings_along(c)
    by_edge: dict = {}
    for p, (i, t) in crossings:
        if t != 0:
            by_edge.setdefault(i, []).append((t, p))
    pts = []
    for i, v in enumerate(c.points[:-1]):
        pts.append(v)
        for _, p in sorted(by_edge.get(i, [])):
            pts.append(p)
    pts.append(c.points[-1])
    return Polyline(tuple(pts), c.id)


def decompose_even_curve(c: Polyline) -> EvenCurve:
    """Split an even-curve into left/middle/right parts and its interval.

    The curve is reoriented if necessary so that the first crossing along it
    is the left one, and refined so that every crossing is a vertex; left and
    right are the maximal end pieces containing no crossing in their
    interior, middle is everything between. Concatenating the three parts
    reproduces the stored curve vertex for vertex.
    """
    validate_simple(c)
    # The scan rejects tangencies and baseline edges, so every interior
    # vertex of the refined curve on the baseline is a crossing.
    refined = refine_at_crossings(c)
    pts = refined.points
    cross_idx = [i for i in range(1, len(pts) - 1) if pts[i].y == 0]
    if len(cross_idx) == 0 or pts[0].y == 0 or pts[-1].y == 0:
        raise OddCrossingError(f"curve {c.id!r} is not an even-curve")
    if len(cross_idx) % 2 != 0:
        raise OddCrossingError(
            f"curve {c.id!r} crosses the baseline {len(cross_idx)} times")

    if pts[cross_idx[0]].x > pts[cross_idx[-1]].x:
        refined = refined.reversed()
        pts = refined.points
        cross_idx = [len(pts) - 1 - i for i in reversed(cross_idx)]
    i1, i2 = cross_idx[0], cross_idx[-1]
    left = Polyline(pts[:i1 + 1], c.id)
    middle = Polyline(pts[i1:i2 + 1], c.id)
    right = Polyline(pts[i2:], c.id)
    return EvenCurve(
        curve=refined,
        basepoints=tuple(pts[i] for i in cross_idx),
        left=left,
        middle=middle,
        right=right,
        interval=(pts[i1].x, pts[i2].x),
    )


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
    bp = oriented.points[-1]
    return EvenCurve(
        curve=oriented,
        basepoints=(bp,),
        left=oriented,
        middle=None,
        right=oriented,
        interval=(bp.x, bp.x),
    )


class FamilyKind(enum.Enum):
    ONE_CURVE = "one_curve"
    EVEN = "even"
    TWO_T = "two_t"
    LR = "lr"
    LR2 = "lr2"


@dataclass(frozen=True)
class CurveFamily:
    members: tuple
    kind: FamilyKind
    t: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        _validate_kind(self)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def ids(self) -> list:
        return [m.id for m in self.members]

    @cached_property
    def pairs(self) -> dict:
        """The part-labelled pair map, computed on first use; see pair_points."""
        return pair_points(self.members)

    def graph(self):
        """Intersection graph of the members, read off the pair map."""
        return graph_from_edges(len(self.members), self.pairs, tuple(self.ids()))


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
    for m in fam.members:
        n = m.n_crossings
        if kind is FamilyKind.ONE_CURVE and n != 1:
            raise FamilyValidationError(f"{m.id!r} has {n} basepoints in a 1-curve family")
        if kind in (FamilyKind.EVEN, FamilyKind.LR) and (n < 2 or n % 2):
            raise FamilyValidationError(f"{m.id!r} has {n} basepoints in an even-curve family")
        if kind is FamilyKind.TWO_T:
            if t is None or t < 1:
                raise FamilyValidationError("TWO_T family needs t >= 1")
            if n != 2 * t:
                raise FamilyValidationError(
                    f"{m.id!r} has {n} basepoints, expected {2 * t}")
        if kind is FamilyKind.LR2 and n != 2:
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
    on a 1-curve. One sweep over the closed boxes of all part segments by
    left end (Shamos and Hoey 1976; Bentley and Wood 1980) runs the exact
    test only on box-meeting segments of two members. An OverlapError names
    the first overlapping member pair and, in it, the first polyline pair.
    """
    # Built here, not read from Polyline.segment_boxes, whose caches would add
    # about 400,000 objects on X_5 for the garbage collector to rescan.
    boxes = []
    for i, m in enumerate(members):
        for k, (names, poly) in enumerate(m.parts()):
            for a, b in zip(poly.points, poly.points[1:]):
                boxes.append((a.x if a.x < b.x else b.x, b.x if a.x < b.x else a.x,
                              a.y if a.y < b.y else b.y, b.y if a.y < b.y else a.y,
                              a, b, i, k, names))
    boxes.sort(key=lambda box: box[0])
    active, found, overlaps = [], {}, []
    for box in boxes:
        x0, _, y0, y1, _, _, u, _, _ = box
        active = [a for a in active if a[1] >= x0]
        for a in active:
            if a[6] != u and a[3] >= y0 and y1 >= a[2]:
                s, t = (a, box) if a[6] < u else (box, a)
                rel, p = segment_intersection(s[4], s[5], t[4], t[5])
                if rel is SegRelation.OVERLAP:
                    overlaps.append((s[6], t[6], s[7], t[7]))
                elif rel is SegRelation.POINT:
                    key = (s[6], t[6], p.x, p.y)
                    _, on_i, on_j = found.get(key, (p, "", ""))
                    found[key] = (p, _lmr(on_i + s[8]), _lmr(on_j + t[8]))
        active.append(box)
    if overlaps:                # segments_intersect raises the OverlapError
        i, j, ki, kj = min(overlaps)
        segments_intersect(members[i].parts()[ki][1], members[j].parts()[kj][1])
    out = {}
    for key in sorted(found):               # by pair, then by (x, y)
        out.setdefault(key[:2], []).append(found[key])
    return out


def validate_lr(members) -> LRResult:
    """Check that every pairwise intersection is a left-right incidence.

    Accepts a family (whose pair map is read) or any sequence of members
    exposing parts() (even-curves or double-curves). Returns a certificate
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


def subfamily_between(fam: CurveFamily, x, y) -> CurveFamily:
    """Members strictly between two 1-curves in the baseline order.

    Orientation-insensitive: the roles of x and y swap automatically when
    y precedes x.
    """
    xs, ys = x.basepoint_xs(), y.basepoint_xs()
    family_xs = {v for m in fam.members for v in m.basepoint_xs()}
    for probe, vals in ((x, xs), (y, ys)):
        for v in vals:
            if v in family_xs:
                raise ContractError(
                    f"bound {probe.id!r} shares basepoint x={v} with the family")
    if max(xs) < min(ys):
        lo, hi = max(xs), min(ys)
    elif max(ys) < min(xs):
        lo, hi = max(ys), min(xs)
    else:
        raise ContractError("bounds have interleaved basepoints")
    picked = tuple(m for m in fam.members
                   if lo < min(m.basepoint_xs()) and max(m.basepoint_xs()) < hi)
    return CurveFamily(picked, fam.kind, fam.t)


def subfamily_on_interval(fam: CurveFamily, interval) -> CurveFamily:
    """Members with every basepoint inside the closed interval."""
    lo, hi = interval
    picked = tuple(m for m in fam.members
                   if all(lo <= v <= hi for v in m.basepoint_xs()))
    return CurveFamily(picked, fam.kind, fam.t)


def xi_of_family(fam: CurveFamily, budget=None) -> int:
    """Smallest xi such that fam is a xi-family.

    For each member, the exact chromatic number of the subfamily of the
    remaining members intersecting it; the result is the maximum over
    members. 0 for pairwise disjoint families.
    """
    g = fam.graph()
    best = 0
    for v in range(g.n):
        nbrs = [u for u in range(g.n) if g.has_edge(u, v)]
        if not nbrs:
            continue
        sub, _ = induced_subgraph(g, nbrs)
        chi, _ = chromatic_number(sub, budget=budget)
        best = max(best, chi)
    return best


@dataclass(frozen=True)
class ChainCandidate:
    pairs: tuple  # ((a_1, b_1), ..., (a_n, b_n)) of EvenCurves


@dataclass(frozen=True)
class ChainViolation:
    clause: int   # 1 = crossing, 2 = nesting, 3 = back-intersection
    index: int    # 1-based pair index
    detail: str


@dataclass(frozen=True)
class ChainResult:
    ok: bool
    violation: Optional[ChainViolation]
    repeats: tuple  # (member id, earlier pair index, later pair index)


def is_chain(fam: CurveFamily, cand: ChainCandidate) -> ChainResult:
    """Validate a chain candidate against its three defining clauses.

    Clause 1: right(a_i) and left(b_i) intersect, for every i.
    Clause 2: for i >= 2, the basepoints of right(a_i) and left(b_i) lie
    strictly between those of right(a_(i-1)) and left(b_(i-1)).
    Clause 3: for i >= 2, left(a_i) intersects every earlier right(a_j), or
    right(b_i) intersects every earlier left(b_j).

    Reports the first violated clause. Members may repeat across pairs;
    repeats are listed in the result, not rejected.
    """
    member_ids = set(fam.ids())
    for a, b in cand.pairs:
        if a.id not in member_ids or b.id not in member_ids:
            raise ContractError(f"pair ({a.id!r}, {b.id!r}) not drawn from the family")

    seen: dict = {}
    repeats = []
    for i, (a, b) in enumerate(cand.pairs, start=1):
        for m in (a, b):
            if m.id in seen:
                repeats.append((m.id, seen[m.id], i))
            else:
                seen[m.id] = i
    repeats = tuple(repeats)

    pairs = cand.pairs
    for i in range(1, len(pairs) + 1):
        a, b = pairs[i - 1]
        if not segments_intersect(a.right, b.left):
            return ChainResult(False, ChainViolation(
                1, i, f"right({a.id}) misses left({b.id})"), repeats)
        if i >= 2:
            pa, pb = pairs[i - 2]
            lo, hi = sorted((_bp_x(pa.right), _bp_x(pb.left)))
            for one_curve, owner in ((a.right, f"right({a.id})"),
                                     (b.left, f"left({b.id})")):
                v = _bp_x(one_curve)
                if not (lo < v < hi):
                    return ChainResult(False, ChainViolation(
                        2, i, f"basepoint of {owner} at x={v} not inside ({lo},{hi})"),
                        repeats)
            ok_a = all(bool(segments_intersect(a.left, pairs[j][0].right))
                       for j in range(i - 1))
            ok_b = all(bool(segments_intersect(b.right, pairs[j][1].left))
                       for j in range(i - 1))
            if not (ok_a or ok_b):
                return ChainResult(False, ChainViolation(
                    3, i,
                    f"neither left({a.id}) nor right({b.id}) reaches all predecessors"),
                    repeats)
    return ChainResult(True, None, repeats)


def _bp_x(one_curve: Polyline):
    pts = one_curve.points
    return pts[-1].x if pts[-1].y == 0 else pts[0].x
