"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's predicate code paths: segment
intersection is decided by dense sampling with an exact separation bound,
region classification by exact supercover rasterization plus flood fill,
and 1-curve connectivity by flood fill over rasterized unions. All
arithmetic stays in integers (numpy int64 with verified magnitude bounds),
so oracle verdicts are exact for the integer-coordinate inputs the tests
feed them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import numpy as np
from scipy import ndimage

from curvefam.errors import CollinearError, ContractError, OddCrossingError, TangencyError
from curvefam.geometry import Point, Polyline, validate_simple


def _ints(seg):
    (x0, y0), (x1, y1) = seg
    return int(x0), int(y0), int(x1), int(y1)


def collinear_overlap(a, b) -> bool:
    """Exact check: do the segments lie on one line and share positive length?"""
    ax0, ay0, ax1, ay1 = _ints(a)
    bx0, by0, bx1, by1 = _ints(b)
    dax, day = ax1 - ax0, ay1 - ay0

    def cross(px, py):
        return dax * (py - ay0) - day * (px - ax0)

    if cross(bx0, by0) != 0 or cross(bx1, by1) != 0:
        return False
    if abs(dax) >= abs(day):
        lo_a, hi_a = sorted((ax0, ax1))
        lo_b, hi_b = sorted((bx0, bx1))
    else:
        lo_a, hi_a = sorted((ay0, ay1))
        lo_b, hi_b = sorted((by0, by1))
    return min(hi_a, hi_b) > max(lo_a, lo_b)


def segments_touch_oracle(a, b, coord_bound: int) -> bool:
    """Dense-sampling decision for closed integer segments.

    Disjoint integer segments inside |coordinate| <= M are separated by at
    least 1/(2*sqrt(2)*M), while sampling one segment at N = 5*M*M steps
    puts a sample within sqrt(2)*M/N of any true common point; the
    threshold 3M/2 in N-scaled units sits strictly between the two bounds,
    so the verdict is exact.
    """
    M = int(coord_bound)
    N = 5 * M * M
    ax0, ay0, ax1, ay1 = _ints(a)
    bx0, by0, bx1, by1 = _ints(b)
    for v in (ax0, ay0, ax1, ay1, bx0, by0, bx1, by1):
        if abs(v) > M:
            raise AssertionError("oracle bound violated")

    i = np.arange(N + 1, dtype=np.int64)
    px = np.int64(N) * ax0 + i * (ax1 - ax0)
    py = np.int64(N) * ay0 + i * (ay1 - ay0)
    sbx, sby = np.int64(N) * bx0, np.int64(N) * by0
    sex, sey = np.int64(N) * bx1, np.int64(N) * by1
    dx, dy = int(sex - sbx), int(sey - sby)
    seg2 = dx * dx + dy * dy
    rx, ry = px - sbx, py - sby
    if seg2 == 0:
        min_num = int(np.min(rx * rx + ry * ry))
        return 4 * min_num <= 9 * M * M
    dot = rx * dx + ry * dy
    t = np.clip(dot, 0, seg2)
    # dist^2 * seg2 = |r|^2 * seg2 - 2*t*dot + t^2; int64-safe for our bounds
    num = (rx * rx + ry * ry) * seg2 - 2 * t * dot + t * t
    min_num = int(np.min(num))
    return 4 * min_num <= 9 * M * M * seg2


def _touched_cells(seg, res: int):
    """Exact supercover: all cells (col, row) whose closed unit square meets
    the closed segment, in res-scaled lattice coordinates.

    Candidates come from a conservative column walk; each candidate is
    settled by the separating-axis test (bounding box plus line side), so
    the result is exactly the touched set.
    """
    x0, y0, x1, y1 = (v * res for v in _ints(seg))
    if x0 > x1 or (x0 == x1 and y0 > y1):
        x0, y0, x1, y1 = x1, y1, x0, y0
    dx, dy = x1 - x0, y1 - y0

    if dx == 0:
        cols = np.array([x0 - 1, x0], dtype=np.int64)
        rows = np.arange(y0 - 1, y1 + 1, dtype=np.int64)
        cand_c = np.repeat(cols, len(rows))
        cand_r = np.tile(rows, len(cols))
    else:
        # exact y-extent of the segment over each column [c, c+1]
        cols = np.arange(x0 - 1, x1 + 1, dtype=np.int64)
        xl = np.clip(cols, x0, x1)
        xr = np.clip(cols + 1, x0, x1)
        # y*dx at the clipped x values (dx > 0 after orientation)
        y_num_l = y0 * dx + (xl - x0) * dy
        y_num_r = y0 * dx + (xr - x0) * dy
        lo = np.minimum(y_num_l, y_num_r)
        hi = np.maximum(y_num_l, y_num_r)
        jlo = np.floor_divide(lo, dx) - 1
        jhi = np.floor_divide(hi, dx) + 1
        counts = (jhi - jlo + 1).astype(np.int64)
        cand_c = np.repeat(cols, counts)
        cand_r = np.concatenate([np.arange(a, b + 1, dtype=np.int64)
                                 for a, b in zip(jlo, jhi)])

    # separating axis: bounding box on both axes, then the segment's line
    keep = (np.maximum(x0, x1) >= cand_c) & (np.minimum(x0, x1) <= cand_c + 1) \
        & (np.maximum(y0, y1) >= cand_r) & (np.minimum(y0, y1) <= cand_r + 1)
    cand_c, cand_r = cand_c[keep], cand_r[keep]
    s1 = dx * (cand_r - y0) - dy * (cand_c - x0)
    s2 = dx * (cand_r - y0) - dy * (cand_c + 1 - x0)
    s3 = dx * (cand_r + 1 - y0) - dy * (cand_c - x0)
    s4 = dx * (cand_r + 1 - y0) - dy * (cand_c + 1 - x0)
    all_pos = (s1 > 0) & (s2 > 0) & (s3 > 0) & (s4 > 0)
    all_neg = (s1 < 0) & (s2 < 0) & (s3 < 0) & (s4 < 0)
    keep = ~(all_pos | all_neg)
    return cand_c[keep], cand_r[keep]


def _rasterize(segments, res: int, bounds):
    (xmin, ymin), (xmax, ymax) = bounds
    w = (xmax - xmin) * res
    h = (ymax - ymin) * res
    mask = np.zeros((h, w), dtype=bool)
    for seg in segments:
        cc, rr = _touched_cells(seg, res)
        cc = cc - xmin * res
        rr = rr - ymin * res
        keep = (cc >= 0) & (cc < w) & (rr >= 0) & (rr < h)
        mask[rr[keep], cc[keep]] = True
    return mask


def region_oracle(cap_points, p, res: int = 96, pad: int = 2) -> str:
    """Flood-fill classification of p against the cap-curve region.

    cap_points is the open cap polyline (endpoints on the baseline); the
    ring closes along the baseline. Returns "int", "ext" or "on"; "on" is
    decided by exact arithmetic, the rest by connectivity to the outside.
    """
    pts = list(cap_points)
    ring = pts + [pts[0]]
    px, py = int(p.x), int(p.y)
    for aa, bb in zip(ring, ring[1:]):
        ax, ay, bx, by = int(aa.x), int(aa.y), int(bb.x), int(bb.y)
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cross == 0 and min(ax, bx) <= px <= max(ax, bx) \
                and min(ay, by) <= py <= max(ay, by):
            return "on"

    xs = [int(q.x) for q in pts] + [px]
    ys = [int(q.y) for q in pts] + [py]
    bounds = ((min(xs) - pad, min(ys) - pad), (max(xs) + pad, max(ys) + pad))
    segs = [((aa.x, aa.y), (bb.x, bb.y)) for aa, bb in zip(ring, ring[1:])]
    mask = _rasterize(segs, res, bounds)
    labels, _ = ndimage.label(~mask)
    cell = ((py - bounds[0][1]) * res, (px - bounds[0][0]) * res)
    if mask[cell]:
        raise AssertionError("query cell rasterized as boundary; raise res")
    outside = labels[0, 0]
    if outside == 0:
        raise AssertionError("the raster corner is not outside the ring")
    return "ext" if labels[cell] == outside else "int"


def connectivity_oracle(polylines, res: int = 4):
    """Flood-fill component index per polyline over a shared raster.

    Exact for axis-parallel integer geometry at res >= 4: disjoint
    segments are at distance >= 1, so their cells are never 4-adjacent,
    while intersecting segments share a touched cell.
    """
    xs, ys = [], []
    for poly in polylines:
        for q in poly.points:
            xs.append(int(q.x))
            ys.append(int(q.y))
    bounds = ((min(xs) - 1, min(ys) - 1), (max(xs) + 1, max(ys) + 1))
    union = None
    per_curve = []
    for poly in polylines:
        segs = [((aa.x, aa.y), (bb.x, bb.y))
                for aa, bb in zip(poly.points, poly.points[1:])]
        m = _rasterize(segs, res, bounds)
        per_curve.append(m)
        union = m.copy() if union is None else (union | m)
    labels, _ = ndimage.label(union)
    comp = []
    for m in per_curve:
        ls = set(np.unique(labels[m])) - {0}
        if len(ls) != 1:
            raise AssertionError("a polyline rasterized into disconnected labels")
        comp.append(int(ls.pop()))
    return comp


def kernelize_by_passes(adj, c: int):
    """The exact solver's kernel, peeled pass by pass in plain sets: each
    pass walks the live vertices in increasing order and removes every
    one that, when the walk reaches it, has fewer than c live neighbours or
    has its live neighbours all adjacent to one other live vertex, until a
    pass removes none. Returns (core, removal order). O(n²) subset tests per
    pass and up to n passes."""
    n = len(adj)
    nbrs = [{u for u in range(n) if adj[v] >> u & 1} for v in range(n)]
    alive = set(range(n))
    removed = []
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            live = nbrs[v] & alive
            if len(live) < c or any(live <= nbrs[w] for w in alive - {v}):
                alive.remove(v)
                removed.append(v)
                changed = True
    return sorted(alive), removed


def first_monochromatic_edge(adj, colors):
    """The first edge (u, v), u < v, in index order whose ends share a
    colour, or None: a scan of every vertex pair."""
    n = len(adj)
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1 and colors[u] == colors[v]:
                return u, v
    return None


def decide_one_at_a_time(adj, c: int, clique):
    """The exact solver's c-colouring search on a kernel core, as it was
    before it settled forced vertices a colour class at a time, in plain
    sets and lists. clique is the maximum clique the search starts from,
    one class per vertex in order. Each state pops from a stack and counts
    one node; then, until a vertex sees every class, each round gives every
    vertex that sees c - 1 classes its free class, lowest vertex first,
    until one has none left; with no forced vertex, the uncoloured vertex
    seeing the most classes, then of highest degree, then lowest, is
    branched on, lowest class popped first, at most one new class opened.

    Returns (colours or None, nodes, rounds cut short by a forced vertex
    left with no class while later forced vertices still wait)."""
    n = len(adj)
    nbrs = [[u for u in range(n) if adj[v] >> u & 1] for v in range(n)]
    if len(clique) > c:
        return None, 0, 0
    colors = [-1] * n
    for k, v in enumerate(clique):
        colors[v] = k
    stack = [(colors, len(clique))]
    nodes = cut_rounds = 0

    def sees(colors, v):
        return {colors[u] for u in nbrs[v]} - {-1}

    while stack:
        colors, opened = stack.pop()
        nodes += 1
        while True:
            free = [v for v in range(n) if colors[v] < 0]
            saturation = {v: len(sees(colors, v)) for v in free}
            if c in saturation.values():
                break
            forced = [v for v in free if saturation[v] == c - 1]
            if forced:
                for i, v in enumerate(forced):
                    left = set(range(c)) - sees(colors, v)
                    if not left:
                        cut_rounds += i + 1 < len(forced)
                        break
                    colors[v] = left.pop()
                    opened = max(opened, colors[v] + 1)
                continue
            if not free:
                return colors, nodes, cut_rounds
            v = max(free, key=lambda u: (saturation[u], len(nbrs[u]), -u))
            for k in reversed(range(min(c, opened + 1))):
                if k not in sees(colors, v):
                    child = colors[:]
                    child[v] = k
                    stack.append((child, max(opened, k + 1)))
            break
    return None, nodes, cut_rounds


# The anatomy of an even-curve as decompose_by_passes derives it, in a plain
# record rather than the library's EvenCurve, whose parts are derived views.
DecomposedCurve = namedtuple("DecomposedCurve", "curve basepoints parts interval")


def decompose_by_passes(c) -> DecomposedCurve:
    """decompose_even_curve as it was before its single crossing scan: check
    c is simple, scan its baseline contacts, insert the crossings, scan the
    refined curve again for its baseline vertices, and build the curve, its
    basepoints, its three parts and its interval, each by itself. The
    crossing rules are written out here again, apart from the library's
    scan."""
    validate_simple(c)
    pts = c.points
    n = len(pts)
    signs = [(p.y > 0) - (p.y < 0) for p in pts]
    for i in range(n - 1):
        if signs[i] == 0 and signs[i + 1] == 0:
            raise CollinearError(f"curve {c.id!r} has an edge on the baseline")
    if signs[0] == 0 and signs[-1] == 0:
        raise ContractError(f"curve {c.id!r} has both endpoints on the baseline")
    if signs[0] < 0 or signs[-1] < 0:
        raise ContractError(f"curve {c.id!r} has an endpoint below the baseline")
    crossings = []                  # (edge index, the crossing inside that edge)
    for i in range(n):
        if signs[i] == 0 and 0 < i < n - 1:
            if signs[i - 1] == signs[i + 1]:
                raise TangencyError(
                    f"curve {c.id!r} touches the baseline at {pts[i]} without crossing")
        if i < n - 1 and signs[i] * signs[i + 1] < 0:
            a, b = pts[i], pts[i + 1]
            t = Fraction(a.y, a.y - b.y)
            crossings.append((i, Point(a.x + t * (b.x - a.x), 0)))

    refined = []
    for i, p in enumerate(pts):
        refined.append(p)
        refined.extend(q for k, q in crossings if k == i)
    curve = Polyline(tuple(refined), c.id)
    pts = curve.points
    cross_idx = [i for i in range(1, len(pts) - 1) if pts[i].y == 0]
    if not cross_idx or pts[0].y == 0 or pts[-1].y == 0:
        raise OddCrossingError(f"curve {c.id!r} is not an even-curve")
    if len(cross_idx) % 2:
        raise OddCrossingError(f"curve {c.id!r} crosses the baseline {len(cross_idx)} times")
    if pts[cross_idx[0]].x > pts[cross_idx[-1]].x:
        curve = Polyline(tuple(reversed(pts)), c.id)
        pts = curve.points
        cross_idx = [len(pts) - 1 - i for i in reversed(cross_idx)]
    i1, i2 = cross_idx[0], cross_idx[-1]
    return DecomposedCurve(
        curve=curve,
        basepoints=tuple(pts[i] for i in cross_idx),
        parts=(("L", Polyline(pts[:i1 + 1], c.id)), ("M", Polyline(pts[i1:i2 + 1], c.id)),
               ("R", Polyline(pts[i2:], c.id))),
        interval=(pts[i1].x, pts[i2].x),
    )


def nested_or_disjoint_by_pairs(fam):
    """reductions.nested_or_disjoint as it was before its sort and stack:
    every pair of member intervals in order, (False, ids) at the first pair
    that is neither nested nor disjoint."""
    ms = fam.members
    for i in range(len(ms)):
        a1, a2 = ms[i].interval
        for j in range(i + 1, len(ms)):
            b1, b2 = ms[j].interval
            disjoint = a2 < b1 or b2 < a1
            nested = (a1 < b1 and b2 < a2) or (b1 < a1 and a2 < b2)
            if not (disjoint or nested):
                return False, (ms[i].id, ms[j].id)
    return True, None


def nesting_levels_by_pairs(fam) -> dict:
    """reductions._containment_heights, keyed by member id, as it was
    computed before its sort and stack: by increasing interval length, one
    more than the deepest level strictly inside, found by scanning every
    member placed so far."""
    order = sorted(fam.members, key=lambda m: m.interval[1] - m.interval[0])
    level: dict = {}
    for m in order:
        lo, hi = m.interval
        inner = [level[o.id] for o in order
                 if o.id in level and lo < o.interval[0] and o.interval[1] < hi]
        level[m.id] = 1 + max(inner, default=0)
    return level


def segment_meets_vstrip_by_fractions(a, b, lo, hi) -> bool:
    """geometry.segment_meets_vstrip as it was before its integer sign test:
    clip the segment's parameter range to the strip with Fractions and test
    the larger of the two ends' y values."""
    xmin, xmax = min(a.x, b.x), max(a.x, b.x)
    if xmax < lo or xmin > hi:
        return False
    if a.x == b.x:
        return max(a.y, b.y) >= 0
    if a.y == b.y:
        return a.y >= 0
    t0 = Fraction(lo - a.x, b.x - a.x)
    t1 = Fraction(hi - a.x, b.x - a.x)
    t0, t1 = min(t0, t1), max(t0, t1)
    t0 = max(t0, Fraction(0))
    t1 = min(t1, Fraction(1))
    y0 = a.y + t0 * (b.y - a.y)
    y1 = a.y + t1 * (b.y - a.y)
    return max(y0, y1) >= 0
