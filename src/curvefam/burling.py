"""Generator, verifier, and coloring auditor for the recursive probe construction.

The construction builds, for every k, a triangle-free LR-family of
double-curves X_k together with pairwise disjoint vertical probes P_k such
that any proper coloring uses at least k colors on the double-curves
crossing some probe. Level 1 is a single double-curve crossed by a single
probe; the step places a scaled copy of the previous level inside every
probe, below the horizontal arms crossing it, and wires one new double-curve
plus two new probes for every probe of every inner copy.

Geometry is laid out inside a unit box in ints at a fixed power-of-two scale
per level (2**51 at k = 4, 2**107 at k = 5), so every coordinate is exact and
every division is an exact integer division; every incidence claimed by the
construction is checked during that layout (CertificateError otherwise).
Every curve and probe is axis-parallel, so only the order of the x values and
of the y values matters: each is replaced by its rank, giving integer
coordinates from 1 upward over the baseline y = 0.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, NamedTuple, Optional

from .errors import CertificateError, ContractError
from .geometry import (MAX_GENERATED_CURVES, Point, Polyline, _segment_boxes,
                       polyline_meets_vstrip, polylines_disjoint, segment_meets_vstrip,
                       validate_simple)
from .families import PairMapped, validate_lr
from .graphcore import Coloring, _proper, find_triangle

def expected_sizes(k: int):
    """(member count, probe count) for level k, from the union recurrences."""
    n, p = 1, 1
    for _ in range(k - 1):
        n, p = n * (1 + p) + p * p, 2 * p * p
    return n, p


@dataclass(init=False, unsafe_hash=True, slots=True)
class Probe:
    """A vertical strip of the upper half-plane over [x_lo, x_hi]. The
    generator lays strips out with int ends at its layout scale, then
    replaces each end by its rank among the instance's x values."""

    x_lo: int
    x_hi: int

    def __init__(self, x_lo: int, x_hi: int):
        if x_lo >= x_hi:
            raise ContractError("probe needs positive width")
        self.x_lo = x_lo
        self.x_hi = x_hi

    def as_pair(self):
        return (self.x_lo, self.x_hi)


@dataclass(init=False, unsafe_hash=True, slots=True)
class DoubleCurve:
    """Two disjoint 1-curves; the left is a vertical segment, the right an
    L-shaped stem plus horizontal arm. The id records the recursion path."""

    id: str
    left: Polyline
    right: Polyline

    def __init__(self, id: str, left: Polyline, right: Polyline):
        _check_double_curve(id, left, right)
        self.id = id
        self.left = left
        self.right = right

    def polylines(self):
        return (self.left, self.right)

    def part_runs(self):
        return (("L", self.left.points), ("R", self.right.points))

    @property
    def basepoints(self):
        return (self.left.points[0], self.right.points[0])


class Gadget(NamedTuple):
    x_id: str
    a: Probe
    b: Probe


class BurlingNode(NamedTuple):
    """Recursion-tree node for one (sub)instance.

    Level-1 nodes hold a single member and probe. Higher nodes hold the
    outer copy, one inner copy per outer probe, and per (outer probe, inner
    probe) the new double-curve id with its two probes. Nodes and gadgets
    are named tuples: the generator and the loader build many, and a tuple
    is built without a frozen __setattr__ per field.
    """

    level: int
    member_id: Optional[str] = None
    probe: Optional[Probe] = None
    outer: Optional["BurlingNode"] = None
    inner: tuple = ()
    gadgets: tuple = ()   # gadgets[i][j] for outer probe i, inner probe j

    @property
    def probes(self) -> tuple:
        if self.level == 1:
            return (self.probe,)
        return tuple(s for row in self.gadgets for g in row for s in (g.a, g.b))

    def member_ids(self) -> list:
        if self.level == 1:
            return [self.member_id]
        ids = self.outer.member_ids()
        for child in self.inner:
            ids.extend(child.member_ids())
        for row in self.gadgets:
            for g in row:
                ids.append(g.x_id)
        return ids


@dataclass(frozen=True)
class BurlingInstance(PairMapped):
    """Coordinates are in units of 1/scale, the scale of the file the
    instance was loaded from; the generator's ranks are at scale 1."""

    k: int
    members: tuple
    probes: tuple
    tree: BurlingNode
    scale: int = 1


def _check_double_curve(id: str, left: Polyline, right: Polyline) -> None:
    """A double-curve's checks, in order: each part simple, on the baseline
    at its start only and above it after; the left basepoint first; the
    parts disjoint."""
    for name, poly in (("left", left), ("right", right)):
        validate_simple(poly)
        if poly.points[0].y != 0:
            raise ContractError(f"{id!r}.{name} must start on the baseline")
        for p in poly.points[1:]:
            if p.y <= 0:
                raise ContractError(f"{id!r}.{name} must stay strictly above the baseline")
    if left.points[0].x >= right.points[0].x:
        raise ContractError(f"{id!r}: left basepoint must precede the right one")
    if not polylines_disjoint(left, right):
        raise ContractError(f"{id!r}: the two 1-curves must be disjoint")


# Construction-time integer layout.

def _scale_bits(level: int) -> int:
    """D_level, for the layout scale 2**D_level of a level's coordinates:
    D_1 = 3, D_2 = 9 and D_(k+1) = 2 D_k + 5 (51 at k = 4, 107 at k = 5)."""
    d = 3
    for k in range(2, level + 1):
        d = 9 if k == 2 else 2 * d + 5
    return d


def _div(n: int, d: int) -> int:
    """n / d, which the layout needs exact at its scale."""
    q, r = divmod(n, d)
    if r:
        raise CertificateError(f"layout value {n}/{d} is off the integer grid")
    return q


class _RMember(NamedTuple):
    """One double-curve of the layout, each coordinate an int at the level's
    scale 2**D (the value times 2**D)."""

    id: str
    lx: int
    ltop: int
    rx: int
    rh: int
    rend: int


@dataclass(frozen=True)
class _RInst:
    members: tuple
    tree: BurlingNode   # probe ends at the layout scale until the final ranking


def _map_node(node: BurlingNode, prefix: str, f) -> BurlingNode:
    """The node with every member id prefixed and every probe end x -> f(x);
    f is increasing, so each probe keeps x_lo < x_hi."""
    if node.level == 1:
        p = node.probe
        return BurlingNode(1, prefix + node.member_id, Probe(f(p.x_lo), f(p.x_hi)))
    return BurlingNode(node.level, None, None, _map_node(node.outer, prefix, f),
                       tuple(_map_node(ch, prefix, f) for ch in node.inner),
                       tuple(tuple(Gadget(prefix + g.x_id, Probe(f(g.a.x_lo), f(g.a.x_hi)),
                                          Probe(f(g.b.x_lo), f(g.b.x_hi))) for g in row)
                             for row in node.gadgets))


def _base() -> _RInst:
    """Level 1 in eighths of the unit box (scale 2**3)."""
    m = _RMember("x", lx=1, ltop=4, rx=3, rh=2, rend=7)
    return _RInst((m,), BurlingNode(1, "x", Probe(4, 6)))


def _crossing_arms(inst: _RInst, lo: int, hi: int) -> list:
    """Members crossing the strip, checking the layout invariants."""
    out = []
    for m in inst.members:
        if lo <= m.lx <= hi or lo <= m.rx <= hi:
            raise CertificateError(f"left part or stem of {m.id!r} inside a probe strip")
        if m.rend < lo or m.rx > hi:
            continue
        if not (m.rx < lo and m.rend > hi):
            raise CertificateError(f"arm of {m.id!r} must span the strip fully")
        out.append(m)
    if not out:
        raise CertificateError("every probe is crossed by at least one member")
    heights = [m.rh for m in out]
    if len(set(heights)) != len(heights):
        raise CertificateError("arm heights must be distinct")
    return out


def _step(inst: _RInst) -> _RInst:
    """The next level at the next scale. The outer copy's coordinates are
    lifted to it; an inner copy maps old coordinates x -> x0 + x * sx, where
    sx is the strip's affine factor per old unit."""
    level = inst.tree.level
    scale = 1 << _scale_bits(level)
    up = 1 << (_scale_bits(level + 1) - _scale_bits(level))
    members = [_RMember("o." + m.id, m.lx * up, m.ltop * up, m.rx * up, m.rh * up,
                        m.rend * up)
               for m in inst.members]
    probes = inst.tree.probes
    p = len(probes)
    inner_nodes = []
    gadget_rows = []

    for i, q in enumerate(probes):
        h = up * min(m.rh for m in _crossing_arms(inst, q.x_lo, q.x_hi))
        lo, hi = q.x_lo * up, q.x_hi * up
        width = hi - lo

        # scaled copy of the whole instance inside the strip, below the arms
        x0, sx = lo + _div(width, 8), _div(3 * width, 8 * scale)
        sy = _div(h, 2 * scale)

        def fx(x):
            return x0 + x * sx

        pre = f"p{i}."
        for m in inst.members:
            members.append(_RMember(pre + m.id, fx(m.lx), m.ltop * sy,
                                    fx(m.rx), m.rh * sy, fx(m.rend)))
        copy = _map_node(inst.tree, pre, fx)
        inner_nodes.append(copy)

        row = []
        slot = _div(width, 2 * p)
        slot_1, slot_3, slot_5, slot_7 = (_div(n * slot, 8) for n in (1, 3, 5, 7))
        l_top, arm_step = _div(3 * h, 4), _div(h, 4 * p)
        for j, c_probe in enumerate(copy.probes):
            c, d = c_probe.as_pair()
            w = d - c
            l_x = c + _div(3 * w, 4)
            s0 = lo + _div(width, 2) + j * slot
            arm_h = _div(h, 2) + (j + 1) * arm_step
            gid = f"g{i}.{j}"
            members.append(_RMember(gid, l_x, l_top, s0 + slot_1, arm_h, s0 + slot_7))
            # w > 0 and slot > 0, so both probes have positive width
            row.append(Gadget(gid, Probe(c + _div(w, 4), c + _div(w, 2)),
                              Probe(s0 + slot_3, s0 + slot_5)))
        gadget_rows.append(tuple(row))

    tree = BurlingNode(level + 1, None, None, _map_node(inst.tree, "o.", lambda x: x * up),
                       tuple(inner_nodes), tuple(gadget_rows))
    return _RInst(tuple(members), tree)


def _all_probes(node: BurlingNode) -> list:
    """The probes of the node and of every copy below it."""
    if node.level == 1:
        return [node.probe]
    below = [q for ch in (node.outer, *node.inner) for q in _all_probes(ch)]
    return below + list(node.probes)


def _ranker(values):
    """v -> the rank of v among the distinct values, from 1 upward."""
    keys = sorted(set(values))
    return dict(zip(keys, range(1, len(keys) + 1))).__getitem__


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector. The generator and the family-file
    loader build no reference cycles, and nearly all they build outlives the
    call, so the collector's passes over it would free nothing; on X_5 they
    took about 40 % of the CPU time of each."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def generate(k: int) -> BurlingInstance:
    """Generate the level-k instance with rank coordinates (see the module
    docstring). A level with more than MAX_GENERATED_CURVES members, as every
    k >= 6 has, raises ContractError before any member is built."""
    if k < 1:
        raise ContractError("k must be at least 1")
    for level in range(1, k + 1):       # stops at the first level past the cap
        n_exp, p_exp = expected_sizes(level)
        if n_exp > MAX_GENERATED_CURVES:
            raise ContractError(
                f"level {k} has {'' if level == k else 'more than '}{n_exp} double-curves, "
                f"beyond the {MAX_GENERATED_CURVES} the generator builds")

    with _cyclic_gc_paused():
        inst = _base()
        for _ in range(k - 1):
            inst = _step(inst)

        rank_x = _ranker([x for m in inst.members for x in (m.lx, m.rx, m.rend)]
                         + [x for q in _all_probes(inst.tree) for x in q.as_pair()])
        rank_y = _ranker([y for m in inst.members for y in (m.ltop, m.rh)])
        members = []
        for m in inst.members:
            lx, rx, rend = rank_x(m.lx), rank_x(m.rx), rank_x(m.rend)
            ltop, rh = rank_y(m.ltop), rank_y(m.rh)
            left = Polyline((Point(lx, 0), Point(lx, ltop)), f"{m.id}.L")
            right = Polyline((Point(rx, 0), Point(rx, rh), Point(rend, rh)), f"{m.id}.R")
            members.append(DoubleCurve(m.id, left, right))
        tree = _map_node(inst.tree, "", rank_x)

    probes = tree.probes
    if (len(members), len(probes)) != (n_exp, p_exp):
        raise CertificateError(
            f"size mismatch: got ({len(members)}, {len(probes)}), "
            f"expected ({n_exp}, {p_exp})")
    xs = [p.x for m in members for p in m.basepoints]
    if len(set(xs)) != len(xs):
        raise CertificateError("basepoints are not pairwise distinct")
    return BurlingInstance(k, tuple(members), probes, tree)


def strip_hits(members, probes) -> list:
    """Per probe, the indices of the members whose left part meets its closed
    strip and of those whose point set meets it, both in member order.

    Strips sorted by x_lo, with a running maximum of x_hi, let two bisections
    bound the strips a part's x-extent can reach (exactly those it overlaps
    if the strips are disjoint). A part that can reach one builds its
    segment boxes once, and each strip it reaches tests them exactly."""
    order = sorted(range(len(probes)), key=lambda s: probes[s].x_lo)
    starts = [probes[s].x_lo for s in order]
    reach = list(accumulate((probes[s].x_hi for s in order), max))

    def strips_met(part: Polyline) -> set:
        x0, _, x1, _ = part.bbox
        near = order[bisect_left(reach, x0):bisect_right(starts, x1)]
        if not near:
            return set()
        boxes = [box for box in _segment_boxes(part.points) if box[3] >= 0]
        met = set()
        for s in near:
            lo, hi = probes[s].x_lo, probes[s].x_hi
            for xmin, xmax, _, _, a, b in boxes:
                if xmax >= lo and xmin <= hi and segment_meets_vstrip(a, b, lo, hi):
                    met.add(s)
                    break
        return met

    hits = [([], []) for _ in probes]
    for i, m in enumerate(members):
        on_left = strips_met(m.left)
        for s in on_left:
            hits[s][0].append(i)
        for s in on_left | strips_met(m.right):
            hits[s][1].append(i)
    return hits


def crossing_set(inst: BurlingInstance, probe: Probe) -> list:
    """Ids of the double-curves whose point set meets the closed strip."""
    ((_, crossing),) = strip_hits(inst.members, [probe])
    return [inst.members[i].id for i in crossing]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class BurlingReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list:
        return [f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}" for c in self.checks]


def verify_properties(inst: BurlingInstance) -> BurlingReport:
    """Geometric verification of the construction's defining properties.

    Checks, in order: the size recurrences; distinct basepoints; pairwise
    disjoint probes; every probe disjoint from every left 1-curve; pairwise
    disjointness of each probe's crossing set; triangle-freeness by
    exhaustive search; and LR-family validation of the whole instance.
    Failures become report entries, never exceptions.
    """
    checks = []
    n_exp, p_exp = expected_sizes(inst.k)
    ok = (len(inst.members), len(inst.probes)) == (n_exp, p_exp)
    checks.append(CheckResult(
        "sizes-match-recurrence", ok,
        f"|X|={len(inst.members)}, |P|={len(inst.probes)}, expected ({n_exp}, {p_exp})"))

    xs = [p.x for m in inst.members for p in m.basepoints]
    ok = len(set(xs)) == len(xs)
    checks.append(CheckResult("basepoints-distinct", ok,
                              f"{len(xs)} basepoints" if ok else "duplicate basepoint"))

    strips = sorted(p.as_pair() for p in inst.probes)
    overlap = [(a, b) for a, b in zip(strips, strips[1:]) if b[0] <= a[1]]
    checks.append(CheckResult(
        "probes-pairwise-disjoint", not overlap,
        f"{len(strips)} disjoint strips" if not overlap
        else f"overlapping strips {overlap[:3]}"))

    hits = strip_hits(inst.members, inst.probes)
    bad = [(pi, inst.members[i].id) for pi, (left, _) in enumerate(hits) for i in left]
    checks.append(CheckResult(
        "probes-avoid-left-parts", not bad,
        "all probes disjoint from every L(X)" if not bad else f"violations: {bad[:5]}"))

    g = inst.graph()   # vertex v is inst.members[v]
    bad = []
    for pi, (_, crossing) in enumerate(hits):
        for a, u in enumerate(crossing):
            row = g.adj[u]
            for v in crossing[a + 1:]:
                if (row >> v) & 1:
                    bad.append((pi, inst.members[u].id, inst.members[v].id))
    checks.append(CheckResult(
        "crossing-sets-pairwise-disjoint", not bad,
        "members crossing each probe are pairwise disjoint" if not bad
        else f"violations: {bad[:5]}"))

    tri = find_triangle(g)
    omega = 2 if g.m else (1 if g.n else 0)
    checks.append(CheckResult(
        "triangle-free", tri is None,
        f"no triangle among {g.n} vertices, omega={omega}" if tri is None
        else f"triangle {tuple(g.labels[v] for v in tri)}"))

    lr = validate_lr(inst)
    checks.append(CheckResult(
        "lr-family", lr.ok,
        f"{lr.checked_pairs} pairs checked" if lr.ok
        else "; ".join(lr.report_lines()[:5])))

    return BurlingReport(tuple(checks))


def _descend(node: BurlingNode, coloring: Mapping[str, int], colors_on):
    """(index in node.probes, colors) of a probe of node with >= node.level
    colors; not a closure, which calling itself would be a reference cycle."""
    if node.level == 1:
        return 0, colors_on(node, node.probe)
    i, colors_p = _descend(node.outer, coloring, colors_on)
    j, colors_q = _descend(node.inner[i], coloring, colors_on)

    gadget = node.gadgets[i][j]
    if colors_p != colors_q:
        picked = gadget.a
    else:
        x_color = coloring[gadget.x_id]
        if x_color in colors_p:
            raise CertificateError(
                "new double-curve shares a color with the set it crosses")
        picked = gadget.b
    idx = node.probes.index(picked)
    colors = colors_on(node, picked)
    if len(colors) < node.level:
        raise CertificateError(
            f"audit invariant broken: {len(colors)} colors at level {node.level}")
    return idx, colors


@dataclass(frozen=True)
class AuditResult:
    probe: Probe
    probe_index: int
    colors: frozenset


def audit_coloring(inst: BurlingInstance, coloring: Mapping[str, int]) -> AuditResult:
    """Find a probe of the instance carrying at least k distinct colors.

    Implements the recursive argument behind the chromatic lower bound:
    descend through the copies picking a probe of the outer copy and a probe
    of the matching inner copy that already carry many colors, then compare
    the two color sets and pick the first or second new probe accordingly.
    The input coloring must be proper (checked; ImproperColoring otherwise).
    """
    missing = [m.id for m in inst.members if m.id not in coloring]
    if missing:
        raise ContractError(f"coloring misses members {missing[:3]}")
    g = inst.graph()
    _proper(g, Coloring(tuple(coloring[l] for l in g.labels)))

    by_id = {m.id: m for m in inst.members}

    def colors_on(node: BurlingNode, probe: Probe) -> frozenset:
        lo, hi = probe.x_lo, probe.x_hi
        return frozenset(coloring[mid] for mid in node.member_ids()
                         if any(part.bbox[0] <= hi and lo <= part.bbox[2]
                                and polyline_meets_vstrip(part, lo, hi)
                                for part in by_id[mid].polylines()))

    idx, colors = _descend(inst.tree, coloring, colors_on)
    if len(colors) < inst.k:
        raise CertificateError("audit returned fewer colors than the level")
    return AuditResult(inst.probes[idx], idx, colors)
