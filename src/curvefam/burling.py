"""Generator, verifier, and coloring auditor for the recursive probe construction.

The construction builds, for every k, a triangle-free LR-family of
double-curves X_k together with pairwise disjoint vertical probes P_k such
that any proper coloring uses at least k colors on the double-curves
crossing some probe. Level 1 is a single double-curve crossed by a single
probe; the step places a scaled copy of the previous level inside every
probe, below the horizontal arms crossing it, and wires one new double-curve
plus two new probes for every probe of every inner copy.

Geometry is laid out in exact dyadic rationals inside a unit box, and every
incidence claimed by the construction is checked during that layout
(CertificateError otherwise). Every curve and probe is axis-parallel, so only
the order of the x values and of the y values matters: each is replaced by
its rank, giving integer coordinates from 1 upward over the baseline y = 0.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Mapping, Optional

from .errors import CertificateError, ContractError, ImproperColoring
from .geometry import MAX_GENERATED_CURVES, Point, Polyline, polyline_meets_vstrip, polylines_disjoint
from .families import pair_points, validate_lr
from .graphcore import Coloring, IntersectionGraph, find_triangle, graph_from_edges, is_proper

def expected_sizes(k: int):
    """(member count, probe count) for level k, from the union recurrences."""
    n, p = 1, 1
    for _ in range(k - 1):
        n, p = n * (1 + p) + p * p, 2 * p * p
    return n, p


@dataclass(frozen=True)
class Probe:
    """A vertical strip of the upper half-plane over [x_lo, x_hi]. The
    generator lays strips out with Fraction ends, then replaces each end by
    its rank among the instance's x values."""

    x_lo: int
    x_hi: int

    def __post_init__(self):
        if self.x_lo >= self.x_hi:
            raise ContractError("probe needs positive width")

    def as_pair(self):
        return (self.x_lo, self.x_hi)


@dataclass(frozen=True)
class DoubleCurve:
    """Two disjoint 1-curves; the left is a vertical segment, the right an
    L-shaped stem plus horizontal arm. The id records the recursion path."""

    id: str
    left: Polyline
    right: Polyline

    def __post_init__(self):
        for name, poly in (("left", self.left), ("right", self.right)):
            foot = poly.points[0]
            if foot.y != 0:
                raise ContractError(f"{self.id!r}.{name} must start on the baseline")
            if any(p.y <= 0 for p in poly.points[1:]):
                raise ContractError(
                    f"{self.id!r}.{name} must stay strictly above the baseline")
        if self.left.points[0].x >= self.right.points[0].x:
            raise ContractError(
                f"{self.id!r}: left basepoint must precede the right one")
        if not polylines_disjoint(self.left, self.right):
            raise ContractError(f"{self.id!r}: the two 1-curves must be disjoint")

    def polylines(self):
        return (self.left, self.right)

    def parts(self):
        return (("L", self.left), ("R", self.right))

    @property
    def basepoints(self):
        return (self.left.points[0], self.right.points[0])

    def basepoint_xs(self):
        return [p.x for p in self.basepoints]


@dataclass(frozen=True)
class Gadget:
    x_id: str
    a: Probe
    b: Probe


@dataclass(frozen=True)
class BurlingNode:
    """Recursion-tree node for one (sub)instance.

    Level-1 nodes hold a single member and probe. Higher nodes hold the
    outer copy, one inner copy per outer probe, and per (outer probe, inner
    probe) the new double-curve id with its two probes.
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
class BurlingInstance:
    k: int
    members: tuple
    probes: tuple
    tree: BurlingNode

    @cached_property
    def pairs(self) -> dict:
        """The part-labelled pair map, computed on first use; see pair_points."""
        return pair_points(self.members)

    def graph(self) -> IntersectionGraph:
        return graph_from_edges(len(self.members), self.pairs,
                                tuple(m.id for m in self.members))


# Construction-time rational layout.

@dataclass(frozen=True)
class _RMember:
    id: str
    lx: Fraction
    ltop: Fraction
    rx: Fraction
    rh: Fraction
    rend: Fraction


@dataclass(frozen=True)
class _RInst:
    members: tuple
    tree: BurlingNode   # probe ends are Fractions until the final ranking


def _map_node(node: BurlingNode, prefix: str, f) -> BurlingNode:
    """The node with every member id prefixed and every probe end x -> f(x)."""
    def probe(p):
        return Probe(f(p.x_lo), f(p.x_hi))

    if node.level == 1:
        return BurlingNode(level=1, member_id=prefix + node.member_id,
                           probe=probe(node.probe))
    return BurlingNode(
        level=node.level,
        outer=_map_node(node.outer, prefix, f),
        inner=tuple(_map_node(ch, prefix, f) for ch in node.inner),
        gadgets=tuple(tuple(Gadget(prefix + g.x_id, probe(g.a), probe(g.b)) for g in row)
                      for row in node.gadgets))


def _base() -> _RInst:
    e = Fraction(1, 8)
    m = _RMember("x", lx=e, ltop=4 * e, rx=3 * e, rh=2 * e, rend=7 * e)
    return _RInst((m,), BurlingNode(level=1, member_id="x", probe=Probe(4 * e, 6 * e)))


def _crossing_arms(inst: _RInst, lo: Fraction, hi: Fraction) -> list:
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
    members = [_RMember("o." + m.id, m.lx, m.ltop, m.rx, m.rh, m.rend)
               for m in inst.members]
    probes = inst.tree.probes
    p = len(probes)
    inner_nodes = []
    gadget_rows = []

    for i, (lo, hi) in enumerate(q.as_pair() for q in probes):
        width = hi - lo
        h = min(m.rh for m in _crossing_arms(inst, lo, hi))

        # scaled copy of the whole instance inside the strip, below the arms
        x0, sx = lo + width / 8, 3 * width / 8

        def fx(x):
            return x0 + x * sx

        sy = h / 2
        pre = f"p{i}."
        for m in inst.members:
            members.append(_RMember(pre + m.id, fx(m.lx), m.ltop * sy,
                                    fx(m.rx), m.rh * sy, fx(m.rend)))
        copy = _map_node(inst.tree, pre, fx)
        inner_nodes.append(copy)

        row = []
        for j, (c, d) in enumerate(q.as_pair() for q in copy.probes):
            w = d - c
            l_x = c + 3 * w / 4
            l_top = 3 * h / 4
            slot = width / (2 * p)
            s0 = lo + width / 2 + j * slot
            stem = s0 + slot / 8
            arm_end = s0 + 7 * slot / 8
            arm_h = h / 2 + (j + 1) * h / (4 * p)
            gid = f"g{i}.{j}"
            members.append(_RMember(gid, l_x, l_top, stem, arm_h, arm_end))
            row.append(Gadget(gid, Probe(c + w / 4, c + w / 2),
                              Probe(s0 + 3 * slot / 8, s0 + 5 * slot / 8)))
        gadget_rows.append(tuple(row))

    tree = BurlingNode(level=inst.tree.level + 1,
                       outer=_map_node(inst.tree, "o.", lambda x: x),
                       inner=tuple(inner_nodes), gadgets=tuple(gadget_rows))
    return _RInst(tuple(members), tree)


def _all_probes(node: BurlingNode) -> list:
    """The probes of the node and of every copy below it."""
    if node.level == 1:
        return [node.probe]
    below = [q for ch in (node.outer, *node.inner) for q in _all_probes(ch)]
    return below + list(node.probes)


def _ranker(values):
    """v -> the rank of v among the distinct values, from 1 upward. The values
    are dyadic, so scaled by their largest denominator they sort as ints."""
    den = max(v.denominator for v in values)
    keys = sorted({v.numerator * (den // v.denominator) for v in values})
    rank = dict(zip(keys, range(1, len(keys) + 1)))
    return lambda v: rank[v.numerator * (den // v.denominator)]


def generate(k: int) -> BurlingInstance:
    """Generate the level-k instance with rank coordinates (see the module
    docstring). A level with more than MAX_GENERATED_CURVES members, as every
    k >= 6 has, raises ContractError before any member is built."""
    if k < 1:
        raise ContractError("k must be at least 1")
    n_exp, p_exp = expected_sizes(k)
    if n_exp > MAX_GENERATED_CURVES:
        raise ContractError(
            f"level {k} has {n_exp} double-curves, beyond the "
            f"{MAX_GENERATED_CURVES} the generator builds")

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
    xs = [x for m in members for x in m.basepoint_xs()]
    if len(set(xs)) != len(xs):
        raise CertificateError("basepoints are not pairwise distinct")
    return BurlingInstance(k, tuple(members), probes, tree)


def strip_hits(members, probes) -> list:
    """Per probe, the indices of the members whose left part meets its closed
    strip and of those whose point set meets it, both in member order.

    Strips sorted by x_lo, with a running maximum of x_hi, let two bisections
    bound the strips a part's x-extent can reach (exactly those it overlaps
    if the strips are disjoint); only those get the exact test."""
    order = sorted(range(len(probes)), key=lambda s: probes[s].x_lo)
    starts = [probes[s].x_lo for s in order]
    reach = list(accumulate((probes[s].x_hi for s in order), max))

    def strips_met(part: Polyline) -> set:
        x0, _, x1, _ = part.bbox
        return {s for s in order[bisect_left(reach, x0):bisect_right(starts, x1)]
                if polyline_meets_vstrip(part, probes[s].x_lo, probes[s].x_hi)}

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

    Checks, in order: the size recurrences; distinct basepoints; every probe
    disjoint from every left 1-curve; pairwise disjointness of each probe's
    crossing set; triangle-freeness by exhaustive search; and LR-family
    validation of the whole instance. Failures become report entries, never
    exceptions.
    """
    checks = []
    n_exp, p_exp = expected_sizes(inst.k)
    ok = (len(inst.members), len(inst.probes)) == (n_exp, p_exp)
    checks.append(CheckResult(
        "sizes-match-recurrence", ok,
        f"|X|={len(inst.members)}, |P|={len(inst.probes)}, expected ({n_exp}, {p_exp})"))

    xs = [x for m in inst.members for x in m.basepoint_xs()]
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
    ok, edge = is_proper(g, Coloring(tuple(coloring[l] for l in g.labels)))
    if not ok:
        raise ImproperColoring((g.labels[edge[0]], g.labels[edge[1]]))

    by_id = {m.id: m for m in inst.members}

    def colors_on(node: BurlingNode, probe: Probe) -> frozenset:
        members = [by_id[mid] for mid in node.member_ids()]
        ((_, crossing),) = strip_hits(members, [probe])
        return frozenset(coloring[members[i].id] for i in crossing)

    def descend(node: BurlingNode):
        if node.level == 1:
            return 0, colors_on(node, node.probe)
        i, colors_p = descend(node.outer)
        j, colors_q = descend(node.inner[i])

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

    idx, colors = descend(inst.tree)
    if len(colors) < inst.k:
        raise CertificateError("audit returned fewer colors than the level")
    return AuditResult(inst.probes[idx], idx, colors)
