"""Constructive coloring reductions over validated curve families.

Each operation here is an executable transformation with a checkable
contract: splitting a family by connectivity of its end 1-curves, coloring
the cross-component part with at most 4 colors, rewiring middles below the
baseline, splitting 2t-curve families toward 1-curves, product colorings,
and the greedy ordered-subgraph extraction used to find edges whose
in-between subgraph has large chromatic number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import (
    AuxiliaryNotFourColorable,
    BelowBaselineIntersectionError,
    CertificateError,
    ContractError,
    ImproperCellColoring,
    IntervalCrossingError,
    PreconditionUnmet,
)
from .families import (
    CurveFamily,
    FamilyKind,
    decompose_even_curve,
    make_one_curve,
    validate_lr,
)
from .geometry import Point, Polyline, on_segment, polylines_disjoint, subcurve
from .graphcore import (
    Coloring,
    IntersectionGraph,
    _as_budget,
    chromatic_decision,
    chromatic_number,
    graph_from_edges,
    greedy_coloring,
    induced_subgraph,
    is_proper,
)


# Component split and the 4-color cross-component coloring.

@dataclass(frozen=True)
class ComponentSplit:
    """Partition of a family by connectivity of its end 1-curves.

    components are arc-connected components of the union of all left/right
    1-curves, as frozensets of (member id, "L" | "R"). f_same holds members
    whose two 1-curves fall in one component, f_diff the rest.
    """

    family: CurveFamily
    components: tuple
    comp_of: dict
    f_same: tuple
    f_diff: tuple


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int):
        fx, fy = self.find(x), self.find(y)
        if fx != fy:
            self.parent[fy] = fx


def component_split(fam: CurveFamily) -> ComponentSplit:
    """Group the 1-curves of an LR family into arc-connected components.

    Since each 1-curve is connected, two of them share a component exactly
    when a chain of pairwise intersections links them; union-find over the
    intersecting pairs therefore reproduces the components of the union.
    The meeting parts are read off the family's part-labelled pair map:
    1-curves 2i and 2i + 1 are the left and right of member i.
    """
    if getattr(fam, "kind", None) is FamilyKind.ONE_CURVE:
        raise ContractError("component_split needs even-curves or double-curves")
    keys = []
    for m in fam.members:
        if not polylines_disjoint(m.left, m.right):
            raise ContractError(
                f"member {m.id!r}: left and right 1-curves intersect; "
                "not a valid LR family member")
        keys.extend(((m.id, "L"), (m.id, "R")))
    side = {"L": 0, "R": 1}
    meeting = set()
    for (i, j), hits in fam.pairs.items():
        for _, on_i, on_j in hits:
            meeting.update((2 * i + side[a], 2 * j + side[b])
                           for a in on_i if a in side for b in on_j if b in side)
    uf = _UnionFind(len(keys))
    for a, b in sorted(meeting):
        uf.union(a, b)
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(uf.find(i), set()).add(key)
    components = tuple(frozenset(g) for _, g in sorted(groups.items()))
    comp_of = {}
    for ci, comp in enumerate(components):
        for key in comp:
            comp_of[key] = ci
    f_same, f_diff = [], []
    for m in fam.members:
        if comp_of[(m.id, "L")] == comp_of[(m.id, "R")]:
            f_same.append(m.id)
        else:
            f_diff.append(m.id)
    return ComponentSplit(fam, components, comp_of, tuple(f_same), tuple(f_diff))


@dataclass(frozen=True)
class CrossComponentColoring:
    coloring: dict              # member id -> color, for f_diff members
    aux_graph: IntersectionGraph
    aux_coloring: Coloring
    palette: int


def color_cross_component(split: ComponentSplit, budget=None) -> CrossComponentColoring:
    """Properly color the different-component members with at most 4 colors.

    Components become vertices of an auxiliary graph with an edge for every
    f_diff member linking two components; that graph is planar, so an exact
    4-coloring exists and lifts through each member's left component.
    """
    budget = _as_budget(budget)
    fam = split.family
    n_comp = len(split.components)
    edges = set()
    for mid in split.f_diff:
        a = split.comp_of[(mid, "L")]
        b = split.comp_of[(mid, "R")]
        edges.add((min(a, b), max(a, b)))
    aux = graph_from_edges(n_comp, sorted(edges),
                           tuple(f"comp{i}" for i in range(n_comp)))
    witness = chromatic_decision(aux, 4, budget)
    if witness is None:
        raise AuxiliaryNotFourColorable(
            "component auxiliary graph needs more than 4 colors; "
            "the input cannot be a valid LR family")
    coloring = {mid: witness.colors[split.comp_of[(mid, "L")]]
                for mid in split.f_diff}

    sub, _ = induced_subgraph(fam.graph(), [v for v, m in enumerate(fam.members)
                                            if m.id in coloring])
    lifted = Coloring(tuple(coloring[mid] for mid in sub.labels))
    ok, edge = is_proper(sub, lifted)
    if not ok:
        raise AuxiliaryNotFourColorable(
            f"lifted coloring is improper on pair {sub.labels[edge[0]]!r}, "
            f"{sub.labels[edge[1]]!r}; the input cannot be a valid LR family")
    palette = len(set(coloring.values())) if coloring else 0
    return CrossComponentColoring(coloring, aux, witness, palette)


# Interval structure and below-baseline rewiring.

def nested_or_disjoint(fam: CurveFamily):
    """(True, None) if all member intervals are pairwise nested or disjoint,
    else (False, (id1, id2)) naming the first crossing pair."""
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


def _nesting_levels(fam: CurveFamily) -> dict:
    """Height of each member in the interval containment forest.

    Innermost intervals get level 1; a member strictly containing others
    gets one more than the deepest contained level. Deeper dips for outer
    members keep the below-baseline parts pairwise disjoint.
    """
    order = sorted(fam.members, key=lambda m: m.interval[1] - m.interval[0])
    level: dict = {}
    for m in order:
        lo, hi = m.interval
        inner = [level[o.id] for o in order
                 if o.id in level and lo < o.interval[0] and o.interval[1] < hi]
        level[m.id] = 1 + max(inner, default=0)
    return level


def rewire_semicircles(fam: CurveFamily) -> CurveFamily:
    """Replace every middle part by a below-baseline dip, yielding 2-curves.

    Requires pairwise nested-or-disjoint intervals. The dip for a member is
    a three-segment rectangular path at integer depth equal to its interval
    nesting level, so dips of nested members stay disjoint. Left and right
    1-curves are kept verbatim; the intersection graph is unchanged.
    """
    ok, pair = nested_or_disjoint(fam)
    if not ok:
        raise IntervalCrossingError(*pair)
    levels = _nesting_levels(fam)
    rewired = []
    for m in fam.members:
        if m.middle is None:
            raise ContractError(f"member {m.id!r} has no middle part to rewire")
        d = levels[m.id]
        bl = m.left.points[-1]
        br = m.right.points[0]
        dip = (Point(bl.x, -d), Point(br.x, -d))
        pts = tuple(m.left.points) + dip + tuple(m.right.points)
        rewired.append(decompose_even_curve(Polyline(pts, m.id)))

    out = CurveFamily(tuple(rewired), FamilyKind.LR2)
    res = validate_lr(out)
    if not res.ok:
        raise ContractError(
            "rewiring produced a non-LR family; input was not a valid LR family: "
            + str(res.violations[0]))
    return out


# Splitting 2t-curve families.

def _events_on_edge(curve: Polyline, edge: int, points: Sequence[Point]) -> list:
    """Parameters in (0, 1) at which the given points lie on the given edge."""
    ts = []
    a, b = curve.points[edge], curve.points[edge + 1]
    for p in points:
        if on_segment(p, a, b):
            if b.x != a.x:
                t = Fraction(p.x - a.x, b.x - a.x)
            else:
                t = Fraction(p.y - a.y, b.y - a.y)
            if 0 < t < 1:
                ts.append(t)
    return ts


def split_2t(fam: CurveFamily):
    """Split a family of 2t-curves into its two derived families.

    Each member contributes its piece from the first endpoint through the
    (2t-1)-th crossing to the first family and the piece from the second
    crossing through the other endpoint to the second. For t >= 2 the cut
    ends are retracted halfway toward the nearest intersection event along
    the cut edge, which destroys the cut basepoint but keeps every
    intersection with other members; both derived families are then
    2(t-1)-curve families. For t = 1 the derived families are the left and
    right 1-curves.
    """
    if fam.kind is not FamilyKind.TWO_T or fam.t is None:
        raise ContractError("split_2t needs a TWO_T(t) family")
    t = fam.t
    ms = fam.members
    meets = [[] for _ in ms]             # points where other members meet member i
    for (i, j), hits in fam.pairs.items():
        for p, _, _ in hits:
            if p.y < 0:
                raise BelowBaselineIntersectionError(ms[i].id, ms[j].id, p)
            meets[i].append(p)
            meets[j].append(p)

    f1, f2 = [], []
    for m, hits in zip(ms, meets):
        pts = m.curve.points
        cross_idx = [i for i in range(1, len(pts) - 1) if pts[i].y == 0]
        if t == 1:
            f1.append(make_one_curve(m.left))
            f2.append(make_one_curve(m.right))
            continue

        vi = cross_idx[2 * t - 2]          # crossing p_(2t-1)
        edge_in = vi - 1
        ts = [u for u in _events_on_edge(m.curve, edge_in, hits) if u < 1]
        cut1 = (edge_in, (max(ts, default=Fraction(0)) + 1) / 2)
        piece1 = subcurve(m.curve, (0, Fraction(0)), cut1, m.id)

        vj = cross_idx[1]                  # crossing p_2
        ts = [u for u in _events_on_edge(m.curve, vj, hits) if u > 0]
        cut2 = (vj, min(ts, default=Fraction(1)) / 2)
        piece2 = subcurve(m.curve, cut2, (len(pts) - 2, Fraction(1)), m.id)

        f1.append(decompose_even_curve(piece1))
        f2.append(decompose_even_curve(piece2))

    if t == 1:
        return (CurveFamily(tuple(f1), FamilyKind.ONE_CURVE),
                CurveFamily(tuple(f2), FamilyKind.ONE_CURVE))
    return (CurveFamily(tuple(f1), FamilyKind.TWO_T, t - 1),
            CurveFamily(tuple(f2), FamilyKind.TWO_T, t - 1))


# Product coloring.

@dataclass(frozen=True)
class CellRecord:
    key: tuple              # (phi1 color, phi2 color)
    member_ids: tuple
    lr_certified: bool
    cell_coloring: dict     # member id -> cell color
    palette: int


@dataclass(frozen=True)
class ProductColoringResult:
    coloring: dict          # member id -> dense combined color
    palette: int
    bound: int              # |phi1| * |phi2| * max cell palette
    cells: tuple


def product_color(fam: CurveFamily, phi1: dict, phi2: dict,
                  cell_colorer: Optional[Callable] = None,
                  budget=None) -> ProductColoringResult:
    """Combine colorings of the two derived families with per-cell colorings.

    Members constant on (phi1, phi2) form a cell; valid inputs make every
    cell an LR-family, which is certified here. Each cell is colored by
    cell_colorer (the exact solver by default); the final color of a member
    is the dense index of (phi1, phi2, cell color). The result is proper on
    the full family.
    """
    budget = _as_budget(budget)
    for phi, name in ((phi1, "phi1"), (phi2, "phi2")):
        missing = [m.id for m in fam.members if m.id not in phi]
        if missing:
            raise ContractError(f"{name} misses members {missing[:3]}")

    if cell_colorer is None:
        def cell_colorer(cell: CurveFamily) -> dict:
            g = cell.graph()
            _, w = chromatic_number(g, budget=budget)
            return w.as_label_map(g)

    cells_by_key: dict = {}
    for m in fam.members:
        cells_by_key.setdefault((phi1[m.id], phi2[m.id]), []).append(m)

    records = []
    combined: dict = {}
    max_cell_palette = 0
    for key in sorted(cells_by_key):
        members = cells_by_key[key]
        cell_fam = CurveFamily(tuple(members), fam.kind, fam.t)
        cert = validate_lr(cell_fam)
        if not cert.ok:
            raise ContractError(
                f"cell {key} is not an LR family (were phi1/phi2 proper?): "
                + str(cert.violations[0]))
        cc = cell_colorer(cell_fam)
        g = cell_fam.graph()
        ok, edge = is_proper(g, Coloring(tuple(cc[m.id] for m in members)))
        if not ok:
            raise ImproperCellColoring(
                f"cell {key} coloring is improper on "
                f"({g.labels[edge[0]]!r}, {g.labels[edge[1]]!r})")
        palette = len(set(cc.values()))
        max_cell_palette = max(max_cell_palette, palette)
        records.append(CellRecord(key, tuple(m.id for m in members), True,
                                  dict(cc), palette))
        for m in members:
            combined[m.id] = (key[0], key[1], cc[m.id])

    dense = {trip: i for i, trip in enumerate(sorted(set(combined.values())))}
    coloring = {mid: dense[trip] for mid, trip in combined.items()}

    g = fam.graph()
    ok, edge = is_proper(g, Coloring(tuple(coloring[m.id] for m in fam.members)))
    if not ok:
        raise ImproperCellColoring(
            f"combined coloring improper on ({g.labels[edge[0]]!r}, {g.labels[edge[1]]!r})")
    bound = (len(set(phi1[m.id] for m in fam.members))
             * len(set(phi2[m.id] for m in fam.members))
             * max(max_cell_palette, 1))
    if len(set(coloring.values())) > bound:
        raise ImproperCellColoring("palette exceeds the product bound")
    return ProductColoringResult(coloring, len(set(coloring.values())),
                                 bound, tuple(records))


def two_t_product_coloring(fam: CurveFamily, budget=None) -> dict:
    """Properly color a 2t-curve family by recursive splitting.

    Splits down to 1-curve families, colors those exactly, and combines the
    levels with product colorings. Returns a member id -> color map that is
    proper on the input family.
    """
    budget = _as_budget(budget)
    if fam.kind is FamilyKind.ONE_CURVE:
        g = fam.graph()
        _, w = chromatic_number(g, budget=budget)
        return w.as_label_map(g)
    fam1, fam2 = split_2t(fam)
    phi1 = two_t_product_coloring(fam1, budget)
    phi2 = two_t_product_coloring(fam2, budget)
    return product_color(fam, phi1, phi2, budget=budget).coloring


# Greedy ordered-subgraph extraction.

@dataclass(frozen=True)
class McGuinnessResult:
    h_vertices: tuple        # vertex ids of H in the host graph
    h_graph: IntersectionGraph
    chi_h: int
    blocks: tuple            # greedy prefix blocks, each a tuple of vertices
    class_index: int         # color class r chosen across blocks
    parity: str              # "even" or "odd"
    edge_between_chi: dict   # H-edge (u, v) -> exact chi of G(u, v)
    chi_host: int
    threshold: int


def mcguinness_subgraph(G: IntersectionGraph, order: Sequence[int],
                        alpha: int, beta: int, budget=None) -> McGuinnessResult:
    """Extract an induced subgraph H with chi(H) > alpha whose every edge
    spans an in-between subgraph of chromatic number > beta.

    Requires (and verifies) chi(G) > (2*beta + 2) * alpha. Processes the
    vertices greedily in the given order into blocks of chromatic number
    exactly beta + 1, takes the best color class across blocks, and keeps
    one parity of blocks (even preferred when both qualify). Both
    post-conditions are re-verified with the exact solver.
    """
    budget = _as_budget(budget)
    if sorted(order) != list(range(G.n)):
        raise ContractError("order must be a permutation of the vertices")
    if alpha < 1 or beta < 1:
        raise ContractError("alpha and beta must be positive")

    chi_host, _ = chromatic_number(G, budget=budget)
    threshold = (2 * beta + 2) * alpha
    if chi_host <= threshold:
        raise PreconditionUnmet(
            f"chi(G) = {chi_host} <= ({2 * beta + 2})*{alpha} = {threshold}")

    blocks = []
    current: list = []
    for v in order:
        current.append(v)
        sub, _ = induced_subgraph(G, current)
        if chromatic_decision(sub, beta, budget) is None:
            blocks.append(tuple(current))   # chi just reached beta + 1
            current = []
    if current:
        blocks.append(tuple(current))

    block_classes = []
    for blk in blocks:
        sub, mapping = induced_subgraph(G, blk)
        # first-fit along the order usually realizes the beta+1 coloring and
        # keeps the outcome deterministic; fall back to the exact solver
        w = greedy_coloring(sub, list(range(sub.n)))
        if w.num_colors > beta + 1:
            w = chromatic_decision(sub, beta + 1, budget)
            if w is None:
                raise CertificateError(
                    f"block {blk} needs more than beta + 1 = {beta + 1} colors")
        cls = [[] for _ in range(beta + 1)]
        for i, v in enumerate(mapping):
            cls[w.colors[i]].append(v)
        block_classes.append(cls)

    best_r, best_chi = 0, -1
    for r in range(beta + 1):
        verts = [v for cls in block_classes for v in cls[r]]
        sub, _ = induced_subgraph(G, verts)
        chi, _ = chromatic_number(sub, budget=budget)
        if chi > best_chi:
            best_chi, best_r = chi, r

    def parity_vertices(par: int) -> list:
        return [v for i, cls in enumerate(block_classes) if i % 2 == par
                for v in cls[best_r]]

    chosen = None
    for par, name in ((0, "even"), (1, "odd")):
        verts = parity_vertices(par)
        sub, _ = induced_subgraph(G, verts)
        chi, _ = chromatic_number(sub, budget=budget)
        if chi > alpha:
            chosen = (verts, name, chi)
            break
    if chosen is None:
        raise CertificateError("parity split failed; exact solver disagrees with theory")
    h_vertices, parity, chi_h = chosen

    h_graph, mapping = induced_subgraph(G, h_vertices)
    pos = {v: i for i, v in enumerate(order)}
    edge_between_chi = {}
    for iu, iv in h_graph.edges():
        u, v = mapping[iu], mapping[iv]
        lo, hi = sorted((pos[u], pos[v]))
        between = [order[i] for i in range(lo + 1, hi)]
        sub, _ = induced_subgraph(G, between)
        chi, _ = chromatic_number(sub, budget=budget)
        edge_between_chi[(u, v)] = chi
        if chi <= beta:
            raise CertificateError(
                f"edge ({u},{v}) has chi(G(u,v)) = {chi} <= beta = {beta}")
    return McGuinnessResult(tuple(h_vertices), h_graph, chi_h, tuple(blocks),
                            best_r, parity, edge_between_chi, chi_host, threshold)
