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
from typing import Optional, Sequence

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
    EvenCurve,
    FamilyKind,
    _even_curve,
    _restricted_families,
    _with_pairs,
    decompose_even_curve,
    validate_lr,
)
from .geometry import Point, Polyline, _quotient, on_segment, polylines_disjoint
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

def _containment_heights(ms) -> Optional[list]:
    """Each member's height in the containment forest of the member
    intervals, or None if two intervals are neither nested nor disjoint.

    Innermost intervals get height 1, and an interval strictly containing
    others one more than the highest of them. One sort by (left end, right
    end descending) and one stack: the stack holds the open intervals, each
    strictly inside the one below it. An interval first closes those that
    end before it starts, which are disjoint from it and from every later
    one, and must then lie strictly inside the top of the stack.
    """
    heights = [0] * len(ms)
    stack = []

    def close():
        k = stack.pop()[2]
        heights[k] += 1
        if stack:
            below = stack[-1][2]
            heights[below] = max(heights[below], heights[k])

    for lo, neg_hi, i in sorted((m.interval[0], -m.interval[1], i) for i, m in enumerate(ms)):
        hi = -neg_hi
        while stack and stack[-1][1] < lo:
            close()
        if stack and not (stack[-1][0] < lo and hi < stack[-1][1]):
            return None
        stack.append((lo, hi, i))
    while stack:
        close()
    return heights


def _crossing_pair(ms) -> tuple:
    """The ids of the first pair of members, in order, whose intervals are
    neither nested nor disjoint."""
    for i in range(len(ms)):
        a1, a2 = ms[i].interval
        for j in range(i + 1, len(ms)):
            b1, b2 = ms[j].interval
            disjoint = a2 < b1 or b2 < a1
            nested = (a1 < b1 and b2 < a2) or (b1 < a1 and a2 < b2)
            if not (disjoint or nested):
                return ms[i].id, ms[j].id


def nested_or_disjoint(fam: CurveFamily):
    """(True, None) if all member intervals are pairwise nested or disjoint,
    else (False, (id1, id2)) naming the first crossing pair.

    Decided in O(n log n) by _containment_heights; only on failure are the
    pairs scanned in order, to name the first that crosses.
    """
    if _containment_heights(fam.members) is not None:
        return True, None
    return False, _crossing_pair(fam.members)


def rewire_semicircles(fam: CurveFamily) -> CurveFamily:
    """Replace every middle part by a below-baseline dip, yielding 2-curves.

    Requires pairwise nested-or-disjoint intervals. The dip for a member is
    a three-segment rectangular path at integer depth equal to its height in
    the interval containment forest (_containment_heights), so the dips of
    nested members stay disjoint. Left and right 1-curves are kept verbatim;
    the intersection graph is unchanged.
    """
    heights = _containment_heights(fam.members)
    if heights is None:
        raise IntervalCrossingError(*_crossing_pair(fam.members))
    rewired = []
    for m, d in zip(fam.members, heights):
        if m.n_crossings == 1:
            raise ContractError(f"member {m.id!r} has no middle part to rewire")
        pts, i1, i2 = m.curve.points, m.cross[0], m.cross[-1]
        dip = (Point(pts[i1].x, -d), Point(pts[i2].x, -d))
        rewired.append(decompose_even_curve(Polyline(pts[:i1 + 1] + dip + pts[i2:], m.id)))

    out = CurveFamily(tuple(rewired), FamilyKind.LR2, None, fam.scale)
    res = validate_lr(out)
    if not res.ok:
        raise ContractError(
            "rewiring produced a non-LR family; input was not a valid LR family: "
            + str(res.violations[0]))
    return out


# Splitting 2t-curve families.

def _retracted_cut(c: Point, f: Point, points: Sequence[Point]) -> Point:
    """The end of a piece cut at the crossing c of edge cf, retracted into
    the edge: the midpoint of c and the point nearest to c among f and the
    given points that lie on the edge. Every given point on the edge stays
    on the piece, and the cut lies strictly inside the edge."""
    along_x = c.x != f.x
    near, dist = f, abs(f.x - c.x) if along_x else abs(f.y - c.y)
    x0, x1 = (c.x, f.x) if c.x < f.x else (f.x, c.x)
    y0, y1 = (c.y, f.y) if c.y < f.y else (f.y, c.y)
    for p in points:
        if x0 <= p.x <= x1 and y0 <= p.y <= y1 and on_segment(p, c, f):
            d = abs(p.x - c.x) if along_x else abs(p.y - c.y)
            if 0 < d < dist:
                near, dist = p, d
    return Point(_quotient(c.x + near.x, 2), _quotient(c.y + near.y, 2))


def _half_labels(m, t: int) -> tuple:
    """Member m's labels on the two halves of a split, as a table
    {parent label: (label on half 1, label on half 2)} and the pair (half
    1's label of arch 2t-2, half 2's label of arch 2); "" is off the half.

    A half is labelled L, M, R from its first arch along the member, and
    L and R swap when the half is stored reversed, which _even_curve does
    when its first crossing lies right of its last. A half with no
    crossing is a 1-curve, "LR". A parent "M" is left to _middle_labels
    unless arch 2 is arch 2t-2.
    """
    if t == 1:
        return {"L": ("LR", ""), "M": None, "R": ("", "LR")}, ("LR", "LR")
    pts, cross_idx = m.curve.points, m.cross
    first, hi = ("R", "L") if pts[cross_idx[0]].x > pts[cross_idx[2 * t - 3]].x else ("L", "R")
    lo, last = ("R", "L") if pts[cross_idx[2]].x > pts[cross_idx[-1]].x else ("L", "R")
    return ({"L": (first, ""), "M": (hi, lo) if t == 2 else None, "R": ("", last)},
            (hi, lo))


def _middle_labels(p: Point, m, ends: tuple) -> tuple:
    """The half labels of a parent "M" hit p on member m, from an exact test
    against the edges of arch 2 and of arch 2t-2 (ends, from _half_labels)."""
    pts, cross_idx = m.curve.points, m.cross
    for (start, end), on in (((cross_idx[1], cross_idx[2]), ("M", ends[1])),
                              ((cross_idx[-3], cross_idx[-2]), (ends[0], "M"))):
        if any(on_segment(p, pts[k], pts[k + 1]) for k in range(start, end)):
            return on
    return "M", "M"


def split_2t(fam: CurveFamily):
    """Split a family of 2t-curves into its two derived families.

    Each member contributes its piece from the first endpoint through the
    (2t-1)-th crossing to the first family and the piece from the second
    crossing through the other endpoint to the second. For t >= 2 the cut
    ends are retracted halfway toward the nearest intersection event along
    the cut edge, which destroys the cut basepoint but keeps every
    intersection with other members; both derived families are then
    2(t-1)-curve families. Each piece is a run of the member's refined
    points plus its cut point, with the member's other crossings at known
    indices, so it is not scanned or validated again. For t = 1 the derived
    families are the left and right 1-curves, each a run of the member's
    points oriented from its endpoint to its basepoint, as make_one_curve
    would store it.

    Both halves' pair maps are read off fam's, in the pass that collects
    the hits for the cuts. Number a member's arches 0..2t from its left
    end. Hits lie only on the even arches, which are above the baseline;
    a hit below it raises. Half 1 is arches 0..2t-2, with L = arch 0,
    M = arches 1..2t-3 and R = arch 2t-2; half 2 is arches 2..2t, with
    L = arch 2, M = arches 3..2t-1 and R = arch 2t. So fam's "L" hits
    belong to half 1 alone and its "R" hits to half 2 alone. An "M" hit
    lies on arch 2, on arch 2t-2 or on an arch between them: for t = 2
    that is one arch, half 1's R and half 2's L, and for t >= 3 an exact
    test against the edges of arches 2 and 2t-2 tells which. A half's map
    keeps the hits on both members' halves, in fam's order, so it equals
    pair_points of the half's members.
    """
    if fam.kind is not FamilyKind.TWO_T or fam.t is None:
        raise ContractError("split_2t needs a TWO_T(t) family")
    t = fam.t
    ms = fam.members
    labels = [_half_labels(m, t) for m in ms]      # (label table, end labels) per member

    meets = [[] for _ in ms]             # where others meet member i, read by the t >= 2 cuts
    pairs1, pairs2 = {}, {}
    for (i, j), hits in fam.pairs.items():
        (li, ei), (lj, ej), meets_i, meets_j = labels[i], labels[j], meets[i], meets[j]
        kept1, kept2 = [], []
        for p, on_i, on_j in hits:
            if p.y < 0:
                raise BelowBaselineIntersectionError(ms[i].id, ms[j].id, p)
            if t > 1:
                meets_i.append(p)
                meets_j.append(p)
            a1, a2 = li[on_i] or _middle_labels(p, ms[i], ei)
            b1, b2 = lj[on_j] or _middle_labels(p, ms[j], ej)
            if a1 and b1:
                kept1.append((p, a1, b1))
            if a2 and b2:
                kept2.append((p, a2, b2))
        if kept1:
            pairs1[i, j] = kept1
        if kept2:
            pairs2[i, j] = kept2

    f1, f2 = [], []
    for m, hits in zip(ms, meets):
        pts, cross_idx = m.curve.points, m.cross
        if t == 1:      # each 1-curve runs from its endpoint to its basepoint
            i, j = cross_idx
            f1.append(EvenCurve(Polyline(pts[:i + 1], m.id), (i,)))
            f2.append(EvenCurve(Polyline(pts[j:][::-1], m.id), (len(pts) - 1 - j,)))
            continue
        # A cut point lies strictly inside an edge from a crossing to a
        # vertex above the baseline, so it is above the baseline too, and a
        # piece's crossings are the member's crossings that it contains.
        vi = cross_idx[2 * t - 2]          # crossing p_(2t-1)
        cut1 = _retracted_cut(pts[vi], pts[vi - 1], hits)
        f1.append(_even_curve(pts[:vi] + (cut1,), cross_idx[:2 * t - 2], m.id))
        vj = cross_idx[1]                  # crossing p_2
        cut2 = _retracted_cut(pts[vj], pts[vj + 1], hits)
        f2.append(_even_curve((cut2,) + pts[vj + 1:], [i - vj for i in cross_idx[2:]], m.id))
    kind, t_half = (FamilyKind.ONE_CURVE, None) if t == 1 else (FamilyKind.TWO_T, t - 1)
    return (_with_pairs(tuple(f1), kind, t_half, fam.scale, pairs1),
            _with_pairs(tuple(f2), kind, t_half, fam.scale, pairs2))


# Product coloring.

@dataclass(frozen=True)
class CellRecord:
    key: tuple              # (phi1 color, phi2 color)
    member_ids: tuple
    cell_coloring: dict     # member id -> cell color
    palette: int


@dataclass(frozen=True)
class ProductColoringResult:
    coloring: dict          # member id -> dense combined color
    palette: int
    bound: int              # |phi1| * |phi2| * max cell palette
    cells: tuple


def product_color(fam: CurveFamily, phi1: dict, phi2: dict,
                  budget=None) -> ProductColoringResult:
    """Combine colorings of the two derived families with per-cell colorings.

    Members constant on (phi1, phi2) form a cell; valid inputs make every
    cell an LR-family, which is certified here. Each cell is colored by the
    exact solver; the final color of a member is the dense index of (phi1,
    phi2, cell color). The result is proper on the full family.
    """
    budget = _as_budget(budget)
    for phi, name in ((phi1, "phi1"), (phi2, "phi2")):
        missing = [m.id for m in fam.members if m.id not in phi]
        if missing:
            raise ContractError(f"{name} misses members {missing[:3]}")

    cells_by_key: dict = {}
    for i, m in enumerate(fam.members):
        cells_by_key.setdefault((phi1[m.id], phi2[m.id]), []).append((i, m))
    keys = sorted(cells_by_key)
    cell_fams = _restricted_families(fam, [cells_by_key[key] for key in keys])

    records = []
    combined: dict = {}
    max_cell_palette = 0
    for key, cell_fam in zip(keys, cell_fams):
        members = cell_fam.members
        cert = validate_lr(cell_fam)
        if not cert.ok:
            raise ContractError(
                f"cell {key} is not an LR family (were phi1/phi2 proper?): "
                + str(cert.violations[0]))
        g = cell_fam.graph()
        _, w = chromatic_number(g, budget=budget)
        cc = w.as_label_map(g)
        palette = len(set(cc.values()))
        max_cell_palette = max(max_cell_palette, palette)
        records.append(CellRecord(key, tuple(m.id for m in members), dict(cc), palette))
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
