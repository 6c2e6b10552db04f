"""Intersection graphs and exact solvers for clique and chromatic number.

Graphs are stored as per-vertex adjacency bitmasks. The solvers are exact
branch-and-bound searches over bitset states, run from an explicit stack, so
their depth is bounded by memory and not by Python's recursion limit; both
honor a node budget and raise SolverBudgetExceeded with their best bounds
when it runs out.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    CertificateError,
    ContractError,
    FileFormatError,
    ImproperColoring,
    SolverBudgetExceeded,
)
from .geometry import MAX_GENERATED_CURVES

ENV_NODE_BUDGET = "CURVEFAM_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 50_000_000


class Budget:
    """Node-count (and optional wall-time) budget shared across solver calls.

    The node count is deterministic; the time limit is a safety valve and
    only checked every 1024 ticks.
    """

    def __init__(self, nodes: Optional[int] = None, time_ms: Optional[int] = None):
        if nodes is None:
            raw = os.environ.get(ENV_NODE_BUDGET)
            try:
                nodes = DEFAULT_NODE_BUDGET if raw is None else int(raw)
            except ValueError:
                raise ContractError(
                    f"{ENV_NODE_BUDGET} must be an integer, got {raw!r}") from None
        if nodes <= 0 or (time_ms is not None and time_ms <= 0):
            raise ContractError("budget must be positive")
        self.remaining = nodes
        self.deadline = None if time_ms is None else time.monotonic() + time_ms / 1000.0
        self.lower: Optional[int] = None
        self.upper: Optional[int] = None

    def tick(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise self.exhausted("node")
        if self.deadline is not None and self.remaining % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise self.exhausted("time")

    def exhausted(self, kind: str) -> SolverBudgetExceeded:
        """The error for a spent node or time budget, with the best bounds."""
        return SolverBudgetExceeded(
            f"solver {kind} budget exhausted", lower=self.lower, upper=self.upper)


def _as_budget(budget) -> Budget:
    return budget if isinstance(budget, Budget) else Budget(budget)


@dataclass(frozen=True)
class IntersectionGraph:
    """Undirected graph with vertex labels; irreflexive and symmetric."""

    n: int
    adj: tuple          # bitmask of neighbors per vertex
    labels: tuple

    def __post_init__(self):
        for v in range(self.n):
            if self.adj[v] >> self.n:
                raise ContractError("adjacency mask out of range")
            if (self.adj[v] >> v) & 1:
                raise ContractError("graph must be irreflexive")
            for u in _bits(self.adj[v]):
                if not (self.adj[u] >> v) & 1:
                    raise ContractError("adjacency must be symmetric")
        if len(self.labels) != self.n:
            raise ContractError("labels must match vertex count")

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self):
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2


def graph_from_edges(n: int, edges: Iterable, labels=None) -> IntersectionGraph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ContractError(f"self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ContractError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    labels = tuple(str(i) for i in range(n)) if labels is None else tuple(labels)
    if len(labels) != n:
        raise ContractError("labels must match vertex count")
    return _prechecked_graph(n, adj, labels)   # irreflexive and symmetric as built


def build_graph(members) -> IntersectionGraph:
    """Intersection graph of members exposing .id and .part_runs(), read off
    their pair map (families.pair_points)."""
    from .families import pair_points

    ms = list(members)
    return graph_from_edges(len(ms), pair_points(ms), tuple(m.id for m in ms))


def induced_subgraph(G: IntersectionGraph, vertices: Sequence[int]):
    """Induced subgraph plus the list mapping new indices to old."""
    vs = list(vertices)
    index = {v: i for i, v in enumerate(vs)}
    keep = 0
    for v in vs:
        keep |= 1 << v
    adj = [0] * len(vs)
    for i, v in enumerate(vs):
        for u in _bits(G.adj[v] & keep):
            adj[i] |= 1 << index[u]
    return _prechecked_graph(len(vs), adj, (G.labels[v] for v in vs)), vs  # G was checked


def _prechecked_graph(n: int, adj, labels) -> IntersectionGraph:
    """An IntersectionGraph whose caller has already checked its adjacency,
    built without a second check."""
    G = object.__new__(IntersectionGraph)
    vars(G).update(n=n, adj=tuple(adj), labels=tuple(labels))
    return G


_EMPTY = _prechecked_graph(0, (), ())


@dataclass(frozen=True)
class Coloring:
    """A total assignment of 0-based colors to vertices."""

    colors: tuple

    @property
    def num_colors(self) -> int:
        return max(self.colors) + 1 if self.colors else 0

    def as_label_map(self, G: IntersectionGraph) -> dict:
        return {G.labels[v]: self.colors[v] for v in range(G.n)}


def is_proper(G: IntersectionGraph, coloring: Coloring):
    """(True, None) or (False, first monochromatic edge in index order).

    One bitmask per color class; each vertex u in index order meets its
    class only above u, so the first hit is the first such edge."""
    colors = coloring.colors
    if len(colors) != G.n:
        raise ContractError("coloring must be total on vertices")
    classes: dict = {}
    for v, col in enumerate(colors):
        classes[col] = classes.get(col, 0) | 1 << v
    for u, (row, col) in enumerate(zip(G.adj, colors)):
        clash = (row & classes[col]) >> u      # row lacks u, so bit 0 is clear
        if clash:
            return False, (u, u + (clash & -clash).bit_length() - 1)
    return True, None


def greedy_coloring(G: IntersectionGraph, order: Sequence[int]) -> Coloring:
    """First-fit proper coloring along the given vertex order."""
    if sorted(order) != list(range(G.n)):
        raise ContractError("order must be a permutation of the vertices")
    return Coloring(tuple(_first_fit(G.adj, [-1] * G.n, order)))


def _first_fit(adj, colors: list, order) -> list:
    """Give each vertex of order in turn the least color that none of its
    neighbors has; -1 marks an uncolored vertex."""
    for v in order:
        used = {colors[u] for u in _bits(adj[v])}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Maximum clique: branch and bound with a greedy coloring bound.

def _color_order(mask: int, adj) -> list:
    """Vertices of mask annotated with greedy color classes, colors ascending."""
    out = []
    color = 0
    rest = mask
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            out.append((v, color))
            avail &= ~adj[v] & ~(1 << v)
            rest &= ~(1 << v)
    return out


def maximum_clique(G: IntersectionGraph, budget=None) -> list:
    """An exact maximum clique as a vertex list (empty for the empty graph)."""
    budget = _as_budget(budget)
    best: list = []
    adj = G.adj
    if not G.n:
        return best
    # Frame i holds [candidates left, color order left] for the clique r[:i];
    # candidates are tried from the end of the order, highest color first.
    r: list = []
    budget.tick()
    full = (1 << G.n) - 1
    stack = [[full, _color_order(full, adj)]]
    while stack:
        frame = stack[-1]
        mask, order = frame
        if not order or len(r) + order[-1][1] <= len(best):
            stack.pop()
            if r:
                stack[-1][0] &= ~(1 << r.pop())
            continue
        v = order.pop()[0]
        r.append(v)
        nxt = mask & adj[v]
        if nxt:
            budget.tick()
            stack.append([nxt, _color_order(nxt, adj)])
            continue
        if len(r) > len(best):
            best = r[:]
            # only ever raise: the clique of a kernel core may be smaller
            # than a bound an earlier refutation proved
            budget.lower = max(budget.lower or 0, len(best))
        frame[0] = mask & ~(1 << r.pop())
    return sorted(best)


def clique_number(G: IntersectionGraph, budget=None) -> int:
    """Exact clique number; 0 for the empty graph, 1 for edgeless graphs."""
    return len(maximum_clique(G, budget))


def find_triangle(G: IntersectionGraph):
    """A triangle (u, v, w) if one exists, else None. Exhaustive edge scan."""
    for u, v in G.edges():
        common = G.adj[u] & G.adj[v]
        if common:
            w = (common & -common).bit_length() - 1
            return (u, v, w)
    return None


# Exact chromatic number: kernelized DSATUR branch and bound.

def _kernelize(G: IntersectionGraph, c: int):
    """Iteratively strip the vertices that every c-coloring of the rest
    extends to: those of degree < c, and those dominated by another vertex,
    one adjacent to every neighbour of theirs. A dominator is not itself a
    neighbour, so its color is free for the vertex it dominates. Degrees and
    neighbourhoods count unremoved vertices only.

    Returns (core vertex list, removal stack in removal order): the order of
    passes over the live vertices by increasing index, each removing every
    vertex that is removable when the pass reaches it, until a pass removes
    none. Only a neighbour's removal makes a vertex removable, so a pass
    tests just the vertices that lost a neighbour since their last test:
    todo holds those still ahead in the pass, later those behind it. Each
    test ANDs the vertex's neighbours' rows and stops once only the vertex
    is left, so it costs O(degree) row operations.
    """
    adj = G.adj
    live = todo = (1 << G.n) - 1
    later = 0
    removed = []
    while todo or later:
        if not todo:                        # the next pass
            todo, later = later, 0
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        row = adj[v] & live
        if row.bit_count() >= c:            # c >= 1, so row has a highest bit
            u = row.bit_length() - 1
            common, rest = adj[u] & live, row ^ (1 << u)    # v is in each such row
            while rest and common != low:
                u = rest.bit_length() - 1
                common &= adj[u]
                rest ^= 1 << u
            if common == low:
                continue                    # no dominator: v stays
        live ^= low
        removed.append(v)
        above = row >> v << v               # row lacks v itself
        todo |= above
        later |= row ^ above
    return list(_bits(live)), removed


def chromatic_decision(G: IntersectionGraph, c: int, budget=None) -> Optional[Coloring]:
    """Exhaustively decide whether G is c-colorable.

    Returns a witness Coloring using at most c colors, or None after an
    exhaustive refutation. This is the one-link case of chromatic_number's
    kernel chain, with the same peel (_peel) and lift (_lift) steps:
    vertices of degree < c, and vertices whose neighbours are all adjacent
    to one other vertex, are stripped first (_kernelize) and recolored
    first-fit in reverse afterwards, which preserves the decision: a
    stripped vertex sees fewer than c colors, or its dominator is recolored
    before it and the dominator's color is free for it. A core that keeps
    every vertex is G itself, searched without a copy. The witness is
    checked before it is returned: ImproperColoring names a monochromatic
    edge, and CertificateError a witness with more than c colors.
    """
    budget = _as_budget(budget)
    if c < 0:
        raise ContractError("color count must be nonnegative")
    if G.n == 0:
        return Coloring(())
    if c == 0:
        return None
    removed: list = []
    sub, mapping = _peel(G, range(G.n), c, removed)
    sub_colors = _decide_core(sub, c, budget, None)
    return None if sub_colors is None else _lift(G, c, mapping, sub_colors, removed)


def _peel(sub: IntersectionGraph, mapping, c: int, removed: list):
    """One link of a kernel chain: the c-kernel of sub, whose vertex i is
    G's vertex mapping[i]. Appends the G indices of the peeled vertices to
    removed, in removal order, and returns (core, the core's map to G); a
    core that keeps every vertex is sub itself, and an empty core is the
    shared empty graph, cut from nothing."""
    core, gone = _kernelize(sub, c)
    if not gone:
        return sub, mapping
    removed += [mapping[v] for v in gone]
    if not core:
        return _EMPTY, core
    return induced_subgraph(sub, core)[0], [mapping[v] for v in core]


def _lift(G: IntersectionGraph, c: int, mapping, sub_colors: list, removed: list) -> Coloring:
    """The core's colors on G, extended first-fit over the removal list in
    reverse, and checked as a witness for c colors."""
    colors = sub_colors                 # with nothing removed, the core is G
    if removed:
        colors = [-1] * G.n
        for i, v in enumerate(mapping):
            colors[v] = sub_colors[i]
        _first_fit(G.adj, colors, reversed(removed))
    return _checked(G, Coloring(tuple(colors)), c)


def _checked(G: IntersectionGraph, w: Coloring, c: int) -> Coloring:
    """w, once it is proper on G and uses at most c colors: ImproperColoring
    names a monochromatic edge, and CertificateError a witness with more."""
    ok, edge = is_proper(G, w)
    if not ok:
        raise ImproperColoring((G.labels[edge[0]], G.labels[edge[1]]))
    if w.num_colors > c:
        raise CertificateError(f"witness for chi <= {c} uses {w.num_colors} colors")
    return w


def _add_to_count(slices: list, carry: int) -> None:
    """Add one to the bit-sliced count of every vertex in carry, in place."""
    for i, s in enumerate(slices):
        if not carry:
            return
        slices[i], carry = s ^ carry, s & carry
    if carry:
        slices.append(carry)


def _bit_slices(masks) -> list:
    """Per-vertex counts of the masks holding each vertex, bit-sliced: bit v
    of slice i is bit i of the count for vertex v."""
    slices: list = []
    for mask in masks:
        _add_to_count(slices, mask)
    return slices


def _dsatur_heuristic(G: IntersectionGraph) -> Coloring:
    """DSATUR without backtracking: each pick takes its least free class."""
    adj = G.adj
    colors = [-1] * G.n
    degree = _bit_slices(adj)[::-1]
    seen: list = []           # seen[k]: the vertices with a neighbor colored k
    count: list = []          # bit-sliced number of classes each vertex sees
    uncolored = (1 << G.n) - 1
    while uncolored:
        pick = uncolored      # most classes seen, then highest degree, then lowest index
        for s in [*reversed(count), *degree]:
            if pick & s:
                pick &= s
        v = (pick & -pick).bit_length() - 1
        for col, s in enumerate(seen):
            if not (s >> v) & 1:
                break
        else:
            col = len(seen)
            seen.append(0)
        _add_to_count(count, adj[v] & ~seen[col])
        seen[col] |= adj[v]
        colors[v] = col
        uncolored ^= 1 << v
    return Coloring(tuple(colors))


def _decide_core(G: IntersectionGraph, c: int, budget: Budget, clique) -> Optional[list]:
    """DSATUR over bitset states (Brelaz 1979; San Segundo 2012).

    A state is (uncolored mask, masks, classes opened, path). masks is one
    list of 2c bitsets, so a child costs one copy: masks[k] for k < c holds
    the vertices with a neighbor colored k (seen[k]), and masks[c + j] those
    that see more than j classes (sat[j]). A vertex that comes to see class
    k moves up one sat level; it did not see k, so it stays within sat.
    path links each (vertex mask, color) assignment back to the root.
    Children are fresh copies, so backtracking drops a state and undoes
    nothing. The search starts from clique, a maximum clique of G, one class
    per vertex, or from maximum_clique(G) when clique is None. c >= 2 here:
    at c = 1 a core has an edge, so its clique already exceeds c.

    A vertex that sees all c classes is a wipeout; one that sees c - 1 is
    forced to its free class. Forced vertices are settled a round at a time,
    one color class at a time. Assigning a vertex to class k changes only
    seen[k], so only a forced vertex whose free class is also k can lose its
    last class, and only to a forced neighbor: the round is a wipeout if and
    only if two forced vertices with the same free class are adjacent, and
    otherwise every forced vertex takes its free class, in any order. The
    nodes, the picks and the witness are those of assigning the lowest
    forced vertex one at a time.

    Each popped state is one node of budget, counted as Budget.tick counts
    it but in a local, which is written back to budget.remaining on every
    exit.
    """
    adj, n = G.adj, G.n
    if not n:
        return []                      # every vertex was peeled: no search, no node
    if clique is None:
        clique = maximum_clique(G, budget)
    if len(clique) > c:
        return None
    degree = _bit_slices(adj)[::-1]    # v is in adj[u] for each neighbor u of v
    masks = [0] * (2 * c)
    uncolored = (1 << n) - 1
    path = None
    for col, v in enumerate(clique):
        add, j = adj[v], c
        while add:
            s = masks[j]
            masks[j] = s | add
            add &= s
            j += 1
        masks[col] = adj[v]
        uncolored ^= 1 << v
        path = (1 << v, col, path)
    stack = [(uncolored, masks, len(clique), path)]
    wiped, forcing = 2 * c - 1, 2 * c - 2   # sat[c - 1] and sat[c - 2]
    remaining, deadline = budget.remaining, budget.deadline
    try:
        while stack:
            uncolored, masks, opened, path = stack.pop()
            remaining -= 1
            if remaining < 0:
                raise budget.exhausted("node")
            if deadline is not None and remaining % 1024 == 0 and time.monotonic() > deadline:
                raise budget.exhausted("time")
            while not masks[wiped] & uncolored:     # no vertex sees every class
                forced = masks[forcing] & uncolored
                if forced:
                    for col in range(c):
                        s = masks[col]
                        take = forced & ~s          # the forced vertices free only in col
                        if not take:
                            continue
                        union, rest = 0, take
                        while rest:
                            low = rest & -rest
                            union |= adj[low.bit_length() - 1]
                            rest ^= low
                        if union & take:
                            break                   # two of them are neighbors
                        add, j = union & ~s, c
                        while add:
                            t = masks[j]
                            masks[j] = t | add
                            add &= t
                            j += 1
                        masks[col] = s | union
                        uncolored ^= take
                        if col >= opened:
                            opened = col + 1
                        path = (take, col, path)
                    else:
                        continue                    # the round is settled: test again
                    break                           # a wipeout: no children
                if not uncolored:
                    colors = [-1] * n
                    while path:
                        mask, col, path = path
                        for v in _bits(mask):
                            colors[v] = col
                    return colors
                # the DSATUR pick: most classes seen, then highest degree,
                # then lowest index; no uncolored vertex sees c - 1 classes
                pick = uncolored
                for j in range(forcing - 1, c - 1, -1):
                    s = masks[j]
                    if pick & s:
                        pick &= s
                        break
                for s in degree:
                    if pick & s:
                        pick &= s
                v = (pick & -pick).bit_length() - 1
                row, bit = adj[v], 1 << v
                # new classes open in index order; push so the lowest pops first
                for col in reversed(range(opened + 1 if opened < c else c)):
                    s = masks[col]
                    if not s & bit:
                        child = masks[:]
                        child[col] = s | row
                        add, j = row & ~s, c
                        while add:
                            t = child[j]
                            child[j] = t | add
                            add &= t
                            j += 1
                        stack.append((uncolored ^ bit, child, opened + (col == opened),
                                      (bit, col, path)))
                break
        return None
    finally:
        budget.remaining = remaining


def chromatic_number(G: IntersectionGraph, budget=None):
    """Exact chromatic number with a witness coloring.

    Refutes c = omega, omega + 1, ... one decision at a time along one
    kernel chain, and stops at the first c-colorable core. Each c-kernel is
    peeled from the previous core, not from G (_peel): a vertex removable at
    c is removable at c + 1, as its degree is below c + 1 and domination
    does not depend on c, so the cores nest (Seidman 1983; Matula and Beck
    1983). The peeled vertices form one removal list in G's indices, and a
    witness is lifted by first-fit over it in reverse (_lift): each vertex
    then sees the vertices that were live when it went. The maximum clique
    is searched once, on G; while a core keeps all of it, the core's search
    starts from it. When every decision refutes, the DSATUR heuristic's
    coloring is the witness. Every witness, the heuristic's included, is
    checked proper and within its color count before it is returned
    (ImproperColoring, CertificateError). The witness is optimal; its
    specific color classes are not canonical. Raises SolverBudgetExceeded
    with the best bounds when the budget runs out.
    """
    budget = _as_budget(budget)
    if G.n == 0:
        return 0, Coloring(())
    clique = maximum_clique(G, budget)
    lb = len(clique)
    heur = _dsatur_heuristic(G)
    ub = heur.num_colors
    budget.lower, budget.upper = lb, ub
    sub, mapping, removed, start = G, range(G.n), [], clique
    for c in range(lb, ub):
        core, mapping = _peel(sub, mapping, c, removed)
        if core is not sub and start is not None:     # once a clique vertex goes, it stays gone
            index = {v: i for i, v in enumerate(mapping)}
            start = [index[v] for v in clique] if all(v in index for v in clique) else None
        sub = core
        sub_colors = _decide_core(sub, c, budget, start)
        if sub_colors is not None:
            return c, _lift(G, c, mapping, sub_colors, removed)
        budget.lower = c + 1
    return ub, _checked(G, heur, ub)


# Plain edge-list exchange format: header "n m", one edge per line.

def format_edge_list(G: IntersectionGraph) -> str:
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


_BLANKS = str.maketrans("", "", " \t")


def _decimal(rows: str) -> bool:
    """Whether rows holds only ASCII decimal digits, spaces and tabs; int()
    alone would also read signs, underscores and non-ASCII digits."""
    return rows.isascii() and rows.translate(_BLANKS).isdigit()


def parse_edge_list(text: str) -> IntersectionGraph:
    rows = [ln for ln in (s.strip() for s in text.splitlines())
            if ln and not ln.startswith("#")]
    if not rows:
        raise FileFormatError("empty edge list")
    if not _decimal("".join(rows)):            # one scan; the row only for the message
        bad = next(r for r in rows if not _decimal(r))
        raise FileFormatError(f"bad edge list: row {bad[:40]!r} holds more than ASCII decimal numbers")
    edges = []
    try:
        n, m = map(int, rows[0].split())
        for r in rows[1:]:
            u, v = map(int, r.split())
            edges.append((u, v))
    except ValueError as exc:
        raise FileFormatError(f"bad edge list: {exc}") from None
    if not 0 <= n <= MAX_GENERATED_CURVES:     # checked before [0] * n is allocated
        raise FileFormatError(f"vertex count must be in 0..{MAX_GENERATED_CURVES}, got {n}")
    if len(edges) != m:
        raise FileFormatError(f"expected {m} edges, found {len(edges)}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise FileFormatError(f"edge ({u},{v}) out of range")
        if u == v:
            raise FileFormatError(f"self-loop ({u},{v})")
        if adj[u] >> v & 1:
            raise FileFormatError(f"edge ({u},{v}) repeats an earlier row")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _prechecked_graph(n, adj, map(str, range(n)))
