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
            raise SolverBudgetExceeded(
                "solver node budget exhausted", lower=self.lower, upper=self.upper)
        if self.deadline is not None and self.remaining % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise SolverBudgetExceeded(
                    "solver time budget exhausted", lower=self.lower, upper=self.upper)


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

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

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
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return IntersectionGraph(n, tuple(adj), tuple(labels))


def build_graph(members) -> IntersectionGraph:
    """Intersection graph of members exposing .id and .parts(), read off
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
    return IntersectionGraph(len(vs), tuple(adj),
                             tuple(G.labels[v] for v in vs)), vs


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
    """(True, None) or (False, first monochromatic edge in index order)."""
    if len(coloring.colors) != G.n:
        raise ContractError("coloring must be total on vertices")
    for u, v in G.edges():
        if coloring.colors[u] == coloring.colors[v]:
            return False, (u, v)
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
            budget.lower = len(best)
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
    """Iteratively strip vertices of degree < c; they are always colorable.

    Returns (core vertex list, removal stack in removal order).
    """
    alive = set(range(G.n))
    deg = {v: G.degree(v) for v in alive}
    removed = []
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if deg[v] < c:
                alive.remove(v)
                removed.append(v)
                for u in _bits(G.adj[v]):
                    if u in alive:
                        deg[u] -= 1
                changed = True
    return sorted(alive), removed


def chromatic_decision(G: IntersectionGraph, c: int, budget=None) -> Optional[Coloring]:
    """Exhaustively decide whether G is c-colorable.

    Returns a witness Coloring using at most c colors, or None after an
    exhaustive refutation. Degree-< c vertices are stripped first and
    recolored greedily afterwards, which preserves the decision.
    """
    budget = _as_budget(budget)
    if c < 0:
        raise ContractError("color count must be nonnegative")
    if G.n == 0:
        return Coloring(())
    if c == 0:
        return None
    core, removed = _kernelize(G, c)
    colors = [-1] * G.n

    if core:
        sub, mapping = induced_subgraph(G, core)
        sub_colors = _decide_core(sub, c, budget)
        if sub_colors is None:
            return None
        for i, v in enumerate(mapping):
            colors[v] = sub_colors[i]
    return Coloring(tuple(_first_fit(G.adj, colors, reversed(removed))))


def _bit_slices(masks) -> list:
    """Per-vertex counts of the masks holding each vertex, bit-sliced: bit v
    of slice i is bit i of the count for vertex v."""
    slices: list = []
    for carry in masks:
        for i, s in enumerate(slices):
            slices[i], carry = s ^ carry, s & carry
        if carry:
            slices.append(carry)
    return slices


def _count_is(slices: list, t: int, within: int) -> int:
    """The vertices of within whose bit-sliced count equals t."""
    if t >> len(slices):
        return 0
    for i, s in enumerate(slices):
        within &= s if (t >> i) & 1 else ~s
    return within


def _dsatur_pick(uncolored: int, count: list, degree: list) -> int:
    """The DSATUR pick among uncolored, given bit-sliced counts of classes
    seen and of degrees: most classes seen, then highest degree, then lowest
    index."""
    pick = uncolored
    for s in [*reversed(count), *reversed(degree)]:
        if pick & s:
            pick &= s
    return (pick & -pick).bit_length() - 1


def _dsatur_heuristic(G: IntersectionGraph) -> Coloring:
    """DSATUR without backtracking: each pick takes its least free class."""
    adj = G.adj
    colors = [-1] * G.n
    degree = _bit_slices(adj)
    seen: list = []           # seen[k]: the vertices with a neighbor colored k
    uncolored = (1 << G.n) - 1
    while uncolored:
        v = _dsatur_pick(uncolored, _bit_slices(seen), degree)
        col = next((k for k, s in enumerate(seen) if not (s >> v) & 1), len(seen))
        if col == len(seen):
            seen.append(0)
        seen[col] |= adj[v]
        colors[v] = col
        uncolored ^= 1 << v
    return Coloring(tuple(colors))


def _decide_core(G: IntersectionGraph, c: int, budget: Budget) -> Optional[list]:
    """DSATUR over bitset states (Brelaz 1979; San Segundo 2012).

    A state is (uncolored mask, seen, classes opened, path): seen[k] holds the
    vertices with a neighbor colored k, and path links each (vertex, color)
    assignment back to the root. Children are fresh copies, so backtracking
    drops a state and undoes nothing.
    """
    adj = G.adj
    clique = maximum_clique(G, budget)
    if len(clique) > c:
        return None
    degree = _bit_slices(adj)     # v is in adj[u] for each neighbor u of v
    seen = [0] * c
    uncolored = (1 << G.n) - 1
    path = None
    for col, v in enumerate(clique):
        seen[col] |= adj[v]
        uncolored ^= 1 << v
        path = (v, col, path)
    stack = [(uncolored, seen, len(clique), path)]
    while stack:
        uncolored, seen, opened, path = stack.pop()
        budget.tick()
        while True:
            count = _bit_slices(seen)
            if _count_is(count, c, uncolored):
                break                  # a vertex sees every class
            forced = _count_is(count, c - 1, uncolored)
            if forced:
                # the lowest forced vertex takes its one free class
                v = (forced & -forced).bit_length() - 1
                col = next(k for k in range(c) if not (seen[k] >> v) & 1)
                seen[col] |= adj[v]
                uncolored ^= 1 << v
                opened = max(opened, col + 1)
                path = (v, col, path)
                continue
            if not uncolored:
                colors = [-1] * G.n
                while path:
                    v, col, path = path
                    colors[v] = col
                return colors
            v = _dsatur_pick(uncolored, count, degree)
            # new classes open in index order; push so the lowest pops first
            for col in reversed(range(min(c, opened + 1))):
                if not (seen[col] >> v) & 1:
                    child = seen[:]
                    child[col] |= adj[v]
                    stack.append((uncolored ^ 1 << v, child,
                                  max(opened, col + 1), (v, col, path)))
            break
    return None


def chromatic_number(G: IntersectionGraph, budget=None):
    """Exact chromatic number with a witness coloring.

    The witness is proper and optimal; its specific color classes are not
    canonical. Raises SolverBudgetExceeded with the best bounds when the
    budget runs out.
    """
    budget = _as_budget(budget)
    if G.n == 0:
        return 0, Coloring(())
    lb = clique_number(G, budget)
    heur = _dsatur_heuristic(G)
    ub = heur.num_colors
    budget.lower, budget.upper = lb, ub
    for c in range(lb, ub):
        w = chromatic_decision(G, c, budget)
        if w is not None:
            ok, edge = is_proper(G, w)
            if not ok:
                raise ImproperColoring((G.labels[edge[0]], G.labels[edge[1]]))
            if w.num_colors > c:
                raise CertificateError(f"witness for chi <= {c} uses {w.num_colors} colors")
            return c, w
        budget.lower = c + 1
    return ub, heur


# Plain edge-list exchange format: header "n m", one edge per line.

def format_edge_list(G: IntersectionGraph) -> str:
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> IntersectionGraph:
    rows = [ln for ln in (s.strip() for s in text.splitlines())
            if ln and not ln.startswith("#")]
    if not rows:
        raise FileFormatError("empty edge list")
    edges = []
    try:
        n, m = map(int, rows[0].split())
        for r in rows[1:]:
            u, v = map(int, r.split())
            edges.append((u, v))
    except ValueError as exc:
        raise FileFormatError(f"bad edge list: {exc}") from None
    if n < 0:
        raise FileFormatError(f"vertex count must be nonnegative, got {n}")
    if len(edges) != m:
        raise FileFormatError(f"expected {m} edges, found {len(edges)}")
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise FileFormatError(f"edge ({u},{v}) out of range")
        if u == v:
            raise FileFormatError(f"self-loop ({u},{v})")
    return graph_from_edges(n, edges)
