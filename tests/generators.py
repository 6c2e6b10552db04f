"""Seeded random inputs for tests: LR 2-curve families, 4-curve families,
and graphs with guaranteed chromatic number.

The LR generator builds members over a laminar interval forest: the left
1-curve is a vertical segment, the right 1-curve a stem with a leftward
horizontal arm, and the middle a below-baseline rectangular zigzag at a
depth band given by the interval nesting level. Arm heights increase with
the right basepoint, which makes right-right crossings impossible, and
laminarity keeps the middles pairwise disjoint; every pairwise intersection
is therefore an arm crossing a (descendant's) left segment. Validity is
asserted on every sample anyway.
"""

from __future__ import annotations

import itertools
import random

from curvefam.families import CurveFamily, FamilyKind, decompose_even_curve, validate_lr
from curvefam.geometry import Point as P, Polyline
from curvefam.graphcore import IntersectionGraph, graph_from_edges


class _Node:
    def __init__(self, idx):
        self.idx = idx
        self.children = []
        self.bl = self.br = None
        self.frees = []
        self.level = 1


def _random_forest(rng: random.Random, n: int, chain: bool):
    nodes = [_Node(i) for i in range(n)]
    roots = [nodes[0]]
    for i in range(1, n):
        if chain:
            nodes[i - 1].children.append(nodes[i])
        elif rng.random() < 0.25:
            roots.append(nodes[i])
        else:
            rng.choice(nodes[:i]).children.append(nodes[i])
    return nodes, roots


def _place(node: _Node, cursor: int) -> int:
    node.bl = cursor
    cursor += 1
    node.frees.append(cursor)
    cursor += 1
    for ch in node.children:
        cursor = _place(ch, cursor)
        node.frees.append(cursor)
        cursor += 1
    node.br = cursor
    cursor += 1
    node.level = 1 + max((ch.level for ch in node.children), default=0)
    return cursor


def lr_family(rng: random.Random, max_members: int = 30,
              chain: bool = False) -> CurveFamily:
    """A valid LR family of 2-curves; chain=True fully nests the intervals,
    giving a common interior point to every member interval."""
    n = rng.randint(2, max_members)
    nodes, roots = _random_forest(rng, n, chain)
    cursor = 0
    for r in roots:
        cursor = _place(r, cursor) + 1

    by_br = sorted(nodes, key=lambda nd: nd.br)
    arm_h = {nd.idx: 2 * rank + 1 for rank, nd in enumerate(by_br)}
    members = []
    for nd in nodes:
        h = arm_h[nd.idx]
        ltop = 2 * rng.randint(1, n + 1)          # even, so never equal to an arm height
        reach = rng.choice(nd.frees)
        depth = 2 * nd.level
        pts = [P(nd.bl, ltop), P(nd.bl, -depth)]
        zigs = [f for f in nd.frees if f != reach]
        if len(zigs) >= 2 and rng.random() < 0.7:
            z1, z2 = sorted(rng.sample(zigs, 2))
            pts += [P(z1, -depth), P(z1, -depth + 1),
                    P(z2, -depth + 1), P(z2, -depth)]
        pts += [P(nd.br, -depth), P(nd.br, h), P(reach, h)]
        members.append(decompose_even_curve(Polyline(tuple(pts), f"c{nd.idx}")))

    fam = CurveFamily(tuple(members), FamilyKind.LR2)
    res = validate_lr(fam)
    if not res.ok:
        raise AssertionError(f"generator emitted a non-LR family: {res.violations[:1]}")
    return fam


def two_t_family(rng: random.Random, max_members: int = 20, t: int = 2,
                 slanted: bool = False) -> CurveFamily:
    """A 2t-curve family with pairwise-disjoint below-baseline parts.

    Each member dips below the baseline over t of the shuffled, pairwise
    disjoint intervals, left to right, joined above the baseline by
    horizontal runs at heights distinct across the family. slanted=True
    scales x by 3 and slants every edge into or out of a dip across one
    unit of x, so most crossings, with the baseline and between members,
    lie off the integer grid.
    """
    n = rng.randint(2, max_members)
    intervals = []
    cursor = 0
    for _ in range(t * n):
        w = rng.randint(1, 2)
        intervals.append((cursor, cursor + w))
        cursor += w + rng.randint(1, 2)
    rng.shuffle(intervals)
    heights = rng.sample(range(1, 2 * (t + 1) * n + 1), (t + 1) * n)
    step = 3 if slanted else 1
    slant = 1 if slanted else 0
    members = []
    for i in range(n):
        hs = heights[(t + 1) * i: (t + 1) * (i + 1)]
        d = rng.randint(1, 3)
        pts = []
        for k, (xa, xb) in enumerate(sorted(intervals[t * i: t * (i + 1)])):
            pts += [P(step * xa, hs[k]), P(step * xa + slant, -d),
                    P(step * xb - slant, -d), P(step * xb, hs[k + 1])]
        members.append(decompose_even_curve(Polyline(tuple(pts), f"q{i}")))
    return CurveFamily(tuple(members), FamilyKind.TWO_T, t)


def graph_with_chi_above(rng: random.Random, threshold: int) -> IntersectionGraph:
    """A graph with chromatic number > threshold (it contains a clique of
    size threshold + 1) plus random extra structure."""
    core = threshold + 1
    n = core + rng.randint(4, 10)
    edges = set(itertools.combinations(range(core), 2))
    for u in range(n):
        for v in range(u + 1, n):
            if v >= core and rng.random() < 0.35:
                edges.add((u, v))
    return graph_from_edges(n, sorted(edges))


def triangle_free_process(rng: random.Random, n: int) -> list:
    """Edges of a maximal triangle-free graph on n vertices: visit all pairs
    in random order and keep an edge unless it closes a triangle."""
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    adj = [0] * n
    edges = []
    for u, v in pairs:
        if not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges.append((u, v))
    return edges


def mycielskian_of(n: int, edges) -> tuple:
    """(n, edges) of the Mycielskian of a graph: chi rises by one and no
    triangle appears. Vertex n + i shadows vertex i, adjacent to the
    neighbors of i, and the hub 2n is adjacent to every shadow."""
    edges = list(edges)
    return 2 * n + 1, (edges + [(n + u, v) for u, v in edges] + [(u, n + v) for u, v in edges]
                       + [(n + i, 2 * n) for i in range(n)])


def mycielskian(k: int) -> IntersectionGraph:
    """Mycielski's graph M_k (k >= 2): triangle-free with chromatic number k;
    M_2 is K_2 and M_(k+1) is the Mycielskian of M_k."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        n, edges = mycielskian_of(n, edges)
    return graph_from_edges(n, edges)


def proper_colorings(G: IntersectionGraph, max_colors: int):
    """All proper colorings of G with colors drawn from 0..max_colors-1."""
    for assign in itertools.product(range(max_colors), repeat=G.n):
        if all(assign[u] != assign[v] for u, v in G.edges()):
            yield assign
