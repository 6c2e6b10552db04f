"""Seeded input generators owned by the benchmark.

Every generator takes a `random.Random` (or nothing, when the object is
fixed) and returns plain data: curves as `(id, [(x, y), ...])` lists with
integer coordinates, graphs as `(n, [(u, v), ...])`. Writers turn them into
the family-file and edge-list formats the CLI reads. Nothing here imports
curvefam, so a workload's bytes depend only on the seed and on this file.

The LR and 2t constructions follow the test-suite generators of the
toolkit; they are copied here so that an edit to the tests cannot shift a
workload.
"""

from __future__ import annotations

import itertools
import json
import random


# LR 2-curve families over a laminar interval forest.
#
# The left 1-curve is a vertical segment, the right 1-curve a stem with a
# leftward horizontal arm, and the middle a below-baseline rectangular
# zigzag at a depth given by the interval nesting level. Arm heights grow
# with the right basepoint, so right parts never cross; laminar intervals
# keep the middles disjoint. Every intersection is therefore an arm meeting
# a descendant's left segment, and every segment is axis-parallel.

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


def lr_family(rng: random.Random, n: int, chain: bool = False) -> list:
    """Curves of an LR family of n 2-curves; chain=True nests every interval."""
    nodes, roots = _random_forest(rng, n, chain)
    cursor = 0
    for r in roots:
        cursor = _place(r, cursor) + 1

    by_br = sorted(nodes, key=lambda nd: nd.br)
    arm_h = {nd.idx: 2 * rank + 1 for rank, nd in enumerate(by_br)}
    curves = []
    for nd in nodes:
        h = arm_h[nd.idx]
        ltop = 2 * rng.randint(1, n + 1)          # even, so never equal to an arm height
        reach = rng.choice(nd.frees)
        depth = 2 * nd.level
        pts = [(nd.bl, ltop), (nd.bl, -depth)]
        zigs = [f for f in nd.frees if f != reach]
        if len(zigs) >= 2 and rng.random() < 0.7:
            z1, z2 = sorted(rng.sample(zigs, 2))
            pts += [(z1, -depth), (z1, -depth + 1), (z2, -depth + 1), (z2, -depth)]
        pts += [(nd.br, -depth), (nd.br, h), (reach, h)]
        curves.append((f"c{nd.idx}", pts))
    return curves


def two_t_family(rng: random.Random, n: int) -> list:
    """Curves of a family of n 4-curves (t = 2) with disjoint below-baseline parts."""
    intervals = []
    cursor = 0
    for _ in range(2 * n):
        w = rng.randint(1, 2)
        intervals.append((cursor, cursor + w))
        cursor += w + rng.randint(1, 2)
    rng.shuffle(intervals)
    heights = rng.sample(range(1, 6 * n + 1), 3 * n)
    curves = []
    for i in range(n):
        (x1, x2), (x3, x4) = sorted([intervals[2 * i], intervals[2 * i + 1]])
        h1, hm, h2 = heights[3 * i: 3 * i + 3]
        d = rng.randint(1, 3)
        pts = [(x1, h1), (x1, -d), (x2, -d), (x2, hm),
               (x3, hm), (x3, -d), (x4, -d), (x4, h2)]
        curves.append((f"q{i}", pts))
    return curves


# Graphs.

def triangle_free_process(rng: random.Random, n: int) -> list:
    """Edges of a maximal triangle-free graph from the random greedy process:
    visit all pairs in random order and keep an edge unless it closes a
    triangle."""
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    adj = [0] * n
    edges = []
    for u, v in pairs:
        if adj[u] & adj[v] == 0:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges.append((u, v))
    return sorted(edges)


def mycielskian(n: int, edges):
    """(n, edges) of the Mycielskian of a graph: chi rises by one and no
    triangle appears. Vertices 0..n-1 stay, n..2n-1 shadow them, 2n is the apex."""
    new = list(edges)
    for u, v in edges:
        new.append((u, n + v))
        new.append((v, n + u))
    new.extend((n + i, 2 * n) for i in range(n))
    return 2 * n + 1, sorted(tuple(sorted(e)) for e in new)


def mycielski(k: int):
    """(n, edges) of the Mycielski graph M_k: triangle-free with chi = k (k >= 2)."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        n, edges = mycielskian(n, edges)
    return n, edges


def graph_with_chi_above(rng: random.Random, threshold: int):
    """(n, edges) of a graph containing a clique of size threshold + 1, so
    chi > threshold, plus random extra vertices and edges."""
    core = threshold + 1
    n = core + rng.randint(4, 10)
    edges = set(itertools.combinations(range(core), 2))
    for u in range(n):
        for v in range(u + 1, n):
            if v >= core and rng.random() < 0.35:
                edges.add((u, v))
    return n, sorted(edges)


def relabel(rng: random.Random, n: int, edges) -> list:
    """The same graph under a seeded vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


# Writers, in the byte format of the toolkit's own writers.

def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def family_text(kind: str, curves, t=None) -> str:
    doc = {"scale": 1, "kind": kind,
           "curves": [{"id": cid, "points": [list(p) for p in pts]}
                      for cid, pts in curves]}
    if t is not None:
        doc["t"] = t
    return _dump(doc)


def edge_list_text(n: int, edges) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
