"""Independent output checks.

Everything here reads the files the CLI reads and writes, and decides with
its own code: family files are parsed as plain JSON, and two members
intersect when some pair of their segments does. Every curve in the
benchmark is axis-parallel, so a segment equals its bounding box and two
closed segments meet exactly when their boxes overlap; a curve with any
other segment is itself a check failure. None of this calls curvefam.
"""

from __future__ import annotations

import json
import random


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own computation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# Families.

def _boxes(points, what: str) -> list:
    segs = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        require(x0 == x1 or y0 == y1, f"{what}: segment {(x0, y0)}-{(x1, y1)} is not axis-parallel")
        segs.append((min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1)))
    return segs


class Family:
    """Members of a family file as axis-parallel segment boxes, in file order."""

    def __init__(self, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.kind = doc["kind"]
        self.ids = []
        self.polylines = []      # per member: list of point lists
        self.probes = [tuple(p) for p in doc.get("probes", [])]
        for row in doc["curves"]:
            self.ids.append(row["id"])
            parts = row["parts"] if self.kind == "double" else [row["points"]]
            self.polylines.append([[tuple(p) for p in part] for part in parts])
        self.segments = [[box for i, part in enumerate(parts)
                          for box in _boxes(part, f"{self.ids[m]}[{i}]")]
                         for m, parts in enumerate(self.polylines)]
        self.edges = _intersection_edges(self.segments)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def vertices(self) -> int:
        return sum(len(part) for parts in self.polylines for part in parts)


def _overlap(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


def _intersection_edges(segments) -> set:
    hulls = [(min(s[0] for s in segs), max(s[1] for s in segs),
              min(s[2] for s in segs), max(s[3] for s in segs)) for segs in segments]
    edges = set()
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            if not _overlap(hulls[i], hulls[j]):
                continue
            if any(_overlap(a, b) for a in segments[i] for b in segments[j]):
                edges.add((i, j))
    return edges


def meets_strip(fam: Family, member: int, lo: int, hi: int) -> bool:
    """Whether a member of a double-curve family meets [lo, hi] x [0, inf).

    Double-curves never go below the baseline, so only x matters."""
    return any(s[0] <= hi and lo <= s[1] for s in fam.segments[member])


# Graphs.

def read_edge_list(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.read().split("\n")
    n, m = map(int, rows[0].split())
    edges = {tuple(sorted(map(int, r.split()))) for r in rows[1:1 + m]}
    require(len(edges) == m, f"{path}: duplicate edges")
    return n, edges


def triangle_free(n: int, edges) -> bool:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return all(adj[u] & adj[v] == 0 for u, v in edges)


def bipartite(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if side[v] < 0:
                    side[v] = 1 - side[u]
                    stack.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def greedy_colors(n: int, edges, seed: int) -> list:
    """First-fit coloring along the order the CLI derives from a greedy seed."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    colors = [-1] * n
    for v in order:
        used = {colors[u] for u in nbrs[v]}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


# Output documents.

def coloring_file(path: str, labels, edges, palette=None) -> list:
    """Check a {"colors", "palette"} file: total on labels, proper on edges,
    and using `palette` colors when given. Returns colors in label order."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return check_colors(doc["colors"], labels, edges, palette, declared=doc.get("palette"))


def check_colors(cmap: dict, labels, edges, palette=None, declared=None) -> list:
    require(set(cmap) == set(labels), "coloring is not total on the members")
    colors = [cmap[label] for label in labels]
    for u, v in edges:
        require(colors[u] != colors[v], f"improper coloring on ({labels[u]}, {labels[v]})")
    used = len(set(colors))
    if declared is not None:
        require(declared == used, f"declared palette {declared} but {used} colors used")
    if palette is not None:
        require(used == palette, f"coloring uses {used} colors, expected {palette}")
    return colors


def single_int(stdout: str) -> int:
    text = stdout.strip()
    require(text.isdigit(), f"expected one integer, got {text[:60]!r}")
    return int(text)
