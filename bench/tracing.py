"""In-memory span tracer wrapped around the toolkit's module functions.

`Tracer.install()` replaces every binding of each traced function in every
loaded `curvefam` module with a wrapper, so callers that hold their own
`from .geometry import ...` copy are traced as well as callers that resolve
the module attribute at call time. `uninstall()` puts the originals back.

Two kinds of wrapper exist:

* span wrappers record one span per call: name, start, end, parent span
  and job id, in parallel typed arrays;
* leaf wrappers, for the polyline-level geometry calls that call no other
  traced function, are folded into the enclosing span: their duration is
  added to that span's `folded_ns` and to per-name totals instead of being
  stored one by one. A verify of X_4 makes about 200,000 such calls, which
  would otherwise dominate a traced run's memory.

Self time of a span is its duration minus the durations of its child spans
and the time folded into it; `self_times` computes it from the recorded
arrays alone. Each wrapper also times its own bookkeeping (array appends,
counters read from arguments and results) and folds that into the caller
too, so a loop over 50,000 pair tests does not show the tracer's cost as
its own; what stays with the caller is about the cost of a plain call.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
import time
from array import array
from fractions import Fraction

# Functions traced as spans, by layer (= curvefam module).
SPAN_FUNCTIONS = {
    "cli": ("main",),
    "familyfile": ("load", "save", "dump_json"),
    "svgrender": ("render_family", "render_svg"),
    "burling": ("generate", "verify_properties", "audit_coloring", "crossing_set"),
    "families": ("validate_lr", "member_intersections", "decompose_even_curve",
                 "make_one_curve", "refine_at_crossings"),
    "graphcore": ("build_graph", "induced_subgraph", "chromatic_number",
                  "chromatic_decision", "maximum_clique", "clique_number",
                  "greedy_coloring", "is_proper", "graph_from_edges",
                  "parse_edge_list", "format_edge_list", "find_triangle"),
    "reductions": ("component_split", "color_cross_component", "rewire_semicircles",
                   "nested_or_disjoint", "split_2t", "product_color",
                   "two_t_product_coloring", "mcguinness_subgraph"),
}

# Polyline-level geometry calls; none of them calls another traced function.
# The per-segment predicates below them (segment_intersection, orientation,
# segment_meets_vstrip) are deliberately not wrapped.
LEAF_FUNCTIONS = {
    "geometry": ("segments_intersect", "polylines_disjoint", "polyline_meets_vstrip",
                 "point_on_polyline", "validate_simple", "baseline_crossings_along",
                 "subcurve", "position_of"),
}

# Pair tests, and what a hit (the pair intersects) looks like in their result.
PAIR_TESTS = {"geometry.segments_intersect": bool,
              "geometry.polylines_disjoint": lambda disjoint: not disjoint}

# Entries to the pairwise layer; their first argument holds the members whose
# vertices are counted for geometry.fraction_vertex_share.
PAIRWISE_ENTRIES = ("graphcore.build_graph", "families.validate_lr",
                    "reductions.component_split", "reductions.split_2t")

SOLVER_SPANS = ("graphcore.chromatic_number", "graphcore.chromatic_decision",
                "graphcore.maximum_clique")

NO_PARENT = -1


def self_times(parents, starts, ends, folded_ns) -> list:
    """Self time of every span: duration minus child-span and folded time.

    Arguments are parallel sequences; `parents[i]` is the index of the
    enclosing span or NO_PARENT. Children close before their parent, so a
    child's whole duration lies inside the parent's interval.
    """
    out = [ends[i] - starts[i] - folded_ns[i] for i in range(len(parents))]
    for i, p in enumerate(parents):
        if p != NO_PARENT:
            out[p] -= ends[i] - starts[i]
    return out


def _members(arg):
    members = getattr(arg, "members", arg)
    return members if isinstance(members, (list, tuple)) else ()


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.job_id = 0
        self._restore: list = []
        self._budgets: list = []
        self.name = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("q")
        self.end = array("q")
        self.folded_ns = array("q")
        self.leaves: dict = {}           # leaf name -> [calls, total ns]
        self.counters: dict = {}
        self._stack: list = []

    def count(self, key: str, n=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def begin_job(self, job_id: int) -> None:
        self.job_id = job_id
        self._budgets = []

    def end_job(self) -> None:
        self.count("graphcore.solver_nodes",
                   sum(b.initial - b.remaining for b in self._budgets))
        self._budgets = []

    # wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn, before=None, after=None):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            entered = clock()
            if before is not None:
                before(args)
            stack = self._stack
            parent = stack[-1] if stack else NO_PARENT
            idx = len(self.end)
            self.name.append(nid)
            self.parent.append(parent)
            self.job.append(self.job_id)
            self.folded_ns.append(0)
            self.end.append(0)
            stack.append(idx)
            start = clock()
            self.start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            if parent != NO_PARENT:
                self.folded_ns[parent] += start - entered + clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf_wrapper(self, name: str, fn, hit_if=None):
        clock = time.perf_counter_ns
        stats = self.leaves.setdefault(name, [0, 0])
        counters = self.counters

        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            stats[0] += 1
            stats[1] += end - start
            if hit_if is not None and hit_if(result):
                counters["geometry.pair_hits"] = counters.get("geometry.pair_hits", 0) + 1
            stack = self._stack
            if stack:
                self.folded_ns[stack[-1]] += clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    # counters read from arguments and results -------------------------

    def _count_vertices(self, args) -> None:
        total = frac = 0
        for m in _members(args[0] if args else None):
            for poly in m.polylines():
                for p in poly.points:
                    total += 1
                    if isinstance(p.x, Fraction) or isinstance(p.y, Fraction):
                        frac += 1
        self.count("geometry.entry_vertices", total)
        self.count("geometry.entry_fraction_vertices", frac)

    def _hooks(self) -> dict:
        """(before, after) hooks per span name."""
        def lr(args, result):
            self.count("families.lr_pairs_checked", result.checked_pairs)

        def decision(args, result):
            self.count("graphcore.decisions_unsat" if result is None
                       else "graphcore.decisions_sat")

        def cells(args, result):
            self.count("reductions.product_color.cells", len(result.cells))

        def load_bytes(args, result):
            self.count("familyfile.load.bytes", os.path.getsize(args[0]))

        def save_bytes(args, result):
            self.count("familyfile.save.bytes", os.path.getsize(args[1]))

        hooks = {name: [self._count_vertices, None] for name in PAIRWISE_ENTRIES}
        for name, after in (("families.validate_lr", lr),
                            ("graphcore.chromatic_decision", decision),
                            ("reductions.product_color", cells),
                            ("familyfile.load", load_bytes),
                            ("familyfile.save", save_bytes)):
            hooks.setdefault(name, [None, None])[1] = after
        return hooks

    # installation -----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every curvefam binding of `original` at `replacement`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "curvefam" or modname.startswith("curvefam.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        hooks = self._hooks()
        for layer, fnames in SPAN_FUNCTIONS.items():
            mod = importlib.import_module(f"curvefam.{layer}")
            for fname in fnames:
                fn = getattr(mod, fname)
                before, after = hooks.get(f"{layer}.{fname}", (None, None))
                self._rebind(fn, self._span_wrapper(f"{layer}.{fname}", fn, before, after))
        for layer, fnames in LEAF_FUNCTIONS.items():
            mod = importlib.import_module(f"curvefam.{layer}")
            for fname in fnames:
                fn = getattr(mod, fname)
                name = f"{layer}.{fname}"
                self._rebind(fn, self._leaf_wrapper(name, fn, PAIR_TESTS.get(name)))

        graphcore = importlib.import_module("curvefam.graphcore")
        kernelize = graphcore._kernelize

        def counted_kernelize(G, c):
            core, removed = kernelize(G, c)
            self.count("graphcore.kernel_vertices", len(core))
            return core, removed

        self._rebind(kernelize, counted_kernelize)

        # Budgets are made inside the CLI and the solvers; a subclass bound in
        # place of Budget lets each job read nodes used = given - remaining.
        base = graphcore.Budget
        tracer = self

        class CountingBudget(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.initial = self.remaining
                tracer._budgets.append(self)

        self._rebind(base, CountingBudget)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore = []

    # results ----------------------------------------------------------

    def self_seconds(self) -> dict:
        """Summed self time in seconds per span name and per leaf name."""
        selfs = self_times(self.parent, self.start, self.end, self.folded_ns)
        out: dict = {}
        for nid, s in zip(self.name, selfs):
            key = self.names[nid]
            out[key] = out.get(key, 0) + s
        for leaf, (_, ns) in self.leaves.items():
            out[leaf] = out.get(leaf, 0) + ns
        return {k: v / 1e9 for k, v in out.items()}

    def calls(self) -> dict:
        """Calls per span name and per leaf name."""
        out = {leaf: n for leaf, (n, _) in self.leaves.items()}
        for nid in self.name:
            key = self.names[nid]
            out[key] = out.get(key, 0) + 1
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans (as columns), leaf totals and counters as gzipped JSON."""
        doc = {
            "meta": meta,
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "job": self.job.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "folded_ns": self.folded_ns.tolist(),
            },
            "leaves": self.leaves,
            "counters": self.counters,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
