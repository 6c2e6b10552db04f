"""The three workloads: inputs made from a seed, the job list, and the checks.

A job is one in-process call of `curvefam.cli.main(argv)`. Each build function
writes its inputs under a work directory and returns the jobs in the order
the closed loop runs them. Jobs are interleaved so that any prefix of the
list has the workload's mix; a run that reaches the end of the list starts
again from the top.

Every job carries a check of its own output (see checks.py). Jobs marked
`pinned` must also repeat, byte for byte, the stdout and output files of
their run during set-up.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import checks
import inputs
from checks import require

# A runaway solve fails with exit 3 instead of hanging the run; no solve in
# any workload needs more than a few thousand nodes.
NODE_BUDGET = "200000"


@dataclass
class Job:
    kind: str                  # subcommand, e.g. "verify-family" or "reduce.rewire"; X_3
                               # verifies are "verify-family.x3", 50x faster than X_4
    argv: list
    check: Callable[[str], None]
    outputs: tuple = ()        # files written by the job
    pinned: bool = False


@dataclass
class Workload:
    name: str
    why: str
    build: Callable            # build(rng, workdir, call) -> list[Job]
    traffic: Callable          # traffic(workdir) -> Traffic, after build


@dataclass
class Traffic:
    """Input properties a later change can cite as its share of the workload."""

    members: int = 0
    vertices: int = 0
    graph_n: int = 0
    graph_m: int = 0
    inputs: dict = field(default_factory=dict)

    def add_family(self, fam: "checks.Family") -> None:
        self.members += fam.n
        self.vertices += fam.vertices
        self.add_graph(fam.n, len(fam.edges))

    def add_graph(self, n: int, m: int) -> None:
        self.graph_n += n
        self.graph_m += m


def _cli(*argv) -> list:
    return ["--node-budget", NODE_BUDGET, *map(str, argv)]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _generate_burling(call, k: int, path: str) -> str:
    res = call(_cli("gen-burling", "--k", k, "--out", path))
    if res.rc != 0:
        raise RuntimeError(f"gen-burling --k {k} failed during set-up: {res.err}")
    return path


def _verify_pass(stdout: str, expect_pairs=None) -> None:
    lines = stdout.strip().split("\n")
    require(any(ln.startswith("PASS ") for ln in lines), "verify-family printed no PASS line")
    for ln in lines:
        require(ln.startswith("PASS ") or ln.endswith("structural validation passed"),
                f"verify-family reported {ln[:80]!r}")
    if expect_pairs is not None:
        require(f"PASS lr-family: {expect_pairs} pairs checked" in lines,
                f"verify-family did not check all {expect_pairs} pairs")


_AUDIT = re.compile(r"^probe (\d+) \[(\d+),(\d+)\] carries (\d+) colors: \[([\d, ]*)\]$")


def _audit(fam: "checks.Family", k: int, colors: list, stdout: str) -> None:
    m = _AUDIT.match(stdout.strip())
    require(m is not None, f"unexpected audit output {stdout[:80]!r}")
    idx, lo, hi, count = (int(m.group(i)) for i in range(1, 5))
    reported = {int(c) for c in m.group(5).split(",") if c.strip()}
    require(count >= k, f"audit found {count} colors on a level-{k} instance")
    require(0 <= idx < len(fam.probes) and fam.probes[idx] == (lo, hi),
            f"audit names probe {idx} [{lo},{hi}], not a probe of the file")
    crossing = {colors[v] for v in range(fam.n) if checks.meets_strip(fam, v, lo, hi)}
    require(reported == crossing and count == len(crossing),
            f"probe {idx} carries colors {sorted(crossing)}, audit says {sorted(reported)}")


# probe-x4 --------------------------------------------------------------

def build_probe_x4(rng: random.Random, work: str, call) -> list:
    x4 = _generate_burling(call, 4, os.path.join(work, "x4.json"))
    x3 = _generate_burling(call, 3, os.path.join(work, "x3.json"))
    coloring = os.path.join(work, "x4-coloring.json")
    res = call(_cli("color", "--exact", "--family", x4, "--out", coloring))
    if res.rc != 0:
        raise RuntimeError(f"coloring X_4 failed during set-up: {res.err}")
    greedy_seed = rng.randrange(1 << 30)

    fam = functools.cache(lambda: checks.Family(x4))
    out = functools.partial(os.path.join, work)

    def check_color(stdout):
        require(checks.single_int(stdout) == 4, "chi(X_4) must be 4")
        checks.coloring_file(out("color.json"), fam().ids, fam().edges, palette=4)

    def check_omega(stdout):
        require(checks.single_int(stdout) == 2, "omega(X_4) must be 2")
        n, edges = checks.read_edge_list(out("x4-graph.txt"))
        require(n == fam().n and edges == fam().edges, "exported graph differs from X_4's intersections")

    def check_audit_greedy(stdout):
        _audit(fam(), 4, checks.greedy_colors(fam().n, fam().edges, greedy_seed), stdout)

    def check_audit_coloring(stdout):
        colors = checks.coloring_file(coloring, fam().ids, fam().edges)
        _audit(fam(), 4, colors, stdout)

    def pinned_only(stdout):
        pass

    return [
        Job("gen-burling", _cli("gen-burling", "--k", 4, "--out", out("gen.json")),
            pinned_only, (out("gen.json"),), pinned=True),
        Job("verify-family", _cli("verify-family", x4), _verify_pass),
        Job("verify-family.x3", _cli("verify-family", x3), _verify_pass),
        Job("color", _cli("color", "--exact", "--family", x4, "--out", out("color.json")),
            check_color, (out("color.json"),)),
        Job("omega", _cli("omega", "--family", x4, "--export-graph", out("x4-graph.txt")),
            check_omega, (out("x4-graph.txt"),)),
        Job("audit-burling", _cli("audit-burling", x4, "--greedy-seed", greedy_seed),
            check_audit_greedy),
        Job("audit-burling", _cli("audit-burling", x4, "--coloring", coloring),
            check_audit_coloring),
        Job("render", _cli("render", x4, "--out", out("x4.svg")),
            pinned_only, (out("x4.svg"),), pinned=True),
    ]


def traffic_probe_x4(work: str) -> Traffic:
    t = Traffic()
    for name in ("x4.json", "x3.json"):
        t.add_family(checks.Family(os.path.join(work, name)))
    t.inputs = {"double_curve_families": 2}
    return t


# reduce-lr -------------------------------------------------------------

# Member counts, one family each per seed; the seed shapes the families. The
# 2t families take most of the time and their cost varies most with the
# seed, so each size appears twice.
LR_SIZES = tuple(range(30, 90, 5))
TWO_T_SIZES = tuple(range(10, 22)) * 2


def build_reduce_lr(rng: random.Random, work: str, call) -> list:
    lr_files = [_write(os.path.join(work, f"lr{i}.json"),
                       inputs.family_text("lr2", inputs.lr_family(rng, n)))
                for i, n in enumerate(LR_SIZES)]
    tt_files = [_write(os.path.join(work, f"tt{i}.json"),
                       inputs.family_text("two_t", inputs.two_t_family(rng, n), t=2))
                for i, n in enumerate(TWO_T_SIZES)]

    def out_dir(path):
        out = functools.partial(os.path.join, path[:-len(".json")])
        os.makedirs(out())
        return out

    fam = functools.cache(checks.Family)
    per_lr = len(tt_files) // len(lr_files)
    jobs = []
    for i, lr in enumerate(lr_files):
        jobs.extend(_lr_jobs(lr, out_dir(lr), fam))
        for tt in tt_files[i * per_lr:(i + 1) * per_lr]:
            jobs.extend(_two_t_jobs(tt, out_dir(tt), fam))
    return jobs


def _color_family_check(path, out_file, fam):
    def check(stdout):
        chi = checks.single_int(stdout)
        f = fam(path)
        checks.coloring_file(out_file, f.ids, f.edges, palette=chi)
    return check


def _lr_jobs(lr: str, out, fam) -> list:
    with open(lr, "r", encoding="utf-8") as fh:
        n = len(json.load(fh)["curves"])

    def check_verify(stdout):
        _verify_pass(stdout, expect_pairs=n * (n - 1) // 2)

    def check_split(stdout):
        f = fam(lr)
        with open(out("split.json"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        keys = [k for comp in doc["components"] for k in comp]
        require(sorted(keys) == sorted(f"{m}.{s}" for m in f.ids for s in "LR"),
                "components do not partition the 1-curves")
        require(sorted(doc["f_same"] + doc["f_diff"]) == sorted(f.ids),
                "f_same and f_diff do not partition the members")
        diff = set(doc["f_diff"])
        index = [i for i, m in enumerate(f.ids) if m in diff]
        pos = {v: j for j, v in enumerate(index)}
        edges = {(pos[u], pos[v]) for u, v in f.edges if u in pos and v in pos}
        checks.check_colors(doc["cross_component_coloring"], [f.ids[v] for v in index],
                            edges, declared=doc["palette"])
        require(doc["palette"] <= 4, "cross-component coloring uses more than 4 colors")

    def check_rewire(stdout):
        f, g = fam(lr), checks.Family(out("rewired.json"))
        require(g.kind == "lr2" and g.ids == f.ids and g.edges == f.edges,
                "rewiring changed the intersection graph")
        with open(out("rewire-trace.json"), "r", encoding="utf-8") as fh:
            require(json.load(fh)["graph_preserved"] is True, "rewire trace denies preservation")

    return [
        Job("verify-family", _cli("verify-family", lr), check_verify),
        Job("reduce.component-split",
            _cli("reduce", "component-split", "--family", lr, "--out", out("split.json")),
            check_split, (out("split.json"),)),
        Job("reduce.rewire",
            _cli("reduce", "rewire", "--family", lr, "--out", out("rewired.json"),
                 "--trace", out("rewire-trace.json")),
            check_rewire, (out("rewired.json"), out("rewire-trace.json")), pinned=True),
        Job("color", _cli("color", "--exact", "--family", lr, "--out", out("lr-color.json")),
            _color_family_check(lr, out("lr-color.json"), fam), (out("lr-color.json"),)),
    ]


def _two_t_jobs(tt: str, out, fam) -> list:
    def check_product(stdout):
        f = fam(tt)
        checks.coloring_file(out("product.json"), f.ids, f.edges)

    def check_split(stdout):
        for name in ("half1.json", "half2.json"):
            f = checks.Family(out(name))
            require(f.kind == "two_t" and f.n == fam(tt).n, f"{name}: wrong derived family")

    return [
        Job("reduce.split-2t",
            _cli("reduce", "split-2t", "--family", tt, "--out1", out("half1.json"),
                 "--out2", out("half2.json"), "--trace", out("split2t-trace.json")),
            check_split, (out("half1.json"), out("half2.json"), out("split2t-trace.json")),
            pinned=True),
        Job("reduce.product-color",
            _cli("reduce", "product-color", "--family", tt, "--out", out("product.json")),
            check_product, (out("product.json"),)),
        Job("color", _cli("color", "--exact", "--family", tt, "--out", out("tt-color.json")),
            _color_family_check(tt, out("tt-color.json"), fam), (out("tt-color.json"),)),
    ]


def traffic_reduce_lr(work: str) -> Traffic:
    t = Traffic()
    for prefix, sizes in (("lr", LR_SIZES), ("tt", TWO_T_SIZES)):
        for i in range(len(sizes)):
            t.add_family(checks.Family(os.path.join(work, f"{prefix}{i}.json")))
    t.inputs = {"lr2_families": len(LR_SIZES), "two_t_families": len(TWO_T_SIZES)}
    return t


# solve-exact -----------------------------------------------------------

# One unit colors one graph. 39 units in 40 color a 31-vertex double
# Mycielskian (chi = 5, about 500 solver nodes, cost spread 0.3 between
# graphs); the 40th colors and clique-numbers a small random maximal
# triangle-free graph and runs one mcguinness extraction; every 40th unit also
# solves M4, M5 and X_4. A 30 s run goes round the list about three times.
SOLVE_UNITS = 480
SMALL_EVERY = 40
KNOWN_EVERY = 40


def _odd_base(rng: random.Random, n: int) -> list:
    """A maximal triangle-free graph on n vertices that is not bipartite."""
    while True:
        edges = inputs.triangle_free_process(rng, n)
        if not checks.bipartite(n, edges):
            return edges


def double_mycielskian(rng: random.Random):
    """(n, edges) of a seeded triangle-free graph with chi = 5.

    The Mycielskian raises chi by one and keeps a graph triangle-free, so
    applying it twice to a non-bipartite triangle-free graph on 7 vertices
    (chi = 3) gives 31 vertices with chi = 5, relabeled by the seed.
    """
    n, edges = inputs.mycielskian(*inputs.mycielskian(7, _odd_base(rng, 7)))
    return n, inputs.relabel(rng, n, edges)


def build_solve_exact(rng: random.Random, work: str, call) -> list:
    gdir = os.path.join(work, "graphs")
    odir = os.path.join(work, "out")
    os.makedirs(gdir)
    os.makedirs(odir)

    # X_4's intersection graph, computed by the benchmark's own test.
    x4 = checks.Family(_generate_burling(call, 4, os.path.join(work, "x4.json")))
    known_graphs = {"m4": (*inputs.mycielski(4), 4), "m5": (*inputs.mycielski(5), 5),
                    "x4": (x4.n, sorted(x4.edges), 4)}

    jobs = []

    def graph_jobs(name, n, edges, chi, omega: bool):
        path = _write(os.path.join(gdir, f"{name}.txt"), inputs.edge_list_text(n, edges))
        color_out = os.path.join(odir, f"{name}-color.json")
        jobs.append(Job("color", _cli("color", "--exact", "--graph", path, "--out", color_out),
                        _graph_color_check(path, color_out, chi), (color_out,)))
        if omega:
            jobs.append(Job("omega", _cli("omega", "--graph", path), _graph_omega_check(path)))

    for i in range(SOLVE_UNITS):
        if i % KNOWN_EVERY == 0:
            for name, (n, edges, chi) in known_graphs.items():
                graph_jobs(f"{name}-{i}", n, inputs.relabel(rng, n, edges), chi, omega=True)
        if i % SMALL_EVERY == SMALL_EVERY - 1:
            n = rng.randint(30, 36)
            graph_jobs(f"tf{i}", n, inputs.triangle_free_process(rng, n), None, omega=True)
            n, edges = inputs.graph_with_chi_above(rng, 4)
            path = _write(os.path.join(gdir, f"h{i}.txt"), inputs.edge_list_text(n, edges))
            trace = os.path.join(odir, f"h{i}-mcguinness.json")
            jobs.append(Job("reduce.mcguinness",
                            _cli("reduce", "mcguinness", "--graph", path,
                                 "--seed", rng.randrange(1 << 30), "--out", trace),
                            _mcguinness_check(trace), (trace,), pinned=True))
        else:
            graph_jobs(f"dm{i}", *double_mycielskian(rng), 5, omega=False)
    return jobs


def _graph_color_check(path, out_file, chi_known):
    def check(stdout):
        chi = checks.single_int(stdout)
        n, edges = checks.read_edge_list(path)
        if chi_known is not None:
            require(chi == chi_known, f"chi = {chi}, known to be {chi_known}")
        else:
            require(chi >= 3 or checks.bipartite(n, edges), f"chi = {chi} on a non-bipartite graph")
        checks.coloring_file(out_file, [str(v) for v in range(n)], edges, palette=chi)
    return check


def _graph_omega_check(path):
    def check(stdout):
        n, edges = checks.read_edge_list(path)
        require(checks.triangle_free(n, edges), f"{path} is not triangle-free")
        require(checks.single_int(stdout) == (2 if edges else 1),
                "omega of a triangle-free graph with edges must be 2")
    return check


def _mcguinness_check(trace):
    def check(stdout):
        with open(trace, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        # the input holds a 5-clique, so chi(G) > (2*1 + 2) * 1 = 4
        require(doc["chi_host"] >= 5 and doc["threshold"] == 4, "wrong host chromatic number")
        require(doc["chi_h"] > doc["alpha"], "extracted subgraph has chi <= alpha")
        require(all(chi > doc["beta"] for chi in doc["edge_between_chi"].values()),
                "an extracted edge spans a subgraph with chi <= beta")
    return check


def traffic_solve_exact(work: str) -> Traffic:
    t = Traffic()
    gdir = os.path.join(work, "graphs")
    for name in sorted(os.listdir(gdir)):
        n, edges = checks.read_edge_list(os.path.join(gdir, name))
        t.add_graph(n, len(edges))
    t.inputs = {"edge_list_graphs": len(os.listdir(gdir))}
    return t


WORKLOADS = {
    "probe-x4": Workload(
        "probe-x4",
        "the paper's probe construction X_4: verifier, auditor, pairwise scans and "
        "file I/O on integer coordinates, with little solver work",
        build_probe_x4, traffic_probe_x4),
    "reduce-lr": Workload(
        "reduce-lr",
        "LR and 2t reductions on seeded families: Fraction crossings, retraction "
        "cuts and repeated all-pairs scans on the hot path",
        build_reduce_lr, traffic_reduce_lr),
    "solve-exact": Workload(
        "solve-exact",
        "exact chi, omega and mcguinness on edge-list graphs: solver nodes, "
        "kernelization and induced_subgraph, no geometry",
        build_solve_exact, traffic_solve_exact),
}
