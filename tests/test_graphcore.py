import hashlib
import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvefam import graphcore
from curvefam.errors import (
    CertificateError,
    ContractError,
    ImproperColoring,
    SolverBudgetExceeded,
)
from curvefam.geometry import MAX_GENERATED_CURVES
from curvefam.graphcore import (
    Budget,
    Coloring,
    IntersectionGraph,
    build_graph,
    chromatic_decision,
    chromatic_number,
    clique_number,
    find_triangle,
    format_edge_list,
    graph_from_edges,
    greedy_coloring,
    induced_subgraph,
    is_proper,
    maximum_clique,
    parse_edge_list,
)


def K(n):
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def C(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def brute_chi(g):
    if g.n == 0:
        return 0
    edges = list(g.edges())
    for c in range(1, g.n + 1):
        for assign in itertools.product(range(c), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in edges):
                return c


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return graph_from_edges(n, edges)


def _multipartite(sizes):
    """The complete multipartite graph with parts of the given sizes: each
    vertex is a twin of the rest of its part."""
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return graph_from_edges(len(part), [(u, v) for u, v in itertools.combinations(range(len(part)), 2)
                                        if part[u] != part[v]])


@st.composite
def twin_rich_graphs(draw):
    """Complete multipartite graphs, and small graphs with one vertex copied:
    the copy sees the original's neighbours and possibly more, so it
    dominates the original."""
    if draw(st.booleans()):
        return _multipartite(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)
                                  .filter(lambda sizes: sum(sizes) <= 7)))
    g = draw(small_graphs().filter(lambda g: 0 < g.n < 7))
    v = draw(st.integers(0, g.n - 1))
    extra = [u for u in range(g.n) if u != v and not (g.adj[v] >> u) & 1 and draw(st.booleans())]
    copy = [u for u in range(g.n) if (g.adj[v] >> u) & 1] + extra
    return graph_from_edges(g.n + 1, [*g.edges(), *((u, g.n) for u in copy)])


class TestClique:
    def test_known_values(self):
        assert clique_number(K(4)) == 4
        assert clique_number(C(5)) == 2
        assert clique_number(graph_from_edges(0, [])) == 0
        assert clique_number(graph_from_edges(3, [])) == 1

    def test_witness_is_clique(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
        clique = maximum_clique(g)
        assert len(clique) == 3
        for u, v in itertools.combinations(clique, 2):
            assert (g.adj[u] >> v) & 1

    @given(small_graphs())
    @settings(max_examples=80, deadline=None)
    def test_against_brute_force(self, g):
        want = 0
        for size in range(g.n, 0, -1):
            if any(all((g.adj[u] >> v) & 1 for u, v in itertools.combinations(vs, 2))
                   for vs in itertools.combinations(range(g.n), size)):
                want = size
                break
        assert clique_number(g) == want

    @pytest.mark.parametrize("seed", range(16))
    def test_against_networkx(self, seed):
        # an independent exact search: networkx's maximal-clique enumeration
        import networkx as nx

        rng = random.Random(seed)
        g = (_double_mycielskian(seed) if seed % 4 == 3
             else _gnp(seed, rng.randrange(20, 61), rng.choice((0.1, 0.25, 0.5, 0.7))))
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        clique = maximum_clique(g)
        assert len(clique) == max(len(c) for c in nx.find_cliques(h))
        assert h.subgraph(clique).number_of_edges() == len(clique) * (len(clique) - 1) // 2


class TestChromatic:
    def test_known_values(self):
        assert chromatic_number(C(5))[0] == 3
        assert chromatic_number(K(4))[0] == 4
        assert chromatic_number(graph_from_edges(0, []))[0] == 0
        assert chromatic_number(graph_from_edges(3, []))[0] == 1

    def test_decision_consistency(self):
        g = C(5)
        chi, witness = chromatic_number(g)
        assert chromatic_decision(g, chi - 1) is None
        w = chromatic_decision(g, chi)
        assert w is not None and w.num_colors <= chi
        ok, _ = is_proper(g, w)
        assert ok

    @given(st.one_of(small_graphs(), twin_rich_graphs()))
    @settings(max_examples=100, deadline=None)
    def test_against_brute_force(self, g):
        # with twins, a core peeled from the previous core can differ from
        # one peeled from g, as the pass order decides which twin goes
        chi, witness = chromatic_number(g)
        assert chi == brute_chi(g)
        ok, _ = is_proper(g, witness)
        assert ok
        assert witness.num_colors == chi or g.n == 0
        assert clique_number(g) <= chi

    @given(st.one_of(small_graphs(), twin_rich_graphs()))
    @settings(max_examples=80, deadline=None)
    def test_decision_against_brute_force(self, g):
        chi = brute_chi(g)
        for c in range(g.n + 2):
            w = chromatic_decision(g, c)
            assert (w is None) == (chi > c)
            if w is not None:
                assert is_proper(g, w)[0] and w.num_colors <= c

    @given(small_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges()]
        h = graph_from_edges(g.n, edges)
        assert chromatic_number(h)[0] == chromatic_number(g)[0]
        assert clique_number(h) == clique_number(g)

    def test_budget_exhaustion_carries_bounds(self):
        g = K(8)
        with pytest.raises(SolverBudgetExceeded):
            chromatic_number(g, budget=Budget(3))

    def test_kernelization_path(self):
        # a long path hangs off a clique; stripped vertices must recolor fine
        edges = list(itertools.combinations(range(5), 2))
        edges += [(4, 5), (5, 6), (6, 7), (7, 8)]
        g = graph_from_edges(9, edges)
        chi, w = chromatic_number(g)
        assert chi == 5
        ok, _ = is_proper(g, w)
        assert ok


    @pytest.mark.parametrize("seed", range(30))
    def test_kernel_removal_order(self, seed):
        # the kernel peels in the order of the pass-by-pass loop: sparse
        # graphs with shuffled labels cascade across many passes, and in
        # twin-rich graphs a vertex's only dominator is often a twin removed
        # just before in the same pass (K_{3,3} at c <= 3: 0 and 1 go as
        # twins of 2, which then has no dominator left)
        from oracles import kernelize_by_passes

        rng = random.Random(seed)
        n = rng.randrange(1, 70)
        g = _gnp(seed, n, rng.choice((0.02, 0.05, 0.1, 0.2, 0.4)))
        perm = list(range(n))
        rng.shuffle(perm)
        tail = graph_from_edges(n + 5, [(i, (i + 1) % 5) for i in range(5)]
                                + [(5 + perm[v], 5 + perm[v - 1] if v else 4) for v in range(n)])
        parts = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 5))]
        for h in (g, tail, _double_mycielskian(seed), _multipartite(parts), _multipartite((3, 3))):
            for c in range(1, 7):
                assert graphcore._kernelize(h, c) == kernelize_by_passes(h.adj, c)

    def test_long_tail_peels_in_linear_passes(self):
        # C_5 with a path on vertex 4 numbered away from it: at c = 2 each
        # pass of the old peeling removed one vertex and rescanned the rest,
        # 0.5 s at 4,000 vertices and quadratic beyond
        n = 40_000
        g = graph_from_edges(n, [(i, (i + 1) % 5) for i in range(5)]
                             + [(v - 1 if v > 5 else 4, v) for v in range(5, n)])
        start = time.process_time()
        assert chromatic_decision(g, 2) is None
        assert time.process_time() - start < 1.0

    @pytest.mark.parametrize("witness, error", [
        (Coloring((0, 0, 0, 0, 0)), ImproperColoring),
        (Coloring((0, 1, 0, 1, 2)), CertificateError),   # proper, but 3 colors for c = 2
    ])
    def test_bad_decision_witness_rejected(self, monkeypatch, witness, error):
        # the search hands back a bad colouring of the core; the decision
        # rejects it before any caller reads a color: chromatic_number at
        # c = 2 on C_5, and mcguinness_subgraph at c = beta = 1 on the prefix
        # {0, 1} of K_5, where it would index a class list of beta + 1
        from curvefam.reductions import mcguinness_subgraph

        monkeypatch.setattr(graphcore, "_decide_core",
                            lambda g, c, budget, clique: list(witness.colors[:g.n]))
        with pytest.raises(error):
            chromatic_number(C(5))
        with pytest.raises(error):
            mcguinness_subgraph(K(5), list(range(5)), alpha=1, beta=1)

    def test_bad_fallback_witness_rejected(self, monkeypatch, tmp_path, capsys):
        # when every decision refutes, the heuristic's colouring is the
        # witness, and it is checked as a decision's is: a 2-colouring of
        # C_5 sets the upper bound to omega, so no decision runs at all
        from curvefam.cli import EXIT_VALIDATION, main

        monkeypatch.setattr(graphcore, "_dsatur_heuristic", lambda g: Coloring((0, 1, 0, 1, 0)))
        with pytest.raises(ImproperColoring, match=r"\('0', '4'\)"):
            chromatic_number(C(5))
        path = tmp_path / "c5.txt"
        path.write_text(format_edge_list(C(5)))
        assert main(["color", "--exact", "--graph", str(path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err == "error: ImproperColoring: monochromatic edge ('0', '4')\n"


class TestGreedyAndProper:
    def test_path_order_example(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)], ("a", "b", "c"))
        col = greedy_coloring(g, [0, 2, 1])  # a, c, b
        assert col.colors[0] == 0 and col.colors[2] == 0 and col.colors[1] == 1

    def test_triangle_needs_three(self):
        assert greedy_coloring(K(3), [0, 1, 2]).num_colors == 3

    def test_order_must_be_permutation(self):
        with pytest.raises(ContractError):
            greedy_coloring(K(3), [0, 1, 1])

    @given(small_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_greedy_proper_and_degree_bound(self, g, rnd):
        order = list(range(g.n))
        rnd.shuffle(order)
        col = greedy_coloring(g, order)
        ok, _ = is_proper(g, col)
        assert ok
        if g.n:
            assert col.num_colors <= max(g.degree(v) for v in range(g.n)) + 1

    def test_is_proper_reports_first_edge(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        ok, edge = is_proper(g, Coloring((0, 1, 1, 0)))
        assert not ok and edge == (1, 2)
        ok, edge = is_proper(g, Coloring((0, 1, 0, 1)))
        assert ok and edge is None

    def test_coloring_must_be_total(self):
        with pytest.raises(ContractError):
            is_proper(K(3), Coloring((0, 1)))

    @given(st.one_of(small_graphs(), twin_rich_graphs()), st.data())
    @settings(max_examples=150, deadline=None)
    def test_is_proper_against_edge_scan(self, g, data):
        # the class masks report the same first monochromatic edge as a scan
        # of every pair; few colours make most colourings improper
        from oracles import first_monochromatic_edge

        k = data.draw(st.integers(1, 4))
        colors = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n)))
        edge = first_monochromatic_edge(g.adj, colors)
        assert is_proper(g, Coloring(colors)) == (edge is None, edge)


class TestGraphStructure:
    def test_build_graph_triangle(self):
        from curvefam.geometry import Point as P, Polyline
        from curvefam.families import make_one_curve

        curves = [make_one_curve(Polyline((P(0, 0), P(4, 4)), "a")),
                  make_one_curve(Polyline((P(4, 0), P(0, 4)), "b")),
                  make_one_curve(Polyline((P(2, 0), P(2, 5)), "c"))]
        g = build_graph(curves)
        assert g.m == 3 and clique_number(g) == 3

    def test_build_graph_disjoint(self):
        from curvefam.geometry import Point as P, Polyline
        from curvefam.families import make_one_curve

        curves = [make_one_curve(Polyline((P(0, 0), P(0, 1)), "a")),
                  make_one_curve(Polyline((P(2, 0), P(2, 1)), "b"))]
        assert build_graph(curves).m == 0

    def test_find_triangle(self):
        assert find_triangle(C(5)) is None
        tri = find_triangle(K(4))
        assert tri is not None and len(set(tri)) == 3

    def test_induced_subgraph(self):
        g = C(5)
        sub, mapping = induced_subgraph(g, [0, 1, 2])
        assert sub.m == 2 and mapping == [0, 1, 2]

    def test_induced_subgraph_skips_recheck(self, monkeypatch):
        # a subgraph of a checked graph is built without a second check
        g, want = C(5), IntersectionGraph(3, (0b010, 0b101, 0b010), ("0", "1", "2"))
        monkeypatch.setattr(IntersectionGraph, "__post_init__",
                            lambda self: pytest.fail("induced subgraph re-checked"))
        sub, mapping = induced_subgraph(g, [0, 1, 2])
        assert sub == want and mapping == [0, 1, 2]

    def test_edge_list_parsed_without_recheck(self, monkeypatch):
        # parse_edge_list checks each row once, as it builds the adjacency
        g = C(5)
        monkeypatch.setattr(IntersectionGraph, "__post_init__",
                            lambda self: pytest.fail("parsed graph re-checked"))
        assert parse_edge_list(format_edge_list(g)) == g

    @pytest.mark.parametrize("edge", [(0, -1), (-1, 0), (5, 0)])
    def test_edge_endpoint_out_of_range(self, edge):
        with pytest.raises(ContractError, match=rf"edge \({edge[0]},{edge[1]}\) has an endpoint"):
            graph_from_edges(3, [(0, 1), edge])

    def test_symmetry_enforced(self):
        with pytest.raises(ContractError):
            IntersectionGraph(2, (0b10, 0b00), ("a", "b"))

    def test_asymmetric_adjacency_still_rejected(self):
        # a graph built directly keeps the full check, which graph_from_edges
        # has no need of
        with pytest.raises(ContractError, match="adjacency must be symmetric"):
            IntersectionGraph(3, (0b110, 0b001, 0b000), ("a", "b", "c"))

    def test_edges_checked_once(self, monkeypatch):
        # graph_from_edges checks each edge as it adds it, then builds the
        # graph without the symmetry scan; the label count is still checked
        monkeypatch.setattr(IntersectionGraph, "__post_init__",
                            lambda self: pytest.fail("edge list re-checked"))
        g = graph_from_edges(3, [(0, 1), (2, 1)], ("a", "b", "c"))
        assert g.adj == (0b010, 0b101, 0b010) and g.labels == ("a", "b", "c")
        with pytest.raises(ContractError, match="labels must match vertex count"):
            graph_from_edges(3, [(0, 1)], ("a", "b"))

    def test_edge_list_round_trip(self):
        g = C(6)
        text = format_edge_list(g)
        g2 = parse_edge_list(text)
        assert format_edge_list(g2) == text
        assert text.splitlines()[0] == "6 6"

    def test_edge_list_malformed(self):
        from curvefam.errors import FileFormatError

        with pytest.raises(FileFormatError):
            parse_edge_list("3 1\n0 5\n")
        with pytest.raises(FileFormatError):
            parse_edge_list("")
        # int() reads these as 10, 0 and 0; a row holds ASCII digits only
        for row in ("0 1_0", "+0 1", "\uff10 1"):
            with pytest.raises(FileFormatError, match="holds more than ASCII decimal numbers"):
                parse_edge_list(f"12 1\n{row}\n")
        assert parse_edge_list("# any text: +0 1_0 \uff10\n2 1\n0\t1\n").m == 1
        # one vertex above the cap: rejected before [0] * n is allocated
        with pytest.raises(FileFormatError, match=r"must be in 0\.\.1000000, got 1000001$"):
            parse_edge_list(f"{MAX_GENERATED_CURVES + 1} 0\n")


def _grotzsch():
    """Mycielski's graph of C5: triangle-free with chromatic number 4."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    edges += [(5 + i, 10) for i in range(5)]
    return graph_from_edges(11, edges)


def _gnp(seed, n, p):
    rng = random.Random(seed)
    return graph_from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                if rng.random() < p])


def _search_record(g, below=1):
    """Every output of the exact solvers on g, with the nodes each one used;
    the decisions run for c from chi - below to chi."""
    def run(fn, *args):
        budget = Budget(10 ** 8)
        result = fn(g, *args, budget=budget)
        return result, 10 ** 8 - budget.remaining

    (chi, witness), nodes = run(chromatic_number)
    rows = [f"chi {chi} {witness.colors} {nodes}"]
    for c in range(max(chi - below, 0), chi + 1):
        result, nodes = run(chromatic_decision, c)
        rows.append(f"dec {c} {result and result.colors} {nodes}")
    clique, nodes = run(maximum_clique)
    rows.append(f"clique {clique} {nodes}")
    return "\n".join(rows)


# sha256 over _search_record of a fixed graph set, pinned with the recursive
# trail-based search; any change to the search tree, the witnesses or the
# node counts changes it. Re-pinned when chromatic_number came to pass its
# clique to the decisions: only the node counts of the chi rows fell. Re-pinned
# when the kernel came to strip dominated vertices: every chi and every
# decision's outcome held, the nodes fell from 2,293 to 2,279 and 2 of 76
# rows changed their witness. Re-pinned when chromatic_number came to walk
# one kernel chain and start every core that keeps G's clique from it:
# only the node counts of 5 chi rows changed, and the nodes fell from 2,279
# to 2,109.
SEARCH_DIGEST = "546d3baa365af5330836f15e1b0418d98bae74aae0ad5931dad39147459e7c0b"


def _digest_graphs():
    from curvefam.burling import generate
    from generators import graph_with_chi_above

    graphs = [K(4), C(5), _grotzsch(), generate(3).graph(), generate(4).graph()]
    graphs += [graph_with_chi_above(random.Random(seed), 2 + seed % 3) for seed in range(6)]
    graphs += [_gnp(seed, 20 + 5 * seed, 0.25 + 0.1 * seed) for seed in range(6)]
    graphs += [_gnp(seed, 60, 0.1) for seed in range(2)]
    return graphs


def test_search_digest():
    text = "\n\n".join(_search_record(g) for g in _digest_graphs())
    assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_DIGEST


# sha256 over _search_record, with decisions from chi - 2 up, of graphs shaped
# like the solve-exact benchmark's: M_2..M_5 and relabeled Mycielskians of
# Mycielskians of seeded 7-vertex triangle-free graphs. The c = chi - 2
# refutations are deep, and their wipeouts land in the middle of a round of
# forced assignments. Pinned at commit f732a05, before the search carried its
# counts from state to state; re-pinned, like SEARCH_DIGEST, when only the
# chi rows' node counts fell, and again when the kernel came to strip
# dominated vertices: outcomes held, the nodes fell from 13,503 to 7,897 and
# 20 of 120 rows changed their witness; and again, like SEARCH_DIGEST, for
# the kernel chain: only the node counts of 20 chi rows changed, and the
# nodes fell from 7,897 to 7,421.
MYCIELSKI_DIGEST = "04ff6aae4d28d0cb3bdece467f0a3d997e7b94208aec2c7fd70d629e7bb94ba8"


def _double_mycielskian(seed):
    """The Mycielskian of the Mycielskian of a seeded 7-vertex triangle-free
    graph, relabeled by the same seed."""
    from generators import mycielskian_of, triangle_free_process

    rng = random.Random(seed)
    n, edges = mycielskian_of(*mycielskian_of(7, triangle_free_process(rng, 7)))
    perm = list(range(n))
    rng.shuffle(perm)
    return graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _mycielski_digest_graphs():
    from generators import mycielskian

    return [mycielskian(k) for k in range(2, 6)] + [_double_mycielskian(s) for s in range(20)]


def test_mycielski_digest():
    text = "\n\n".join(_search_record(g, below=2) for g in _mycielski_digest_graphs())
    assert hashlib.sha256(text.encode()).hexdigest() == MYCIELSKI_DIGEST


def _oracle_decision(g, c):
    """chromatic_decision(g, c)'s witness colours (or None) and node count,
    with the core peeled and searched by the plain-set oracles; the root
    clique and its nodes come from maximum_clique on the same core."""
    from oracles import decide_one_at_a_time, kernelize_by_passes

    core, removed = kernelize_by_passes(g.adj, c)
    colors, nodes, cut_rounds = [-1] * g.n, 0, 0
    if core:
        sub, _ = induced_subgraph(g, core)
        budget = Budget(10 ** 8)
        clique = maximum_clique(sub, budget)
        sub_colors, nodes, cut_rounds = decide_one_at_a_time(sub.adj, c, clique)
        nodes += 10 ** 8 - budget.remaining
        if sub_colors is None:
            return None, nodes, cut_rounds
        for i, v in enumerate(core):
            colors[v] = sub_colors[i]
    for v in reversed(removed):
        used = {colors[u] for u in range(g.n) if (g.adj[u] >> v) & 1}
        colors[v] = min(set(range(g.n + 1)) - used)
    return tuple(colors), nodes, cut_rounds


def _oracle_graphs(family):
    from generators import graph_with_chi_above, mycielskian

    if family == "gnp":
        return [_gnp(seed, 8 + seed % 25, (0.1, 0.2, 0.3, 0.5)[seed % 4]) for seed in range(80)]
    if family == "chi-above":
        return [graph_with_chi_above(random.Random(seed), 2 + seed % 4) for seed in range(70)]
    return ([mycielskian(k) for k in range(2, 6)]
            + [_double_mycielskian(seed) for seed in range(100, 150)])


@pytest.mark.parametrize("family", ["gnp", "chi-above", "double-mycielskian"])
def test_decisions_match_one_at_a_time_oracle(family):
    # settling forced vertices a class at a time keeps the search tree of
    # assigning them one at a time: same witnesses, same node counts
    cut_rounds = 0
    for g in _oracle_graphs(family):
        chi = chromatic_number(g)[0]
        for c in range(max(chi - 2, 1), chi + 1):
            budget = Budget(10 ** 8)
            witness = chromatic_decision(g, c, budget)
            want, nodes, cut = _oracle_decision(g, c)
            assert (witness and witness.colors, 10 ** 8 - budget.remaining) == (want, nodes)
            cut_rounds += cut
    if family == "double-mycielskian":
        assert cut_rounds > 0        # some wipeouts land in the middle of a forced round


def test_budget_ticks_at_the_same_nodes():
    # a c = 4 refutation on a double Mycielskian (chi = 5) takes 185 nodes,
    # clique included; one node fewer runs out with the core's clique size
    # as the lower bound and no upper bound
    g = _double_mycielskian(3)
    budget = Budget(10 ** 8)
    assert chromatic_decision(g, 4, budget) is None
    nodes = 10 ** 8 - budget.remaining
    assert nodes == 185
    assert chromatic_decision(g, 4, Budget(nodes)) is None
    with pytest.raises(SolverBudgetExceeded) as exc:
        chromatic_decision(g, 4, Budget(nodes - 1))
    assert (exc.value.lower, exc.value.upper) == (2, None)


def test_time_budget_runs_out_in_the_search(monkeypatch):
    # the search reads the clock when the nodes left are a multiple of 1,024,
    # as Budget.tick does, and leaves budget.remaining at the node it stopped
    monkeypatch.delenv(graphcore.ENV_NODE_BUDGET, raising=False)
    budget = Budget(time_ms=1)
    given = budget.remaining
    monkeypatch.setattr(graphcore.time, "monotonic", lambda: budget.deadline + 1)
    with pytest.raises(SolverBudgetExceeded, match="time budget") as exc:
        chromatic_decision(_double_mycielskian(3), 4, budget)
    assert exc.traceback[-1].name == "_decide_core"
    assert 0 < given - budget.remaining <= 1024 and budget.remaining % 1024 == 0


def _oracle_chain(g):
    """chromatic_number(g)'s answer, witness colours and node count, with
    each c-kernel peeled from the previous core by the plain-set oracle and
    searched one forced vertex at a time; g's maximum clique is searched
    once and starts every search whose core keeps all of it, and any other
    core's clique comes from maximum_clique on that core. Also returns how
    many cores dropped a vertex yet kept g's clique."""
    from oracles import decide_one_at_a_time, kernelize_by_passes

    budget = Budget(10 ** 8)
    clique = maximum_clique(g, budget)
    heuristic = graphcore._dsatur_heuristic(g).colors
    core, removed, sub, nodes, reused = list(range(g.n)), [], g, 0, 0
    for c in range(len(clique), max(heuristic) + 1):
        keep, gone = kernelize_by_passes(sub.adj, c)
        removed += [core[v] for v in gone]
        sub, core = induced_subgraph(sub, keep)[0], [core[v] for v in keep]
        colors = [-1] * g.n
        if core:
            if set(clique) <= set(core):
                start = [core.index(v) for v in clique]
                reused += bool(gone)
            else:
                start = maximum_clique(sub, budget)
            sub_colors, search_nodes, _ = decide_one_at_a_time(sub.adj, c, start)
            nodes += search_nodes
            if sub_colors is None:
                continue
            for i, v in enumerate(core):
                colors[v] = sub_colors[i]
        for v in reversed(removed):
            used = {colors[u] for u in range(g.n) if (g.adj[u] >> v) & 1}
            colors[v] = min(set(range(g.n + 1)) - used)
        return c, tuple(colors), nodes + 10 ** 8 - budget.remaining, reused
    return max(heuristic) + 1, heuristic, nodes + 10 ** 8 - budget.remaining, reused


@pytest.mark.parametrize("family", ["gnp", "chi-above", "double-mycielskian"])
def test_chromatic_number_finds_its_clique_once(family):
    # chromatic_number walks one kernel chain, each core peeled from the
    # last, and searches a core's clique only once g's clique has lost a
    # vertex: its answer, witness and nodes are those of the oracle chain
    reused = 0
    for g in _oracle_graphs(family):
        budget = Budget(10 ** 8)
        chi, witness = chromatic_number(g, budget)
        want = _oracle_chain(g)
        assert (chi, witness.colors, 10 ** 8 - budget.remaining) == want[:3]
        reused += want[3]
    assert reused > 0           # some cores drop vertices and keep g's clique


def _with_cycle_hung(g, rng):
    """g with a C_5 joined to one random vertex by an edge, relabeled at
    random: at c = 2 the cycle stays, and at c = 3 it peels away."""
    edges = [*g.edges(), *((g.n + i, g.n + (i + 1) % 5) for i in range(5)), (rng.randrange(g.n), g.n)]
    perm = list(range(g.n + 5))
    rng.shuffle(perm)
    return graph_from_edges(g.n + 5, [(perm[u], perm[v]) for u, v in edges])


@pytest.mark.parametrize("seed", range(12))
def test_kernel_chain_removals_replay(seed, monkeypatch):
    # the chain's one removal list in g's indices, replayed in plain sets
    # link by link: a vertex peeled at c had fewer than c live neighbours
    # when it went, or a live non-neighbour adjacent to all of its live
    # neighbours. The double Mycielskians and Grötzsch's graph are
    # triangle-free with chi >= 4, so their chains have links at c = 2 and
    # 3; a hung C_5 is peeled at c = 3, from the c = 2 core
    peel, links = graphcore._peel, []

    def recorded(sub, mapping, c, removed):
        out = peel(sub, mapping, c, removed)
        links.append((c, list(removed)))
        return out

    monkeypatch.setattr(graphcore, "_peel", recorded)
    rng = random.Random(seed)
    dm = _double_mycielskian(seed)
    for g, hung in ((dm, False), (_with_cycle_hung(dm, rng), True),
                    (_with_cycle_hung(_grotzsch(), rng), True),
                    (_gnp(seed, rng.randrange(8, 40), rng.choice((0.1, 0.2, 0.3))), None)):
        links.clear()
        chromatic_number(g)
        nbrs = [{u for u in range(g.n) if (g.adj[v] >> u) & 1} for v in range(g.n)]
        alive, sizes = set(range(g.n)), [0]
        for c, removed in links:
            for v in removed[sizes[-1]:]:
                alive.remove(v)
                live = nbrs[v] & alive
                assert len(live) < c or any(live <= nbrs[w] for w in alive - live)
            sizes.append(len(removed))
        if hung is not None:
            assert [c for c, _ in links[:2]] == [2, 3]      # chi >= 4
            assert (sizes[2] > sizes[1]) == hung            # only the cycle goes at c = 3


def test_maximum_clique_runs_once_per_chromatic_number(monkeypatch):
    # chi = 5 after decisions at c = 2, 3 and 4: M_5 has minimum degree 4
    # and no dominated vertex, so each decision is on all of G; each kernel
    # of the double Mycielskian drops dominated vertices but keeps G's
    # clique, which starts each of its searches
    from generators import mycielskian

    find, calls = graphcore.maximum_clique, []
    monkeypatch.setattr(graphcore, "maximum_clique",
                        lambda g, budget=None: calls.append(g) or find(g, budget))
    assert chromatic_number(mycielskian(5))[0] == 5
    assert len(calls) == 1
    calls.clear()
    assert chromatic_number(_double_mycielskian(3))[0] == 5
    assert len(calls) == 1


def _cycle_square(n):
    """C_n with each vertex also joined to the vertices two steps away:
    4-regular, 3-chromatic when 3 divides n, and for n >= 9 no vertex is
    dominated, as only v itself is adjacent to both v - 2 and v + 2."""
    return graph_from_edges(n, [(v, (v + d) % n) for v in range(n) for d in (1, 2)])


@pytest.mark.parametrize("solve, want", [
    # every vertex survives the c = 4 kernel; the search takes 1,801 nodes
    (lambda: chromatic_decision(_cycle_square(1800), 4).num_colors, 3),
    (lambda: clique_number(K(1200)), 1200),
], ids=["cycle-square", "K1200"])
def test_deep_search_keeps_recursion_limit(solve, want):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert solve() == want
        assert sys.getrecursionlimit() == 200
    finally:
        sys.setrecursionlimit(saved)
