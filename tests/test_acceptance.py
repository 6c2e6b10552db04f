"""Acceptance suite: one test per criterion, each printing a PASS line.

The headline chromatic results for the curve classes are asymptotic
existence statements, so acceptance is property-based plus the fully
checkable probe construction. Budgets are asserted where the criteria
state them; run with -s to see the per-criterion lines.
"""

import random
import time

from curvefam import familyfile
from curvefam.burling import audit_coloring, generate, verify_properties
from curvefam.cli import main
from curvefam.errors import SolverBudgetExceeded
from curvefam.families import CurveFamily, member_intersections, validate_lr, xi_of_family
from curvefam.geometry import CapCurve, Point as P, Polyline, Region, region_of, segments_intersect
from curvefam.graphcore import (
    Budget,
    Coloring,
    build_graph,
    chromatic_decision,
    chromatic_number,
    clique_number,
    greedy_coloring,
    is_proper,
)
from curvefam.errors import ContractError, OverlapError
from curvefam.reductions import (
    color_cross_component,
    component_split,
    mcguinness_subgraph,
    rewire_semicircles,
    split_2t,
    two_t_product_coloring,
)
from generators import graph_with_chi_above, lr_family, proper_colorings, two_t_family
from oracles import collinear_overlap, region_oracle, segments_touch_oracle

EXPECTED_SIZES = {1: (1, 1), 2: (3, 2), 3: (13, 8), 4: (181, 128)}


def _report(n, detail):
    print(f"ACCEPTANCE {n} PASS: {detail}")


def test_criterion_1_generation_and_verification(tmp_path):
    start = time.monotonic()
    for k, (n_exp, p_exp) in EXPECTED_SIZES.items():
        path = str(tmp_path / f"x{k}.json")
        assert main(["gen-burling", "--k", str(k), "--out", path]) == 0
        assert main(["verify-family", path,
                     "--report", str(tmp_path / f"r{k}.txt")]) == 0
        inst = familyfile.load(path)
        assert (len(inst.members), len(inst.probes)) == (n_exp, p_exp)
        report = verify_properties(inst)
        assert report.ok, report.lines()
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, f"k=1..4 generated+verified, sizes {list(EXPECTED_SIZES.values())}, "
               f"{elapsed:.1f}s < 10s")


def test_criterion_2_clique_numbers():
    start = time.monotonic()
    values = {}
    for k in (1, 2, 3, 4):
        values[k] = clique_number(generate(k).graph())
    assert values == {1: 1, 2: 2, 3: 2, 4: 2}
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(2, f"omega(X_k) = {values}, {elapsed:.1f}s < 10s")


def test_criterion_3_chromatic_lower_bounds():
    start = time.monotonic()
    for k in (2, 3):
        g = generate(k).graph()
        assert chromatic_decision(g, k - 1, budget=Budget(time_ms=60_000)) is None

    inst4 = generate(4)
    g4 = inst4.graph()
    try:
        witness = chromatic_decision(g4, 3, budget=Budget(time_ms=15 * 60 * 1000))
        refuted = witness is None
        assert refuted, "X_4 admitted a 3-coloring; construction broken"
        detail = "chi<=k-1 refuted exactly for k=2,3,4"
    except SolverBudgetExceeded:
        # fallback criterion: exhaustive audit of X_2 plus 1000 seeded greedy
        # colorings of X_3 and X_4, every audit carrying >= k colors
        inst2 = generate(2)
        g2 = inst2.graph()
        for assign in proper_colorings(g2, 3):
            res = audit_coloring(inst2, {g2.labels[v]: assign[v]
                                         for v in range(g2.n)})
            assert len(res.colors) >= 2
        rng = random.Random(20260810)
        for inst in (generate(3), inst4):
            g = inst.graph()
            for _ in range(1000):
                order = list(range(g.n))
                rng.shuffle(order)
                col = greedy_coloring(g, order)
                res = audit_coloring(inst, col.as_label_map(g))
                assert len(res.colors) >= inst.k
        detail = ("chi<=k-1 refuted for k=2,3; k=4 hit its budget, "
                  "fallback audits passed 100%")
    elapsed = time.monotonic() - start
    _report(3, f"{detail}, {elapsed:.1f}s")


def test_criterion_4_cross_component_coloring():
    start = time.monotonic()
    for seed in range(200):
        rng = random.Random(40_000 + seed)
        fam = lr_family(rng, max_members=30)
        split = component_split(fam)
        res = color_cross_component(split)
        assert res.palette <= 4
        members = [m for m in fam.members if m.id in split.f_diff]
        g = build_graph(members)
        ok, _ = is_proper(g, Coloring(tuple(res.coloring[m.id] for m in members)))
        assert ok
        chi, _ = chromatic_number(g)
        assert chi <= 4
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, f"200 seeded LR families: F_diff colored properly with <= 4 "
               f"colors, exact chi(F_diff) <= 4, {elapsed:.1f}s < 60s")


def test_criterion_5_rewiring_isomorphism():
    start = time.monotonic()
    for seed in range(200):
        rng = random.Random(50_000 + seed)
        fam = lr_family(rng, max_members=30)
        out = rewire_semicircles(fam)
        assert validate_lr(out).ok
        before = build_graph(fam.members)
        after = build_graph(out.members)
        assert before.labels == after.labels and before.adj == after.adj
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(5, f"200 seeded rewirings: LR-valid, labeled graphs identical, "
               f"{elapsed:.1f}s < 30s")


def test_criterion_6_two_t_reduction():
    start = time.monotonic()
    for seed in range(100):
        rng = random.Random(60_000 + seed)
        fam = two_t_family(rng, max_members=20)
        f1, f2 = split_2t(fam)
        for i in range(len(fam.members)):
            for j in range(i + 1, len(fam.members)):
                orig = set(member_intersections(fam.members[i], fam.members[j]))
                if not orig:
                    continue
                pieces = set()
                for a_fam in (f1, f2):
                    for b_fam in (f1, f2):
                        pieces |= set(member_intersections(a_fam.members[i],
                                                           b_fam.members[j]))
                assert orig == pieces
        coloring = two_t_product_coloring(fam)
        g = build_graph(fam.members)
        ok, _ = is_proper(g, Coloring(tuple(coloring[m.id] for m in fam.members)))
        assert ok
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(6, f"100 seeded 4-curve families: split accounting exact, recursive "
               f"product coloring proper, {elapsed:.1f}s < 60s")


def test_criterion_7_mcguinness_suite():
    start = time.monotonic()
    runs = 0
    for alpha, beta in ((1, 1), (2, 1)):
        for seed in range(50):
            rng = random.Random(70_000 + 1000 * alpha + seed)
            g = graph_with_chi_above(rng, (2 * beta + 2) * alpha)
            order = list(range(g.n))
            rng.shuffle(order)
            res = mcguinness_subgraph(g, order, alpha=alpha, beta=beta)
            assert res.chi_h > alpha
            assert all(chi > beta for chi in res.edge_between_chi.values())
            runs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(7, f"{runs} ordered graphs, (alpha,beta) in ((1,1),(2,1)): "
               f"post-conditions exact, {elapsed:.1f}s < 120s")


def test_criterion_8_common_point_bound():
    start = time.monotonic()
    worst = (0, 0)
    for seed in range(200):
        rng = random.Random(80_000 + seed)
        fam = lr_family(rng, max_members=25, chain=True)
        xi = xi_of_family(fam)
        chi, _ = chromatic_number(build_graph(fam.members))
        assert chi <= 4 * xi + 4, (seed, chi, xi)
        if chi - 4 * xi > worst[0] - 4 * worst[1]:
            worst = (chi, xi)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(8, f"200 seeded common-point families: chi <= 4*xi + 4 everywhere "
               f"(tightest case chi={worst[0]}, xi={worst[1]}), {elapsed:.1f}s < 120s")


def test_criterion_9_geometry_exactness():
    rng = random.Random(90_000)
    start = time.monotonic()
    seg_queries = 0
    while seg_queries < 9000:
        pts = [rng.randint(0, 10) for _ in range(8)]
        a = ((pts[0], pts[1]), (pts[2], pts[3]))
        b = ((pts[4], pts[5]), (pts[6], pts[7]))
        if a[0] == a[1] or b[0] == b[1]:
            continue
        pa = Polyline((P(*a[0]), P(*a[1])), "a")
        pb = Polyline((P(*b[0]), P(*b[1])), "b")
        try:
            got = bool(segments_intersect(pa, pb))
        except OverlapError:
            assert collinear_overlap(a, b)
            seg_queries += 1
            continue
        assert got == segments_touch_oracle(a, b, 10)
        seg_queries += 1

    region_queries = 0
    while region_queries < 1000:
        n = rng.randint(1, 4)
        xs = sorted(rng.sample(range(0, 7), n + 2))
        pts = ([P(xs[0], 0)] + [P(x, rng.randint(1, 6)) for x in xs[1:-1]]
               + [P(xs[-1], 0)])
        try:
            cap = CapCurve(Polyline(tuple(pts), "cap"))
        except ContractError:
            continue
        q = P(rng.randint(-1, 7), rng.randint(-1, 7))
        assert region_of(cap, q).value == region_oracle(cap.polyline.points, q)
        region_queries += 1
    elapsed = time.monotonic() - start
    _report(9, f"{seg_queries} segment + {region_queries} region queries agree "
               f"with the rasterized oracles, zero discrepancies, {elapsed:.1f}s")
