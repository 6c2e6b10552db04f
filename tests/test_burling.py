import dataclasses
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import curvefam
from curvefam import burling
from curvefam.burling import (
    BurlingInstance,
    DoubleCurve,
    Probe,
    audit_coloring,
    crossing_set,
    expected_sizes,
    generate,
    strip_hits,
    verify_properties,
)
from curvefam.errors import CertificateError, ContractError, ImproperColoring, ScaleOverflow
from curvefam.families import validate_lr
from curvefam.geometry import Point as P, Polyline, polyline_meets_vstrip
from curvefam.graphcore import (
    chromatic_decision,
    chromatic_number,
    clique_number,
    greedy_coloring,
)
from generators import proper_colorings


class TestGenerate:
    def test_recurrence_table(self):
        assert [expected_sizes(k) for k in (1, 2, 3, 4)] == [
            (1, 1), (3, 2), (13, 8), (181, 128)]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sizes(self, k):
        inst = generate(k)
        assert (len(inst.members), len(inst.probes)) == expected_sizes(k)

    def test_base_case_shape(self):
        inst = generate(1)
        (m,) = inst.members
        (p,) = inst.probes
        assert not polyline_meets_vstrip(m.left, p.x_lo, p.x_hi)
        assert polyline_meets_vstrip(m.right, p.x_lo, p.x_hi)
        assert crossing_set(inst, p) == [m.id]

    def test_k5_overflows_scale_contract(self):
        # k = 5 needs scale 2**107; the bound before the step must refuse it
        # before the level is built
        start = time.perf_counter()
        with pytest.raises(ScaleOverflow, match=r"2\*\*107"):
            generate(5)
        assert time.perf_counter() - start < 0.5

    def test_cap_and_hard_cap(self):
        # there is no level cap: every k >= 6 fails fast on the same scale
        # bound as k = 5, and k < 1 is a contract error
        for k in (6, 7):
            start = time.perf_counter()
            with pytest.raises(ScaleOverflow, match=r"2\*\*107"):
                generate(k)
            assert time.perf_counter() - start < 0.5
        with pytest.raises(ContractError):
            generate(0)

    def test_deterministic(self):
        a, b = generate(3), generate(3)
        assert [m.id for m in a.members] == [m.id for m in b.members]
        assert a.probes == b.probes
        assert all(x.left.points == y.left.points
                   for x, y in zip(a.members, b.members))

    def test_ids_encode_recursion_path(self):
        inst = generate(3)
        ids = {m.id for m in inst.members}
        assert "o.o.x" in ids and "g0.0" in ids
        assert any(i.startswith("p0.") for i in ids)


class TestVerify:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_checks_pass(self, k):
        report = verify_properties(generate(k))
        assert report.ok
        names = [c.name for c in report.checks]
        assert "triangle-free" in names and "lr-family" in names

    def test_mutated_arm_reported_with_ids(self):
        # drop the outer arm below the gadget's left top: it then crosses an
        # extra left 1-curve, so one probe's crossing set stops being
        # pairwise disjoint
        inst = generate(2)
        (gadget,) = [m for m in inst.members if m.id == "g0.0"]
        gadget_top = gadget.left.points[1].y
        copy_top = max(p.y for m in inst.members if m.id.startswith("p0.")
                       for part in m.polylines() for p in part.points)
        new_h = (gadget_top + copy_top) // 2
        members = []
        for m in inst.members:
            if m.id == "o.x":
                stem, top, end = m.right.points
                bad_right = Polyline((stem, P(stem.x, new_h), P(end.x, new_h)),
                                     m.right.id)
                members.append(DoubleCurve(m.id, m.left, bad_right))
            else:
                members.append(m)
        mutated = BurlingInstance(inst.k, tuple(members), inst.probes,
                                  inst.scale, inst.tree)
        report = verify_properties(mutated)
        assert not report.ok
        failing = {c.name: c.detail for c in report.checks if not c.ok}
        assert "crossing-sets-pairwise-disjoint" in failing
        detail = failing["crossing-sets-pairwise-disjoint"]
        assert "o.x" in detail and "g0.0" in detail


class TestGraphNumbers:
    def test_omega(self):
        assert clique_number(generate(1).graph()) == 1
        for k in (2, 3):
            assert clique_number(generate(k).graph()) == 2

    def test_chromatic_lower_bounds(self):
        for k in (2, 3):
            g = generate(k).graph()
            assert chromatic_decision(g, k - 1) is None
            assert chromatic_decision(g, k) is not None

    def test_exact_chi_small(self):
        assert chromatic_number(generate(2).graph())[0] == 2
        assert chromatic_number(generate(3).graph())[0] == 3


class TestCrossingSets:
    def test_empty_outside(self):
        inst = generate(2)
        far = max(p.x_hi for p in inst.probes) + max(m.right.points[-1].x
                                                     for m in inst.members)
        assert crossing_set(inst, Probe(far + 1, far + 2)) == []

    def test_against_direct_scan(self):
        rng = random.Random(7)
        inst = generate(3)
        span = max(p.x_hi for p in inst.probes)
        for _ in range(40):
            lo = rng.randint(0, span)
            hi = lo + rng.randint(1, span // 4 + 1)
            probe = Probe(lo, hi)
            want = []
            for m in inst.members:
                hit = False
                for poly in m.polylines():
                    for a, b in poly.segments:
                        # direct scan: curves live in the closed upper
                        # half-plane, so the x-interval test is exact
                        if max(a.x, b.x) >= lo and min(a.x, b.x) <= hi:
                            hit = True
                if hit:
                    want.append(m.id)
            assert crossing_set(inst, probe) == want

    def test_replaced_instance_is_not_stale(self):
        # o.x's arm shortened to end left of probe 0, in an instance made by
        # dataclasses.replace from one that was verified already
        inst = generate(2)
        assert verify_properties(inst).ok
        ox = inst.members[0]
        stem, corner, _ = ox.right.points
        arm = Polyline((stem, corner, P(296, corner.y)), ox.right.id)
        short = DoubleCurve(ox.id, ox.left, arm)
        moved = dataclasses.replace(inst, members=(short, *inst.members[1:]))
        assert crossing_set(moved, moved.probes[0]) == ["p0.x"]


def _scan(members, probes):
    """strip_hits by testing every part against every strip."""
    def meets(part, p):
        return polyline_meets_vstrip(part, p.x_lo, p.x_hi)

    return [([i for i, m in enumerate(members) if meets(m.left, p)],
             [i for i, m in enumerate(members) if meets(m.left, p) or meets(m.right, p)])
            for p in probes]


# strips over X_2, whose o.x has its left part at x = 64 and its right part
# over [192, 448], and whose p0.x spans [278, 314]
_X2_STRIPS = {
    "overlapping": [(299, 302), (300, 350), (340, 460), (60, 200)],
    "nested": [(0, 500), (299, 302), (300, 301), (10, 20), (30, 1000), (40, 50)],
    "one-x-touch": [(448, 460), (40, 64), (180, 192), (314, 316), (276, 278)],
}


class TestStripHits:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_against_scan_on_probes(self, k):
        inst = generate(k)
        hits = strip_hits(inst.members, inst.probes)
        assert hits == _scan(inst.members, inst.probes)
        assert all(not left and crossing for left, crossing in hits)

    @pytest.mark.parametrize("case", sorted(_X2_STRIPS))
    def test_against_scan_on_crafted_strips(self, case):
        inst = generate(2)
        probes = tuple(Probe(lo, hi) for lo, hi in _X2_STRIPS[case])
        crafted = BurlingInstance(inst.k, inst.members, probes, inst.scale, inst.tree)
        want = _scan(crafted.members, probes)
        assert strip_hits(crafted.members, crafted.probes) == want
        # verify reports overlapping strips and left-part hits, in scan order
        checks = {c.name: c for c in verify_properties(crafted).checks}
        assert checks["probes-pairwise-disjoint"].ok == (case == "one-x-touch")
        bad = [(pi, inst.members[i].id) for pi, (left, _) in enumerate(want) for i in left]
        assert checks["probes-avoid-left-parts"].detail == (
            f"violations: {bad[:5]}" if bad else "all probes disjoint from every L(X)")

    def test_against_scan_on_random_strips(self):
        rng = random.Random(11)
        inst = generate(3)
        span = max(m.right.points[-1].x for m in inst.members)
        probes = []
        for _ in range(60):
            lo = rng.randint(0, span)
            probes.append(Probe(lo, lo + rng.randint(1, span // 8)))
        assert strip_hits(inst.members, probes) == _scan(inst.members, probes)

    def test_touching_strips_are_hits(self):
        inst = generate(2)
        probes = [Probe(lo, hi) for lo, hi in _X2_STRIPS["one-x-touch"]]
        ids = [tuple([inst.members[i].id for i in hit] for hit in pair)
               for pair in strip_hits(inst.members, probes)]
        assert ids == [([], ["o.x"]), (["o.x"], ["o.x"]), ([], ["o.x"]),
                       ([], ["o.x", "p0.x"]), (["p0.x"], ["o.x", "p0.x"])]


class TestAudit:
    def test_k1_trivial(self):
        inst = generate(1)
        res = audit_coloring(inst, {inst.members[0].id: 0})
        assert res.colors == frozenset({0}) and res.probe == inst.probes[0]

    def test_k2_exhaustive_over_proper_colorings(self):
        inst = generate(2)
        g = inst.graph()
        count = 0
        for assign in proper_colorings(g, 3):
            cmap = {g.labels[v]: assign[v] for v in range(g.n)}
            res = audit_coloring(inst, cmap)
            assert len(res.colors) >= 2
            count += 1
        # 27 assignments of 3 colors, minus 3 * 3 with the edge monochromatic
        assert count == 18

    def test_improper_rejected(self):
        inst = generate(2)
        g = inst.graph()
        u, v = next(g.edges())
        cmap = {mid: 0 for mid in g.labels}
        with pytest.raises(ImproperColoring):
            audit_coloring(inst, cmap)

    def test_incomplete_rejected(self):
        inst = generate(2)
        with pytest.raises(ContractError):
            audit_coloring(inst, {"o.x": 0})

    @pytest.mark.parametrize("k", [3, 4])
    def test_greedy_colorings(self, k):
        inst = generate(k)
        g = inst.graph()
        rng = random.Random(4242)
        for _ in range(30):
            order = list(range(g.n))
            rng.shuffle(order)
            col = greedy_coloring(g, order)
            res = audit_coloring(inst, col.as_label_map(g))
            assert len(res.colors) >= k
            assert res.probe in inst.probes

    def test_broken_invariant_raises(self, monkeypatch):
        # with the properness check patched away, a monochromatic coloring
        # reaches the audit's own invariant checks, which must raise
        inst = generate(2)
        monkeypatch.setattr(burling, "is_proper", lambda g, col: (True, None))
        with pytest.raises(CertificateError):
            audit_coloring(inst, {m.id: 0 for m in inst.members})

    def test_exact_coloring_audited(self):
        inst = generate(3)
        g = inst.graph()
        chi, witness = chromatic_number(g)
        res = audit_coloring(inst, witness.as_label_map(g))
        assert len(res.colors) >= 3


class TestGraphShape:
    def test_x2_edges_exactly_copy_vs_gadget(self):
        from curvefam.families import member_intersections

        inst = generate(2)
        g = inst.graph()
        labeled = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
        assert labeled == {frozenset({"p0.x", "g0.0"})}
        # cross-check by brute-force point enumeration over every pair
        import itertools

        for m1, m2 in itertools.combinations(inst.members, 2):
            pts = member_intersections(m1, m2)
            expect = {m1.id, m2.id} == {"p0.x", "g0.0"}
            assert bool(pts) == expect


class TestLRFamily:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_instances_are_lr(self, k):
        assert validate_lr(generate(k).members).ok

    def test_double_curve_invariants(self):
        inst = generate(3)
        for m in inst.members:
            bl, br = m.basepoints
            assert bl.y == 0 and br.y == 0 and bl.x < br.x
            from curvefam.geometry import polylines_disjoint

            assert polylines_disjoint(m.left, m.right)


def _layout(*members):
    """A one-probe layout over the strip [4/8, 6/8] with the given members."""
    e = Fraction(1, 8)
    rm = [burling._RMember(f"m{i}", *(v * e for v in coords))
          for i, coords in enumerate(members)]
    node = burling.BurlingNode(level=1, member_id="m0", probe=Probe(4 * e, 6 * e))
    return burling._RInst(tuple(rm), node), 4 * e, 6 * e


# member coordinates in eighths: (lx, ltop, rx, rh, rend)
_CROSSING = (1, 4, 3, 2, 7)


class TestCrossingArms:
    def test_valid_layout(self):
        inst, lo, hi = _layout(_CROSSING)
        assert [m.id for m in burling._crossing_arms(inst, lo, hi)] == ["m0"]

    @pytest.mark.parametrize("members", [
        [(5, 4, 3, 2, 7)],               # left part inside the strip
        [(1, 4, 4, 2, 7)],               # stem on the strip's edge
        [_CROSSING, (0, 4, 2, 3, 5)],    # arm ends inside the strip
        [_CROSSING, (0, 4, 2, 2, 7)],    # two arms at one height
        [(1, 4, 2, 2, 3)],               # no member crosses the strip
    ])
    def test_broken_layout_raises(self, members):
        inst, lo, hi = _layout(*members)
        with pytest.raises(CertificateError):
            burling._crossing_arms(inst, lo, hi)

    def test_broken_layout_raises_under_optimize_flag(self):
        src = os.path.dirname(os.path.dirname(curvefam.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")) if p))
        script = ("import test_burling as t\n"
                  "from curvefam import burling\n"
                  "burling._crossing_arms(*t._layout((5, 4, 3, 2, 7)))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "CertificateError: left part or stem of 'm0'" in proc.stderr
