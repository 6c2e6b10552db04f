import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import time

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
from curvefam.cli import main
from curvefam.errors import CertificateError, ContractError, ImproperColoring
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

    def test_k5_realized(self):
        # the rank layout realizes X_5, whose affine layout needed scale
        # 2**107, beyond the 2**62 contract. The budgets are on CPU time, so a
        # busy shared host does not fail them.
        start = time.process_time()
        inst = generate(5)
        assert time.process_time() - start < 10.0
        assert (len(inst.members), len(inst.probes)) == (39_733, 32_768)
        xs = [p.x for m in inst.members for p in m.basepoints]
        assert len(set(xs)) == len(xs)
        coords = [v for m in inst.members for part in m.polylines()
                  for p in part.points for v in p] + [
                  x for q in inst.probes for x in q.as_pair()]
        assert all(type(v) is int for v in coords)
        assert min(v for v in coords if v) == 1 and min(coords) == 0
        # the segment sweep builds the pair map; each meeting is a left
        # 1-curve on a right one
        start = time.process_time()
        pairs = inst.pairs
        assert time.process_time() - start < 4.0
        assert len(pairs) == 135_875
        assert {(on_i, on_j) for hits in pairs.values()
                for _, on_i, on_j in hits} <= {("L", "R"), ("R", "L")}

    def test_cap_and_hard_cap(self, tmp_path, capsys):
        # every k >= 6 has too many double-curves to build (X_6 has
        # 2,375,752,501) and fails on its size alone, without computing the
        # size of a level past the first beyond the cap (X_15's has more
        # than 4,300 digits); k < 1 is a contract error too
        for k in (6, 7, 15, 64):
            start = time.perf_counter()
            with pytest.raises(ContractError, match=f"level {k} has "):
                generate(k)
            assert main(["gen-burling", "--k", str(k), "--out", str(tmp_path / "x.json")]) == 2
            assert time.perf_counter() - start < 0.5
            assert f"ContractError: level {k} has " in capsys.readouterr().err
        with pytest.raises(ContractError):
            generate(0)

    def test_layout_scale(self):
        # D_1 = 3, D_2 = 9, D_(k+1) = 2 D_k + 5
        assert [burling._scale_bits(k) for k in (1, 2, 3, 4, 5)] == [3, 9, 23, 51, 107]

    def test_inexact_layout_division_raises(self, monkeypatch):
        # the exactness check is a real test, not an assert: a layout scale
        # one bit too coarse for level 2 leaves a remainder
        with pytest.raises(CertificateError, match="off the integer grid"):
            burling._div(7, 2)
        assert burling._div(-12, 4) == -3
        monkeypatch.setattr(burling, "_scale_bits", lambda level: 3 if level == 1 else 8)
        with pytest.raises(CertificateError, match="off the integer grid"):
            generate(2)

    def test_probe_path_makes_no_fraction(self, monkeypatch):
        from fractions import Fraction

        from curvefam import svgrender

        for module in (burling, svgrender):
            assert not any(v is Fraction for v in vars(module).values())
        made = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        svgrender.render_family(generate(4))
        assert made == []
        Fraction(1, 2)
        assert made == [(1, 2)]

    def test_generator_checks_each_double_curve_once(self, monkeypatch):
        # the generator builds each member through DoubleCurve, whose one
        # constructor runs the double-curve checks once
        checked = []
        real = burling._check_double_curve
        monkeypatch.setattr(burling, "_check_double_curve",
                            lambda *args: checked.append(args[0]) or real(*args))
        inst = generate(4)
        assert checked == [m.id for m in inst.members] and len(checked) == 181

    @pytest.mark.parametrize("rank, message", [
        ("y", "polyline 'p0.p0.p0.x.R' repeats vertex Point(x=27, y=0)"),
        ("x", "'o.o.o.x': left basepoint must precede the right one"),
    ])
    def test_generator_still_checks_members(self, monkeypatch, rank, message):
        # a layout whose lowest y ranks to 0 (or whose x order is reversed)
        # fails the member checks, with the messages the checked
        # constructors gave
        real = burling._ranker
        rankers = []

        def ranker(values):
            f = real(values)
            rankers.append(f)
            if rank == "x" and len(rankers) == 1:
                return lambda v: -f(v)
            if rank == "y" and len(rankers) == 2:
                low = min(values)
                return lambda v: 0 if v == low else f(v)
            return f

        monkeypatch.setattr(burling, "_ranker", ranker)
        with pytest.raises(ContractError) as excinfo:
            generate(4)
        assert str(excinfo.value) == message

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


# sha256 of three coordinate-free views of X_k, pinned before the layout
# became rank-compressed: the labelled edge list, each probe's crossing set
# as ids (probes in tree order), and the verify report lines
_LAYOUT_FREE = {
    1: ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "73cb3858a687a8494ca3323053016282f3dad39d42cf62ca4e79dda2aac7d9ac",
        "ea42851ee15cac6e60b86a72d3c468337c3904c502dad7e25dca20d03f822508"),
    2: ("173de2504628d54cdbf665f0e13671346e6d634d42247345aa6fdc46ff364f2b",
        "60fd6d76e921db8d7397e8c5f1846090b2e54fffeb01ace096dfabbab1448afe",
        "ae9c684e4725e50b1aa8736942ccdcdc753e348ae79434d59809c917c1f04968"),
    3: ("54a000eb36b85807aed941466fb4243ed5ec51445aa7ec51dbffd1d41d7dc95d",
        "8028822936213aff01590b85a41bdb283f2fbe6100a488e34fd40eb9e060f184",
        "a79a0c70cde92d7eecbc2a451bf63b2ff3d449fe2bcb8f957339f780d3cdc4bf"),
    4: ("1d10392f3d07cf787bb7d98b8aab4ccf1d9fc0bc7817f9a7ad2e48609965798d",
        "90d4eed67c6b0f524d420569d229561c2b11b19922fdd86ecbccd9411320802e",
        "fc1280b4b92bad9a335b7a1482271a4c68148d58e86676af42df6e4e766ea27b"),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_layout_free_views_pinned(k):
    inst = generate(k)
    g = inst.graph()
    edges = "".join(f"{g.labels[u]} {g.labels[v]}\n" for u, v in g.edges())
    crossing = "".join(" ".join(inst.members[i].id for i in ids) + "\n"
                       for _, ids in strip_hits(inst.members, inst.probes))
    report = "".join(line + "\n" for line in verify_properties(inst).lines())
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (edges, crossing, report))
    assert digests == _LAYOUT_FREE[k]


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
        mutated = BurlingInstance(inst.k, tuple(members), inst.probes, inst.tree)
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
                    for a, b in zip(poly.points, poly.points[1:]):
                        # direct scan: curves live in the closed upper
                        # half-plane, so the x-interval test is exact
                        if max(a.x, b.x) >= lo and min(a.x, b.x) <= hi:
                            hit = True
                if hit:
                    want.append(m.id)
            assert crossing_set(inst, probe) == want

    def test_replaced_instance_is_not_stale(self):
        # o.x's arm shortened to end at the left end of p0.x's own probe, left
        # of probe 0, in an instance made by dataclasses.replace from one that
        # was verified already
        inst = generate(2)
        assert verify_properties(inst).ok
        ox = inst.members[0]
        stem, corner, _ = ox.right.points
        arm = Polyline((stem, corner, P(inst.tree.inner[0].probe.x_lo, corner.y)),
                       ox.right.id)
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


# X_2 drawn on a grid _GRID times finer: every crafted strip end below lies
# beyond all curves or is an x of X_2 moved by less than _GRID, so it keeps
# its order against every x of the instance, and with it its hits, however
# tightly the generator packs them
_GRID = 4


def _x2_crafted():
    """X_2's members on the finer grid, and the crafted strips per case."""
    inst = generate(2)
    members = tuple(DoubleCurve(m.id, m.left.scaled(_GRID), m.right.scaled(_GRID))
                    for m in inst.members)
    ox, p0x, _ = members
    lo, stem, hi = ox.left.points[0].x, ox.right.points[0].x, ox.right.points[-1].x
    p0_left, p0_end = p0x.left.points[0].x, p0x.right.points[-1].x
    (a_lo, a_hi), (b_lo, _) = ((_GRID * p.x_lo, _GRID * p.x_hi) for p in inst.probes)
    strips = {
        # a probe, a strip from inside it to inside the other probe, one from
        # just left of that probe to past every curve, and one over o.x's left
        # part and stem
        "overlapping": [(a_lo, a_hi), (a_lo + 1, b_lo + 1), (b_lo - 1, hi + 1),
                        (lo - 1, stem + 1)],
        # a strip over everything, a probe holding a narrower strip, and two
        # strips left of every curve, one of them inside a strip past them all
        "nested": [(lo - 8, hi + 8), (a_lo, a_hi), (a_lo + 1, a_hi - 1),
                   (lo - 7, lo - 6), (lo - 5, hi + 16), (lo - 4, lo - 3)],
        # disjoint strips, each touching one x of a curve with one end: o.x's
        # arm end, left part and stem, then p0.x's arm end and left part
        "one-x-touch": [(hi, hi + 1), (lo - 1, lo), (stem - 1, stem),
                        (p0_end, p0_end + 1), (p0_left - 1, p0_left)],
    }
    return inst, members, strips


class TestStripHits:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_against_scan_on_probes(self, k):
        inst = generate(k)
        hits = strip_hits(inst.members, inst.probes)
        assert hits == _scan(inst.members, inst.probes)
        assert all(not left and crossing for left, crossing in hits)

    @pytest.mark.parametrize("case", ["nested", "one-x-touch", "overlapping"])
    def test_against_scan_on_crafted_strips(self, case):
        inst, members, strips = _x2_crafted()
        probes = tuple(Probe(lo, hi) for lo, hi in strips[case])
        crafted = dataclasses.replace(inst, members=members, probes=probes)
        want = _scan(crafted.members, probes)
        assert strip_hits(crafted.members, crafted.probes) == want
        # verify reports overlapping strips and left-part hits, in scan order
        checks = {c.name: c for c in verify_properties(crafted).checks}
        assert checks["probes-pairwise-disjoint"].ok == (case == "one-x-touch")
        bad = [(pi, members[i].id) for pi, (left, _) in enumerate(want) for i in left]
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
        _, members, strips = _x2_crafted()
        probes = [Probe(lo, hi) for lo, hi in strips["one-x-touch"]]
        ids = [tuple([members[i].id for i in hit] for hit in pair)
               for pair in strip_hits(members, probes)]
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
        monkeypatch.setattr(burling, "_proper", lambda g, w: w)
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
    """A one-probe layout over the strip [4/8, 6/8] with the given members,
    at the level-1 layout scale 2**3."""
    rm = [burling._RMember(f"m{i}", *coords) for i, coords in enumerate(members)]
    node = burling.BurlingNode(level=1, member_id="m0", probe=Probe(4, 6))
    return burling._RInst(tuple(rm), node), 4, 6


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
