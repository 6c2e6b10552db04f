import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from curvefam import cli, familyfile, families, reductions
from curvefam.errors import (
    BelowBaselineIntersectionError,
    CertificateError,
    ContractError,
    FamilyValidationError,
    ImproperCellColoring,
    IntervalCrossingError,
    PreconditionUnmet,
)
from curvefam.families import (
    CurveFamily,
    EvenCurve,
    FamilyKind,
    _restricted_families,
    decompose_even_curve,
    make_one_curve,
    member_intersections,
    pair_points,
    validate_lr,
)
from curvefam.geometry import Point as P, Polyline, position_of, subcurve
from curvefam.graphcore import (
    Coloring,
    build_graph,
    chromatic_number,
    graph_from_edges,
    is_proper,
)
from curvefam.reductions import (
    _containment_heights,
    color_cross_component,
    component_split,
    mcguinness_subgraph,
    nested_or_disjoint,
    product_color,
    rewire_semicircles,
    split_2t,
    two_t_product_coloring,
)
from generators import graph_with_chi_above, lr_family, two_t_family
from oracles import (
    connectivity_oracle,
    nested_or_disjoint_by_pairs,
    nesting_levels_by_pairs,
)


def two_curve(id, xl, xr, depth=1, top=2):
    return decompose_even_curve(
        Polyline((P(xl, top), P(xl, -depth), P(xr, -depth), P(xr, top)), id))


def hook(id, xl, ltop, xr, h, reach, depth):
    """2-curve with a vertical left part and a stem-plus-leftward-arm right part."""
    return decompose_even_curve(Polyline(
        (P(xl, ltop), P(xl, -depth), P(xr, -depth), P(xr, h), P(reach, h)), id))


class TestComponentSplit:
    def test_disjoint_pair_all_separate(self):
        fam = CurveFamily((two_curve("a", 0, 2), two_curve("b", 4, 6)),
                          FamilyKind.LR2)
        sp = component_split(fam)
        assert len(sp.components) == 4
        assert sp.f_diff == ("a", "b") and sp.f_same == ()

    def test_single_cross_pair_merges_one_component(self):
        # outer's arm crosses inner's left segment: L(inner) and R(outer) merge
        outer = hook("outer", 0, 2, 10, 5, 1, 2)
        inner = hook("inner", 2, 8, 8, 3, 4, 1)
        fam = CurveFamily((outer, inner), FamilyKind.LR2)
        assert validate_lr(fam).ok
        sp = component_split(fam)
        joined = [c for c in sp.components if len(c) == 2]
        assert joined == [frozenset({("inner", "L"), ("outer", "R")})]
        assert set(sp.f_diff) == {"inner", "outer"} and sp.f_same == ()

    def test_random_against_flood_fill(self):
        rng = random.Random(61)
        for _ in range(8):
            fam = lr_family(rng, max_members=12)
            sp = component_split(fam)
            polys = []
            keys = []
            for m in fam.members:
                polys.append(m.left)
                keys.append((m.id, "L"))
                polys.append(m.right)
                keys.append((m.id, "R"))
            labels = connectivity_oracle(polys)
            for i in range(len(keys)):
                for j in range(i + 1, len(keys)):
                    same_split = sp.comp_of[keys[i]] == sp.comp_of[keys[j]]
                    assert same_split == (labels[i] == labels[j])

    def test_f_same_intervals_nested_or_disjoint(self):
        # connected left/right parts force laminar intervals on that side
        rng = random.Random(67)
        seen_same = 0
        for _ in range(30):
            fam = lr_family(rng, max_members=16)
            sp = component_split(fam)
            if sp.f_same:
                seen_same += 1
                sub = CurveFamily(tuple(m for m in fam.members if m.id in sp.f_same),
                                  fam.kind, fam.t)
                ok, pair = nested_or_disjoint(sub)
                assert ok, pair
        assert seen_same > 0


class TestColorCrossComponent:
    def test_empty_f_diff(self):
        fam = CurveFamily((two_curve("a", 0, 2),), FamilyKind.LR2)
        sp = component_split(fam)
        synthetic = type(sp)(fam, sp.components, sp.comp_of, ("a",), ())
        res = color_cross_component(synthetic)
        assert res.coloring == {} and res.palette == 0

    def test_two_members_no_links_one_color(self):
        fam = CurveFamily((two_curve("a", 0, 2), two_curve("b", 4, 6)),
                          FamilyKind.LR2)
        res = color_cross_component(component_split(fam))
        assert res.palette == 1 and set(res.coloring) == {"a", "b"}

    def test_burling_derived_instances(self):
        from curvefam.burling import generate

        for k in (1, 2, 3):
            inst = generate(k)
            sp = component_split(inst)
            res = color_cross_component(sp)
            assert res.palette <= 4
            members = [m for m in inst.members if m.id in sp.f_diff]
            g = build_graph(members)
            lifted = Coloring(tuple(res.coloring[m.id] for m in members))
            ok, _ = is_proper(g, lifted)
            assert ok
            chi, _ = chromatic_number(g)
            assert chi <= 4

    def test_random_families_proper_and_small(self):
        rng = random.Random(71)
        for _ in range(10):
            fam = lr_family(rng, max_members=15)
            sp = component_split(fam)
            res = color_cross_component(sp)
            assert res.palette <= 4
            members = [m for m in fam.members if m.id in sp.f_diff]
            g = build_graph(members)
            ok, _ = is_proper(g, Coloring(tuple(res.coloring[m.id] for m in members)))
            assert ok

    @pytest.mark.parametrize("chain", [False, True])
    def test_aux_graph_is_planar(self, chain):
        # the exact 4-colouring of the component graph exists because that
        # graph is planar; networkx's planarity test checks it independently
        import networkx as nx

        rng = random.Random(73)
        aux_edges = 0
        for _ in range(12):
            aux = color_cross_component(component_split(
                lr_family(rng, max_members=30, chain=chain))).aux_graph
            g = nx.Graph()
            g.add_nodes_from(range(aux.n))
            g.add_edges_from(aux.edges())
            assert nx.check_planarity(g)[0]
            aux_edges += aux.m
        assert aux_edges > 0


class TestNestedOrDisjoint:
    def test_nested_true(self):
        fam = CurveFamily((two_curve("a", 0, 10), two_curve("b", 2, 8, depth=2)),
                          FamilyKind.LR2)
        ok, pair = nested_or_disjoint(fam)
        assert ok and pair is None

    def test_crossing_pair_reported(self):
        a = two_curve("a", 0, 6)
        b = two_curve("b", 4, 10, depth=3)
        fam = CurveFamily((a, b), FamilyKind.EVEN)
        ok, pair = nested_or_disjoint(fam)
        assert not ok and pair == ("a", "b")

    @staticmethod
    def _intervals(rng, n, laminar):
        """n members with random intervals; laminar ones are cut from a
        random forest, the others drawn freely, with shared ends now and
        then, a 1-curve's (x, x) among them."""
        if laminar:
            ivs, todo = [], [(0, 8 * n)]
            while todo and len(ivs) < n:
                lo, hi = todo.pop(rng.randrange(len(todo)))
                ivs.append((lo, hi))
                if hi - lo >= 2:
                    mid = rng.randint(lo + 1, hi - 1)
                    todo += [(a, b) for a, b in ((lo + 1, mid), (mid + 1, hi - 1)) if a <= b]
        else:
            ivs = []
            for _ in range(n):
                lo = rng.randint(0, 3 * n)
                ivs.append((lo, lo + rng.choice((0, rng.randint(1, 2 * n)))))
        rng.shuffle(ivs)
        return SimpleNamespace(members=tuple(SimpleNamespace(id=f"m{k}", interval=iv)
                                             for k, iv in enumerate(ivs)))

    def test_sweep_matches_pair_scan(self):
        rng = random.Random(211)
        fams = [lr_family(rng, max_members=40, chain=k % 4 == 0) for k in range(12)]
        fams += [self._intervals(rng, rng.randint(1, 30), laminar=k % 2 == 0)
                 for k in range(400)]
        crossing = 0
        for fam in fams:
            want = nested_or_disjoint_by_pairs(fam)
            assert nested_or_disjoint(fam) == want
            heights = _containment_heights(fam.members)
            if want[0]:
                assert ({m.id: h for m, h in zip(fam.members, heights)}
                        == nesting_levels_by_pairs(fam))
            else:
                crossing += 1
                assert heights is None
                with pytest.raises(IntervalCrossingError) as err:
                    rewire_semicircles(fam)
                assert err.value.args == IntervalCrossingError(*want[1]).args
        assert 100 < crossing < len(fams) - 100


class TestRewire:
    def test_single_member(self):
        fam = CurveFamily((two_curve("a", 0, 4),), FamilyKind.LR2)
        out = rewire_semicircles(fam)
        assert out.kind is FamilyKind.LR2 and len(out.members) == 1
        assert build_graph(out.members).m == 0

    def test_nested_depths(self):
        fam = CurveFamily((two_curve("a", 0, 10), two_curve("b", 2, 8, depth=2)),
                          FamilyKind.LR2)
        out = rewire_semicircles(fam)
        depths = {m.id: min(p.y for p in m.curve.points) for m in out.members}
        assert depths == {"a": -2, "b": -1}
        lows = {m.id: [p for p in m.curve.points if p.y < 0] for m in out.members}
        assert validate_lr(out).ok

    def test_single_four_curve(self):
        rng = random.Random(73)
        fam = two_t_family(rng, max_members=2)
        one = CurveFamily(fam.members[:1], FamilyKind.EVEN)
        out = rewire_semicircles(one)
        assert out.members[0].n_crossings == 2
        assert build_graph(out.members).m == 0

    def test_crossing_intervals_rejected(self):
        a = two_curve("a", 0, 6)
        b = two_curve("b", 4, 10, depth=3)
        fam = CurveFamily((a, b), FamilyKind.EVEN)
        with pytest.raises(IntervalCrossingError):
            rewire_semicircles(fam)

    def test_random_graph_preserved(self):
        rng = random.Random(79)
        for _ in range(15):
            fam = lr_family(rng, max_members=14)
            out = rewire_semicircles(fam)
            before = build_graph(fam.members)
            after = build_graph(out.members)
            assert before.labels == after.labels
            assert before.adj == after.adj
            assert validate_lr(out).ok


def split_by_subcurve(fam):
    """The two halves of split_2t (t >= 2) cut the way it cut them before it
    sliced the refined member: each cut parameter from position_of on the
    cut edge, each piece a subcurve between exact positions, decomposed
    again from scratch."""
    t = fam.t
    meets = [[] for _ in fam.members]
    for (i, j), hits in fam.pairs.items():
        for p, _, _ in hits:
            meets[i].append(p)
            meets[j].append(p)

    def events(curve, edge, hits):
        seg = Polyline(curve.points[edge:edge + 2])
        return [pos[1] for p in hits
                if (pos := position_of(seg, p)) is not None and 0 < pos[1] < 1]

    f1, f2 = [], []
    for m, hits in zip(fam.members, meets):
        pts = m.curve.points
        cross = [i for i in range(1, len(pts) - 1) if pts[i].y == 0]
        vi, vj = cross[2 * t - 2], cross[1]
        u = max(events(m.curve, vi - 1, hits), default=Fraction(0))
        f1.append(decompose_even_curve(
            subcurve(m.curve, (0, Fraction(0)), (vi - 1, (u + 1) / 2), m.id)))
        u = min(events(m.curve, vj, hits), default=Fraction(1))
        f2.append(decompose_even_curve(
            subcurve(m.curve, (vj, u / 2), (len(pts) - 2, Fraction(1)), m.id)))
    return [f1, f2]


class TestSplit2t:
    def test_t1_disjoint_pair(self):
        fam = CurveFamily((two_curve("a", 0, 2), two_curve("b", 4, 6)),
                          FamilyKind.TWO_T, 1)
        f1, f2 = split_2t(fam)
        assert f1.kind is FamilyKind.ONE_CURVE and f2.kind is FamilyKind.ONE_CURVE
        assert build_graph(f1.members).m == 0 and build_graph(f2.members).m == 0

    @pytest.mark.parametrize("slanted", [False, True])
    def test_t1_halves_are_make_one_curve_of_the_end_parts(self, slanted):
        # each member's halves are its left and right 1-curves as
        # make_one_curve stores them: endpoint first, basepoint last
        rng = random.Random(109)
        for _ in range(3):
            for fam in split_2t(two_t_family(rng, max_members=10, slanted=slanted)):
                f1, f2 = split_2t(fam)
                for m, h1, h2 in zip(fam.members, f1.members, f2.members):
                    for half, part in ((h1, m.left), (h2, m.right)):
                        want = make_one_curve(part)
                        assert half == want and repr(half) == repr(want)
                        assert (half.curve.points, half.id, half.cross) == (
                            want.curve.points, want.id, want.cross)
                        assert half.curve.points[0].y > 0 and half.curve.points[-1].y == 0

    def test_t2_basepoint_counts(self):
        rng = random.Random(83)
        fam = two_t_family(rng, max_members=5)
        f1, f2 = split_2t(fam)
        assert f1.kind is FamilyKind.TWO_T and f1.t == 1
        for m in list(f1.members) + list(f2.members):
            assert m.n_crossings == 2

    def test_t2_pieces_span_expected_crossings(self):
        rng = random.Random(89)
        fam = two_t_family(rng, max_members=5)
        f1, f2 = split_2t(fam)
        for orig, m1, m2 in zip(fam.members, f1.members, f2.members):
            xs = [p.x for p in orig.basepoints]
            assert [p.x for p in m1.basepoints] == xs[:2]
            assert [p.x for p in m2.basepoints] == xs[2:]

    def test_intersection_accounting(self):
        rng, slanted_rng = random.Random(97), random.Random(98)
        fams = [two_t_family(rng, max_members=10) for _ in range(6)]
        fams += [two_t_family(slanted_rng, max_members=10, t=t, slanted=True)
                 for t in (2, 3, 2, 3)]
        for fam in fams:
            f1, f2 = split_2t(fam)
            for i in range(len(fam.members)):
                for j in range(i + 1, len(fam.members)):
                    orig = set(member_intersections(fam.members[i], fam.members[j]))
                    pieces = set()
                    for A in (f1, f2):
                        for B in (f1, f2):
                            pieces |= set(member_intersections(A.members[i],
                                                               B.members[j]))
                    assert orig == pieces

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("slanted", [False, True])
    def test_pieces_match_subcurve_decomposition(self, t, slanted):
        rng = random.Random(100 + t)
        for _ in range(4):
            fam = two_t_family(rng, max_members=10, t=t, slanted=slanted)
            want = split_by_subcurve(fam)
            got = [list(half.members) for half in split_2t(fam)]
            assert got == want and repr(got) == repr(want)    # ints stay ints

    @pytest.mark.parametrize("slanted", [False, True])
    def test_t3_product_coloring_proper(self, slanted):
        rng = random.Random(107)
        for _ in range(3):
            fam = two_t_family(rng, max_members=10, t=3, slanted=slanted)
            coloring = two_t_product_coloring(fam)
            ok, _ = is_proper(fam.graph(),
                              Coloring(tuple(coloring[m.id] for m in fam.members)))
            assert ok

    def test_below_baseline_rejected(self):
        a = decompose_even_curve(Polyline(
            (P(0, 5), P(0, -2), P(4, -2), P(4, 3), P(8, 3), P(8, -2), P(10, -2),
             P(10, 5)), "a"))
        b = decompose_even_curve(Polyline(
            (P(2, 6), P(2, -1), P(6, -1), P(6, 4), P(12, 4), P(12, -1), P(14, -1),
             P(14, 6)), "b"))
        fam = CurveFamily((a, b), FamilyKind.TWO_T, 2)
        with pytest.raises(BelowBaselineIntersectionError):
            split_2t(fam)

    BELOW_BASELINE = {
        1: {"c": [(-1, 1), (16, 1), (16, -1), (17, -1), (17, 1)],
            "a": [(0, 5), (0, -2), (4, -2), (4, 5)],
            "b": [(2, 6), (2, -1), (6, -1), (6, 6)]},
        2: {"c": [(-1, 1), (16, 1), (16, -1), (17, -1), (17, 1), (18, 1), (18, -1),
                  (19, -1), (19, 1)],
            "a": [(0, 5), (0, -2), (4, -2), (4, 3), (8, 3), (8, -2), (10, -2), (10, 5)],
            "b": [(2, 6), (2, -1), (6, -1), (6, 4), (12, 4), (12, -1), (14, -1),
                  (14, 6)]},
    }

    @pytest.mark.parametrize("t", [1, 2])
    def test_below_baseline_raises_before_restriction(self, t, monkeypatch):
        # c meets a and b above the baseline, in the map's first pairs; a and
        # b then meet below it: the error names them and the point, and no
        # half family is built
        fam = CurveFamily(tuple(_curve(mid, *pts) for mid, pts in self.BELOW_BASELINE[t].items()),
                          FamilyKind.TWO_T, t)
        hits = [p for hits in fam.pairs.values() for p, _, _ in hits]
        assert min(hits[:4], key=lambda p: p.y).y > 0 and P(4, -1) in hits
        monkeypatch.setattr(reductions, "_with_pairs", lambda *args: pytest.fail("built"))
        with pytest.raises(BelowBaselineIntersectionError) as err:
            split_2t(fam)
        assert err.value.pair == ("a", "b") and err.value.point == P(4, -1)

    def test_wrong_kind_rejected(self):
        fam = CurveFamily((two_curve("a", 0, 2),), FamilyKind.LR2)
        with pytest.raises(ContractError):
            split_2t(fam)


class TestProductColor:
    def test_disjoint_members_single_color(self):
        fam = CurveFamily((two_curve("a", 0, 2), two_curve("b", 4, 6)),
                          FamilyKind.TWO_T, 1)
        res = product_color(fam, {"a": 0, "b": 0}, {"a": 0, "b": 0})
        assert res.palette == 1

    def test_cell_needing_two_colors(self):
        outer = hook("outer", 0, 2, 10, 5, 1, 2)
        inner = hook("inner", 2, 8, 8, 3, 4, 1)
        fam = CurveFamily((outer, inner), FamilyKind.TWO_T, 1)
        res = product_color(fam, {"outer": 0, "inner": 0},
                            {"outer": 0, "inner": 0})
        assert res.palette == 2
        assert res.bound == 2

    def test_improper_cell_colorer_rejected(self, monkeypatch):
        # a cell solver that puts one colour on the two meeting members: the
        # combined colouring's check catches it
        outer = hook("outer", 0, 2, 10, 5, 1, 2)
        inner = hook("inner", 2, 8, 8, 3, 4, 1)
        fam = CurveFamily((outer, inner), FamilyKind.TWO_T, 1)
        monkeypatch.setattr(reductions, "chromatic_number",
                            lambda g, budget=None: (1, Coloring((0,) * g.n)))
        with pytest.raises(ImproperCellColoring,
                           match=r"combined coloring improper on \('outer', 'inner'\)"):
            product_color(fam, {"outer": 0, "inner": 0}, {"outer": 0, "inner": 0})

    def test_missing_member_rejected(self):
        fam = CurveFamily((two_curve("a", 0, 2),), FamilyKind.TWO_T, 1)
        with pytest.raises(ContractError):
            product_color(fam, {}, {"a": 0})

    def test_recursive_coloring_proper_with_bound(self):
        rng = random.Random(101)
        for _ in range(5):
            fam = two_t_family(rng, max_members=12)
            coloring = two_t_product_coloring(fam)
            g = build_graph(fam.members)
            ok, _ = is_proper(g, Coloring(tuple(coloring[m.id] for m in fam.members)))
            assert ok


def _same_map(fam):
    """fam's pair map equals a fresh pair_points of its members, in order
    and with the same number types."""
    fresh = pair_points(fam.members)
    return fam.pairs == fresh and list(fam.pairs) == list(fresh) and repr(fam.pairs) == repr(fresh)


def _curve(mid, *pts):
    return decompose_even_curve(Polyline(tuple(P(x, y) for x, y in pts), mid))


class TestRestrictedPairMaps:
    """Subfamilies read their pair maps off their parent's; each equals a
    fresh pair_points of the same members."""

    @staticmethod
    def _seeded_families():
        rng = random.Random(311)
        for _ in range(4):
            lr = lr_family(rng, max_members=16)
            yield CurveFamily(lr.members, FamilyKind.TWO_T, 1)
            yield two_t_family(rng, max_members=16)

    def test_product_color_cells(self, monkeypatch):
        cells = []

        def record(fam):
            cells.append(fam)
            return validate_lr(fam)

        monkeypatch.setattr(reductions, "validate_lr", record)
        for fam in self._seeded_families():
            two_t_product_coloring(fam)
        assert len(cells) > 20 and any(len(c) > 2 for c in cells)
        for cell in cells:
            assert _same_map(cell)

    def test_one_curve_halves(self):
        for fam in self._seeded_families():
            halves = split_2t(fam) if fam.t == 1 else split_2t(split_2t(fam)[0])
            for half in halves:
                assert half.kind is FamilyKind.ONE_CURVE
                assert _same_map(half)

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("slanted", [False, True])
    def test_split_halves(self, t, slanted):
        # every split down the recursion: for t >= 3 the halves of each half
        # too, down to the 1-curve families; at t = 4 some hits lie strictly
        # between arches 2 and 2t - 2
        rng = random.Random(401 + t)
        for _ in range(4):
            todo, split = [two_t_family(rng, max_members=12, t=t, slanted=slanted)], 0
            while todo:
                fam = todo.pop()
                for half in split_2t(fam):
                    assert _same_map(half)
                    if half.kind is FamilyKind.TWO_T:
                        todo.append(half)
                split += 1
            assert split == 2 ** t - 1

    def test_split_halves_stored_reversed(self):
        # a's crossings along it lie at x = 6, 2, 8, 10 and c's at 20, 22,
        # 26, 24, so a's half 1 and c's half 2 are stored reversed, with L and
        # R swapped; b and d meet them on every arch above the baseline
        a = _curve("a", (6, 4), (6, -1), (2, -1), (2, 6), (8, 6), (8, -1), (10, -1), (10, 4))
        b = _curve("b", (0, 3), (11, 3), (11, -1), (12, -1), (12, 1), (13, 1), (13, -1),
                   (14, -1), (14, 2))
        c = _curve("c", (20, 5), (20, -1), (22, -1), (22, 5), (26, 5), (26, -1),
                   (24, -1), (24, 3))
        d = _curve("d", (30, 1), (30, -1), (31, -1), (31, 1), (32, 1), (32, -1),
                   (33, -1), (33, 2), (21, 2))
        fam = CurveFamily((a, b, c, d), FamilyKind.TWO_T, 2)
        h1, h2 = split_2t(fam)
        assert h1.members[0].curve.points[0] != a.curve.points[0]
        assert h2.members[2].curve.points[-1] != c.curve.points[-1]
        assert h1.pairs == {(0, 1): [(P(2, 3), "L", "L"), (P(6, 3), "R", "L"),
                                     (P(8, 3), "L", "L")]}
        assert h2.pairs == {(2, 3): [(P(22, 2), "R", "R"), (P(24, 2), "L", "R"),
                                     (P(26, 2), "R", "R")]}
        for half in (h1, h2):
            assert _same_map(half)
            for quarter in split_2t(half):
                assert _same_map(quarter)

    def test_arbitrary_partitions(self):
        rng = random.Random(313)
        for fam in self._seeded_families():
            labels = [rng.randrange(3) for _ in fam.members]
            groups = [[(i, m) for i, m in enumerate(fam.members) if labels[i] == c]
                      for c in range(3)]
            subs = _restricted_families(fam, groups)
            assert [len(s) for s in subs] == [len(g) for g in groups]
            for sub in subs:
                assert _same_map(sub)

    def test_cells_and_halves_run_kind_check(self, monkeypatch):
        # every family is built through CurveFamily, so split_2t's halves
        # and each restricted cell run _validate_kind once
        fam = two_t_family(random.Random(311), max_members=16)
        checked = []
        real = families._validate_kind
        monkeypatch.setattr(families, "_validate_kind",
                            lambda f: checked.append(f) or real(f))
        halves = split_2t(fam)
        assert len(checked) == 2 and all(c is h for c, h in zip(checked, halves))
        checked.clear()
        groups = [[(i, m) for i, m in enumerate(fam.members) if i % 3 == c] for c in range(3)]
        subs = _restricted_families(fam, groups)
        assert len(checked) == 3 and all(c is s for c, s in zip(checked, subs))
        for sub, group in zip(subs, groups):
            assert (sub.members, sub.kind, sub.t) == (tuple(m for _, m in group), fam.kind, fam.t)
            assert _same_map(sub)

    def test_product_color_builds_one_map(self, tmp_path, monkeypatch):
        # only the t = 2 family builds a map; its halves, the 1-curve
        # families and every cell restrict it
        rng = random.Random(7)
        fam = two_t_family(rng, max_members=20)
        while len(fam) != 20:
            fam = two_t_family(rng, max_members=20)
        path = str(tmp_path / "tt.json")
        familyfile.save(fam, path)
        built = []
        original = families.pair_points
        monkeypatch.setattr(families, "pair_points",
                            lambda members: built.append(len(members)) or original(members))
        assert cli.main(["reduce", "product-color", "--family", path,
                         "--out", str(tmp_path / "product.json")]) == 0
        assert built == [20]


class TestMcGuinness:
    def test_k5_natural_order(self):
        g = graph_from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        res = mcguinness_subgraph(g, list(range(5)), alpha=1, beta=1)
        # frozen outcome of the greedy procedure on K5: blocks {0,1},{2,3},{4},
        # best class keeps {0,2,4}, even blocks keep {0,4}
        assert res.blocks == ((0, 1), (2, 3), (4,))
        assert res.h_vertices == (0, 4)
        assert res.parity == "even"
        assert res.chi_h == 2
        assert res.edge_between_chi == {(0, 4): 3}

    def test_uncolorable_block_rejected(self, monkeypatch):
        # force the exact fallback for every block and make it fail
        decide = reductions.chromatic_decision
        monkeypatch.setattr(reductions, "greedy_coloring",
                            lambda g, order: Coloring(tuple(range(2, 2 + g.n))))
        monkeypatch.setattr(reductions, "chromatic_decision",
                            lambda g, c, budget: None if c == 2 else decide(g, c, budget))
        g = graph_from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        with pytest.raises(CertificateError):
            mcguinness_subgraph(g, list(range(5)), alpha=1, beta=1)

    def test_precondition_checked(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(PreconditionUnmet):
            mcguinness_subgraph(g, list(range(4)), alpha=1, beta=1)

    def test_bad_order_rejected(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(ContractError):
            mcguinness_subgraph(g, [0, 1, 1], alpha=1, beta=1)

    def test_random_graphs_postconditions(self):
        rng = random.Random(103)
        for _ in range(8):
            alpha, beta = rng.choice(((1, 1), (2, 1)))
            g = graph_with_chi_above(rng, (2 * beta + 2) * alpha)
            order = list(range(g.n))
            rng.shuffle(order)
            res = mcguinness_subgraph(g, order, alpha=alpha, beta=beta)
            assert res.chi_h > alpha
            assert all(chi > beta for chi in res.edge_between_chi.values())
            # H is an induced subgraph: verify chi_h independently
            chi, _ = chromatic_number(res.h_graph)
            assert chi == res.chi_h


class TestEvenCurveObjects:
    """Every EvenCurve the library builds equals field for field, and in its
    derived basepoints, interval and part runs, the one decompose_even_curve or
    make_one_curve gives for the same points."""

    @staticmethod
    def _reference(m) -> EvenCurve:
        curve = Polyline(m.curve.points, m.id)
        return make_one_curve(curve) if len(m.basepoints) == 1 else decompose_even_curve(curve)

    def _check(self, fam) -> int:
        for m in fam.members:
            ref = self._reference(m)
            assert type(m) is EvenCurve
            for f in dataclasses.fields(EvenCurve):
                mine, theirs = getattr(m, f.name), getattr(ref, f.name)
                assert type(mine) is type(theirs) and mine == theirs, (m.id, f.name)
            assert repr(m) == repr(ref)
            for view in ("basepoints", "interval"):
                assert repr(getattr(m, view)) == repr(getattr(ref, view)), (m.id, view)
            assert repr(m.part_runs()) == repr(ref.part_runs()), m.id
        return len(fam.members)

    @staticmethod
    def _loaded(tmp_path, fam, name):
        path = str(tmp_path / f"{name}.json")
        familyfile.save(fam, path)
        return familyfile.load(path)

    def _split_down(self, fam) -> int:
        """Check fam and every family that splitting it toward 1-curves
        gives (halves, quarters, ...); the number of members checked."""
        n = self._check(fam)
        if fam.kind is FamilyKind.TWO_T:
            for half in split_2t(fam):
                n += self._split_down(half)
        return n

    def test_frozen_hashable_without_dict(self):
        m = two_curve("a", 0, 4)
        assert [f.name for f in dataclasses.fields(EvenCurve)] == ["curve", "cross"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.cross = (1, 2)
        assert not hasattr(m, "__dict__")
        again = two_curve("a", 0, 4)
        assert again == m and hash(again) == hash(m) and len({m, again}) == 1

    def test_loaded_and_rewired_lr(self, tmp_path):
        rng = random.Random(401)
        for i in range(4):
            fam = self._loaded(tmp_path, lr_family(rng, max_members=14), f"lr{i}")
            assert self._check(fam) == len(fam)
            assert self._check(rewire_semicircles(fam)) == len(fam)

    @pytest.mark.parametrize("t, slanted", [(2, False), (2, True), (3, False), (3, True)])
    def test_loaded_and_split_two_t(self, tmp_path, t, slanted):
        rng = random.Random(403 + t)
        for i in range(3):
            made = two_t_family(rng, max_members=8, t=t, slanted=slanted)
            fam = made if slanted else self._loaded(tmp_path, made, f"tt{i}")
            # the family and its halves, quarters, ... down to the 1-curves
            assert self._split_down(fam) == len(fam) * (2 ** (t + 1) - 1)

    def test_loaded_even_family(self, tmp_path):
        rng = random.Random(409)
        for i in range(3):
            made = two_t_family(rng, max_members=8)
            fam = self._loaded(tmp_path, CurveFamily(made.members, FamilyKind.EVEN), f"ev{i}")
            assert fam.kind is FamilyKind.EVEN and self._check(fam) == len(fam)


def test_derived_families_keep_scale():
    fam = CurveFamily(two_t_family(random.Random(9), max_members=6).members,
                      FamilyKind.TWO_T, 2, 5)
    halves = split_2t(fam)
    quarters = [q for h in halves for q in split_2t(h)]
    groups = [[(i, m) for i, m in enumerate(fam.members) if i % 2 == c] for c in range(2)]
    cells = _restricted_families(fam, groups)
    lr = lr_family(random.Random(13), max_members=8)
    rewired = rewire_semicircles(CurveFamily(lr.members, FamilyKind.LR2, None, 5))
    assert [f.scale for f in (*halves, *quarters, *cells, rewired)] == [5] * 9


@pytest.mark.parametrize("scale", [0, -2, True, 1.0])
def test_scale_must_be_a_positive_int(scale):
    with pytest.raises(FamilyValidationError, match="scale must be a positive integer"):
        CurveFamily((two_curve("a", 0, 2),), FamilyKind.LR2, None, scale)
