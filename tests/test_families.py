import itertools
import random

import pytest

from curvefam.errors import ContractError, FamilyValidationError, OddCrossingError, OverlapError
from curvefam.families import (
    ChainCandidate,
    CurveFamily,
    FamilyKind,
    decompose_even_curve,
    is_chain,
    make_one_curve,
    member_intersections,
    pair_points,
    subfamily_between,
    subfamily_on_interval,
    validate_lr,
    xi_of_family,
)
from curvefam.geometry import Point as P, Polyline, segments_intersect
from generators import lr_family, two_t_family

SIX_CURVE = Polyline((P(0, 3), P(0, -1), P(1, -1), P(1, 1), P(2, 1), P(2, -1),
                      P(3, -1), P(3, 1), P(4, 1), P(4, -1), P(5, -1), P(5, 3)),
                     "six")


def two_curve(id, xl, xr, depth=1, top=2):
    return decompose_even_curve(
        Polyline((P(xl, top), P(xl, -depth), P(xr, -depth), P(xr, top)), id))


class TestDecompose:
    def test_basic_two_curve(self):
        ec = decompose_even_curve(Polyline((P(0, 2), P(0, -1), P(3, -1), P(3, 2)), "c"))
        assert ec.left.points[0] == P(0, 2) and ec.left.points[-1] == P(0, 0)
        assert ec.right.points[0] == P(3, 0) and ec.right.points[-1] == P(3, 2)
        assert ec.interval == (0, 3)

    def test_six_curve_middle_has_four_interior_basepoints(self):
        ec = decompose_even_curve(SIX_CURVE)
        interior = [p for p in ec.middle.points[1:-1] if p.y == 0]
        assert len(interior) == 4
        assert len(ec.basepoints) == 6

    def test_orientation_canonicalized(self):
        rev = decompose_even_curve(Polyline((P(3, 2), P(3, -1), P(0, -1), P(0, 2)), "r"))
        assert rev.left.points[-1].x == 0
        assert rev.interval == (0, 3)

    def test_reconstruction_vertex_for_vertex(self):
        rng = random.Random(11)
        for _ in range(5):
            fam = two_t_family(rng, max_members=6)
            for ec in fam.members:
                recon = (list(ec.left.points) + list(ec.middle.points[1:])
                         + list(ec.right.points[1:]))
                assert tuple(recon) == ec.curve.points

    def test_interval_matches_end_basepoints(self):
        rng = random.Random(13)
        fam = lr_family(rng, max_members=12)
        for ec in fam.members:
            assert ec.interval == (ec.left.points[-1].x, ec.right.points[0].x)
            assert ec.interval[0] < ec.interval[1]

    def test_zero_crossings_rejected(self):
        with pytest.raises(OddCrossingError):
            decompose_even_curve(Polyline((P(0, 1), P(4, 1)), "flat"))

    def test_one_curve_input_rejected(self):
        with pytest.raises(OddCrossingError):
            decompose_even_curve(Polyline((P(0, 0), P(0, 3)), "one"))


class TestOneCurve:
    def test_wrap(self):
        oc = make_one_curve(Polyline((P(5, 0), P(5, 3)), "one"))
        assert oc.is_one_curve and oc.interval == (5, 5) and oc.middle is None

    def test_orientation_normalized(self):
        oc = make_one_curve(Polyline((P(5, 3), P(5, 0)), "one"))
        assert oc.curve.points[-1] == P(5, 0)

    def test_two_baseline_endpoints_rejected(self):
        with pytest.raises(ContractError):
            make_one_curve(Polyline((P(0, 0), P(2, 3), P(4, 0)), "cap"))


class TestFamilyValidation:
    def test_duplicate_basepoints_rejected(self):
        a = two_curve("a", 0, 4)
        b = two_curve("b", 4, 8)
        with pytest.raises(FamilyValidationError):
            CurveFamily((a, b), FamilyKind.EVEN)

    def test_two_t_count_enforced(self):
        a = two_curve("a", 0, 4)
        with pytest.raises(FamilyValidationError):
            CurveFamily((a,), FamilyKind.TWO_T, 2)

    def test_unique_ids(self):
        a = two_curve("a", 0, 4)
        b = two_curve("a", 6, 8)
        with pytest.raises(FamilyValidationError):
            CurveFamily((a, b), FamilyKind.EVEN)


class TestValidateLR:
    def test_disjoint_pair_certificate(self):
        res = validate_lr([two_curve("a", 0, 2), two_curve("b", 4, 6)])
        assert res.ok and res.checked_pairs == 1 and not res.violations

    def test_middle_violation_named(self):
        # a 4-curve whose above-baseline hump is crossed by the other's left part
        hump = decompose_even_curve(Polyline(
            (P(0, 5), P(0, -1), P(1, -1), P(1, 3), P(6, 3), P(6, -1), P(7, -1),
             P(7, 5)), "hump"))
        tall = decompose_even_curve(Polyline(
            (P(3, 6), P(3, -3), P(4, -3), P(4, 6)), "tall"))
        res = validate_lr([hump, tall])
        assert not res.ok
        parts = {(v.part1, v.part2) for v in res.violations}
        assert ("M", "L") in parts or ("L", "M") in parts
        line = res.report_lines()[0]
        assert "hump" in line and "tall" in line

    def test_generated_families_certified(self):
        rng = random.Random(17)
        res = validate_lr(lr_family(rng, max_members=15))
        assert res.ok

    def test_certificate_implies_no_point_on_middles(self):
        from curvefam.geometry import point_on_polyline

        rng = random.Random(19)
        for _ in range(5):
            fam = lr_family(rng, max_members=12)
            assert validate_lr(fam).ok
            ms = fam.members
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    for p in member_intersections(ms[i], ms[j]):
                        assert not point_on_polyline(p, ms[i].middle)
                        assert not point_on_polyline(p, ms[j].middle)

    def test_burling_instances_with_part_classification(self):
        from curvefam.burling import generate

        # brute-force side classification: a left part is a vertical segment
        # at its basepoint x, so a point is on it iff the x matches and the
        # y falls within the segment, decidable by direct comparison
        def on_left(m, p):
            foot, top = m.left.points
            return p.x == foot.x and 0 <= p.y <= top.y

        for k in (2, 3):
            inst = generate(k)
            res = validate_lr(inst.members)
            assert res.ok
            for m1, m2 in itertools.combinations(inst.members, 2):
                for p in member_intersections(m1, m2):
                    assert on_left(m1, p) != on_left(m2, p)


class TestPairPoints:
    """The swept pair map against a brute-force map over all pairs."""

    @staticmethod
    def check(members):
        from curvefam.geometry import point_on_polyline

        # brute force: every part through p, in "LMR" order; a 1-curve's
        # left and right are one polyline, so it reads "LR"
        def on(m, p):
            parts = (("L", m.left), ("M", getattr(m, "middle", None)), ("R", m.right))
            return "".join(name for name, poly in parts
                           if poly is not None and point_on_polyline(p, poly))

        ms = list(members)
        want = {}
        for i, j in itertools.combinations(range(len(ms)), 2):
            pts = member_intersections(ms[i], ms[j])
            if pts:
                want[(i, j)] = [(p, on(ms[i], p), on(ms[j], p)) for p in pts]
        got = pair_points(ms)
        assert got == want and list(got) == sorted(got)
        return got

    def test_seeded_lr_and_two_t_families(self):
        rng = random.Random(83)
        for _ in range(6):
            fam = lr_family(rng, max_members=25)
            assert self.check(fam.members) == fam.pairs
            fam = two_t_family(rng, max_members=15)
            assert self.check(fam.members) == fam.pairs

    def test_one_curve_families(self):
        from curvefam.reductions import split_2t

        rng = random.Random(89)
        labels = set()
        for _ in range(4):
            for half in split_2t(two_t_family(rng, max_members=15)):
                for ones in split_2t(half):
                    assert ones.kind is FamilyKind.ONE_CURVE
                    pairs = self.check(ones.members)
                    assert pairs == ones.pairs
                    labels.update(on for hits in pairs.values()
                                  for _, *ons in hits for on in ons)
        assert labels == {"LR"}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_probe_construction(self, k):
        from curvefam.burling import generate

        inst = generate(k)
        assert self.check(inst.members) == inst.pairs

    def test_extents_touching_at_one_x(self):
        # the arm of a ends at x = 6 on the left segment of b, whose box
        # starts at x = 6; b comes first, so the sweep meets the pair as (a, b)
        a = decompose_even_curve(Polyline(
            (P(0, 2), P(0, -1), P(3, -1), P(3, 4), P(6, 4)), "a"))
        b = two_curve("b", 6, 8, top=5)
        far = two_curve("far", 10, 12)
        assert self.check([b, a, far]) == {(0, 1): [(P(6, 4), "L", "R")]}

    def test_equal_extents(self):
        a = two_curve("a", 0, 10, top=3)
        b = decompose_even_curve(Polyline(
            (P(0, 6), P(2, 6), P(2, -2), P(8, -2), P(8, 1), P(10, 1)), "b"))
        assert self.check([a, b]) == {(0, 1): [
            (P(2, -1), "M", "M"), (P(8, -1), "M", "M"), (P(10, 1), "R", "R")]}

    def test_overlap_names_first_pair_in_input_order(self):
        # C shares a bottom segment with both A and B; the sweep reaches
        # (B, C) first, but (A, C) comes first in input order
        A = two_curve("A", 11, 14)
        B = two_curve("B", 1, 4)
        C = two_curve("C", 0, 15, top=3)
        for run in (pair_points, validate_lr):
            with pytest.raises(OverlapError, match="'A' and 'C'"):
                run([A, B, C])


class TestSubfamilies:
    def make_family(self):
        return CurveFamily((two_curve("a", 2, 3), two_curve("b", 4, 5),
                            two_curve("c", 11, 12)), FamilyKind.LR2)

    def one(self, id, x):
        return make_one_curve(Polyline((P(x, 0), P(x, 1)), id))

    def test_between_basic(self):
        fam = self.make_family()
        got = subfamily_between(fam, self.one("x", 0), self.one("y", 10))
        assert got.ids() == ["a", "b"]

    def test_between_swapped(self):
        fam = self.make_family()
        got = subfamily_between(fam, self.one("y", 10), self.one("x", 0))
        assert got.ids() == ["a", "b"]

    def test_between_shared_basepoint_rejected(self):
        fam = self.make_family()
        with pytest.raises(ContractError):
            subfamily_between(fam, self.one("x", 2), self.one("y", 10))

    def test_on_interval(self):
        fam = self.make_family()
        assert subfamily_on_interval(fam, (1, 6)).ids() == ["a", "b"]
        assert subfamily_on_interval(fam, (3, 12)).ids() == ["b", "c"]  # a straddles
        assert subfamily_on_interval(fam, (11, 12)).ids() == ["c"]

    def test_randomized_against_filter_oracle(self):
        rng = random.Random(23)
        for _ in range(10):
            fam = lr_family(rng, max_members=14)
            xs = sorted(x for m in fam.members for x in m.basepoint_xs())
            lo = rng.randint(int(xs[0]) - 1, int(xs[-1]))
            hi = rng.randint(lo, int(xs[-1]) + 1)
            got = {m.id for m in subfamily_on_interval(fam, (lo, hi))}
            want = {m.id for m in fam.members
                    if all(lo <= v <= hi for v in m.basepoint_xs())}
            assert got == want

    def test_idempotent_and_monotone(self):
        rng = random.Random(29)
        fam = lr_family(rng, max_members=14)
        inner = subfamily_on_interval(fam, (3, 20))
        assert subfamily_on_interval(inner, (3, 20)).ids() == inner.ids()
        wider = subfamily_on_interval(fam, (0, 40))
        assert set(inner.ids()) <= set(wider.ids())


def star_fixture():
    """One tall-left member crossed by three pairwise disjoint outer arms."""
    center = decompose_even_curve(Polyline(
        (P(10, 8), P(10, -2), P(12, -2), P(12, 3), P(11, 3)), "center"))
    outers = []
    for i in (1, 2, 3):
        lo, hi = 10 - 2 * i, 12 + 2 * i
        depth = 2 * (i + 1)
        outers.append(decompose_even_curve(Polyline(
            (P(lo, 2), P(lo, -depth), P(hi, -depth), P(hi, 3 + i), P(lo + 1, 3 + i)),
            f"o{i}")))
    return CurveFamily((center, *outers), FamilyKind.LR2)


class TestXi:
    def test_disjoint_family_is_zero(self):
        fam = CurveFamily((two_curve("a", 0, 1), two_curve("b", 4, 5)),
                          FamilyKind.LR2)
        assert xi_of_family(fam) == 0

    def test_star_is_one(self):
        fam = star_fixture()
        assert validate_lr(fam).ok
        assert xi_of_family(fam) == 1

    def test_exhaustive_neighborhood_cross_check(self):
        from curvefam.graphcore import build_graph

        def brute_chi(g):
            if g.n == 0:
                return 0
            for c in range(1, g.n + 1):
                for assign in itertools.product(range(c), repeat=g.n):
                    if all(assign[u] != assign[v] for u, v in g.edges()):
                        return c

        for fam in (dipped_x2(), lr_family(random.Random(41), max_members=9, chain=True)):
            g = build_graph(fam.members)
            want = 0
            for v in range(g.n):
                nbrs = [u for u in range(g.n) if g.has_edge(u, v)]
                from curvefam.graphcore import induced_subgraph
                sub, _ = induced_subgraph(g, nbrs)
                want = max(want, brute_chi(sub) or 0)
            assert xi_of_family(fam) == want

    def test_monotone_under_member_removal(self):
        rng = random.Random(43)
        fam = lr_family(rng, max_members=10, chain=True)
        full = xi_of_family(fam)
        for drop in range(len(fam.members)):
            rest = tuple(m for i, m in enumerate(fam.members) if i != drop)
            smaller = CurveFamily(rest, fam.kind, fam.t)
            assert xi_of_family(smaller) <= full


def dipped_x2():
    """The level-2 instance with middles added as below-baseline dips."""
    from curvefam.burling import generate
    from curvefam.reductions import rewire_semicircles

    inst = generate(2)
    members = []
    for m in inst.members:
        bl, br = m.left.points[0], m.right.points[0]
        pts = (tuple(reversed(m.left.points)) + (P(bl.x, -1), P(br.x, -1))
               + tuple(m.right.points))
        members.append(decompose_even_curve(Polyline(pts, m.id)))
    fam = CurveFamily(tuple(members), FamilyKind.EVEN)
    return rewire_semicircles(fam)


class TestChain:
    def chain_family(self):
        # two nested members whose right/left 1-curves cross at (8, 6)
        outer = decompose_even_curve(Polyline(
            (P(0, 4), P(0, -4), P(20, -4), P(20, 6), P(7, 6)), "outer"))
        inner = decompose_even_curve(Polyline(
            (P(8, 8), P(8, -2), P(14, -2), P(14, 2), P(13, 2)), "inner"))
        return CurveFamily((outer, inner), FamilyKind.LR2)

    def test_length_one_needs_only_crossing(self):
        fam = self.chain_family()
        outer, inner = fam.members
        # right(outer) is the arm over the top; left(inner) the tall segment
        assert segments_intersect(outer.right, inner.left)
        res = is_chain(fam, ChainCandidate(((outer, inner),)))
        assert res.ok and res.violation is None

    def test_crossing_clause_violated(self):
        fam = CurveFamily((two_curve("a", 0, 2), two_curve("b", 4, 6)),
                          FamilyKind.LR2)
        a, b = fam.members
        res = is_chain(fam, ChainCandidate(((a, b),)))
        assert not res.ok and res.violation.clause == 1 and res.violation.index == 1

    def test_nesting_clause_violated(self):
        fam = self.chain_family()
        outer, inner = fam.members
        # second pair repeats the first: its basepoints cannot lie strictly
        # inside the first pair's, so clause 2 fails at i = 2
        res = is_chain(fam, ChainCandidate(((outer, inner), (outer, inner))))
        assert not res.ok
        assert res.violation.clause == 2 and res.violation.index == 2
        assert res.repeats

    def test_membership_required(self):
        fam = self.chain_family()
        stranger = two_curve("zz", 100, 101)
        with pytest.raises(ContractError):
            is_chain(fam, ChainCandidate(((fam.members[0], stranger),)))

    def test_randomized_against_independent_reimplementation(self):
        rng = random.Random(47)
        for _ in range(20):
            fam = lr_family(rng, max_members=10, chain=True)
            ms = list(fam.members)
            pairs = []
            for _ in range(rng.randint(1, 3)):
                pairs.append((rng.choice(ms), rng.choice(ms)))
            cand = ChainCandidate(tuple(pairs))
            res = is_chain(fam, cand)

            def bp(oc):
                pts = oc.points
                return pts[-1].x if pts[-1].y == 0 else pts[0].x

            ok = True
            for i, (a, b) in enumerate(pairs, start=1):
                if not segments_intersect(a.right, b.left):
                    ok = False
                    break
                if i >= 2:
                    pa, pb = pairs[i - 2]
                    lo, hi = sorted((bp(pa.right), bp(pb.left)))
                    if not (lo < bp(a.right) < hi and lo < bp(b.left) < hi):
                        ok = False
                        break
                    back_a = all(segments_intersect(a.left, pairs[j][0].right)
                                 for j in range(i - 1))
                    back_b = all(segments_intersect(b.right, pairs[j][1].left)
                                 for j in range(i - 1))
                    if not (back_a or back_b):
                        ok = False
                        break
            assert res.ok == ok
