import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvefam import geometry
from curvefam.errors import (
    ContractError,
    CurvefamError,
    FamilyValidationError,
    OddCrossingError,
    OverlapError,
)
from curvefam.families import (
    CurveFamily,
    EvenCurve,
    FamilyKind,
    decompose_even_curve,
    make_one_curve,
    member_intersections,
    pair_points,
    refine_at_crossings,
    validate_lr,
    xi_of_family,
)
from curvefam.geometry import Point as P, Polyline
from generators import lr_family, two_t_family
from oracles import decompose_by_passes

SIX_CURVE = Polyline((P(0, 3), P(0, -1), P(1, -1), P(1, 1), P(2, 1), P(2, -1),
                      P(3, -1), P(3, 1), P(4, 1), P(4, -1), P(5, -1), P(5, 3)),
                     "six")


def two_curve(id, xl, xr, depth=1, top=2):
    return decompose_even_curve(
        Polyline((P(xl, top), P(xl, -depth), P(xr, -depth), P(xr, top)), id))


def _outcome(decompose, c):
    """(error type, message) or (curve, basepoints, parts, interval)."""
    try:
        ec = decompose(c)
    except CurvefamError as e:
        return type(e), str(e)
    if isinstance(ec, EvenCurve):           # the oracle gives a plain record
        ec = (ec.curve, ec.basepoints, ec.part_runs(), ec.interval)
    return tuple(ec)


def _coords(limit):
    return st.one_of(st.integers(-limit, limit),
                     st.fractions(-limit, limit, max_denominator=3))


@st.composite
def _polylines(draw, max_points):
    """Free-form polylines, or x-monotone ones (always simple) in either
    direction; many end on, dip below or touch the baseline."""
    n = draw(st.integers(2, max_points))
    y = st.sampled_from([0, 1, 2, -1, -2]) | _coords(3)
    end_y = st.integers(1, 3) | st.integers(1, 3) | y      # mostly above
    ys = [draw(end_y)] + draw(st.lists(y, min_size=n - 2, max_size=n - 2)) + [draw(end_y)]
    if draw(st.booleans()):
        xs = sorted(draw(st.sets(_coords(6), min_size=n, max_size=n)))
        if draw(st.booleans()):
            xs.reverse()
    else:
        xs = draw(st.lists(_coords(3), min_size=n, max_size=n))
    pts = [P(x, y) for x, y in zip(xs, ys)]
    pts = [p for k, p in enumerate(pts) if k == 0 or p != pts[k - 1]]
    assume(len(pts) >= 2)
    return Polyline(tuple(pts), "c")


class TestDecomposeAgainstPasses:
    """decompose_even_curve's single scan against the multi-pass oracle:
    the same error type and message, or the same anatomy, int for int."""

    MALFORMED = [
        ((0, 1), (0, 0), (2, 0), (2, 1)),             # edge on the baseline
        ((0, 0), (1, 1), (2, 0)),                     # both endpoints on it
        ((0, -1), (0, 1), (1, -1), (1, 1)),           # endpoint below it
        ((0, 1), (1, 0), (2, 1), (2, -1), (3, 1)),    # tangency
        ((0, 1), (0, -1)),                            # one crossing
        ((0, 1), (1, 2)),                             # no crossing
        ((0, 0), (0, 2)),                             # a 1-curve
        ((0, 2), (2, -1), (2, 1), (0, -1), (-1, 3)),  # self-intersecting
        ((0, 1), (0, -1), (1, -1), (1, 1), (2, 1), (2, -1), (3, -1), (3, 1),
         (4, 1), (4, -1)),                            # endpoint below, 5 crossings
    ]

    @pytest.mark.parametrize("shape", MALFORMED)
    def test_malformed_shapes(self, shape):
        c = Polyline(tuple(P(*xy) for xy in shape), "bad")
        got = _outcome(decompose_even_curve, c)
        assert isinstance(got[0], type)             # it is rejected
        assert got == _outcome(decompose_by_passes, c)

    @pytest.mark.parametrize("shape", [
        ((0, 1), (2, -2), (5, -2), (4, 3)),           # crossings at 2/3 and 22/5
        ((4, 3), (5, -2), (2, -2), (0, 1)),           # the same, reversed
        ((0, 1), (0, -1), (1, -1), (1, 1), (2, 1), (2, -1), (3, -1), (3, 1)),
    ])
    def test_off_grid_and_reversed(self, shape):
        c = Polyline(tuple(P(*xy) for xy in shape), "c")
        got = _outcome(decompose_even_curve, c)
        assert isinstance(got[0], Polyline)
        assert got == _outcome(decompose_by_passes, c)
        assert repr(got) == repr(_outcome(decompose_by_passes, c))

    @settings(max_examples=400, deadline=None)
    @given(_polylines(8))
    def test_random_polylines(self, c):
        got = _outcome(decompose_even_curve, c)
        assert got == _outcome(decompose_by_passes, c)
        assert repr(got) == repr(_outcome(decompose_by_passes, c))

    @settings(max_examples=200, deadline=None)
    @given(_polylines(6))
    def test_random_polylines_at_a_small_cap(self, c):
        # A curve at the cap whose refinement exceeds it must fail alike.
        with mock.patch.object(geometry, "MAX_POLYLINE_VERTICES", len(c.points)):
            got = _outcome(decompose_even_curve, c)
            assert got == _outcome(decompose_by_passes, c)

    def test_cap_exceeded_by_refinement(self):
        zigzag = [P(0, 1), P(1, -1), P(2, 1), P(3, -1), P(4, 1), P(5, 2)]
        c = Polyline(tuple(zigzag), "z")
        with mock.patch.object(geometry, "MAX_POLYLINE_VERTICES", len(zigzag)):
            with pytest.raises(ContractError, match="vertex cap"):
                decompose_even_curve(c)
            with pytest.raises(ContractError, match="vertex cap"):
                decompose_by_passes(c)

    def test_refinement_past_the_real_cap(self):
        n = geometry.MAX_POLYLINE_VERTICES
        zigzag = [P(x, 1 if x % 2 == 0 else -1) for x in range(n - 1)]
        c = Polyline(tuple(zigzag) + (P(n, 2),), "z")
        with pytest.raises(ContractError, match="vertex cap"):
            refine_at_crossings(c)


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
        assert oc.basepoints == (P(5, 0),) and oc.interval == (5, 5) and oc.middle is None

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

    @pytest.mark.parametrize("kind", [k for k in FamilyKind if k is not FamilyKind.TWO_T])
    def test_t_only_on_two_t(self, kind):
        with pytest.raises(FamilyValidationError, match=f"a {kind.value} family takes no t"):
            CurveFamily((), kind, 3)

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

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_slanted_two_t_families(self, t):
        # crossings, with the baseline and between members, off the grid
        rng = random.Random(90 + t)
        for _ in range(4):
            fam = two_t_family(rng, max_members=12, t=t, slanted=True)
            assert any(type(p.x) is Fraction for m in fam.members for p in m.basepoints)
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
                nbrs = [u for u in range(g.n) if (g.adj[u] >> v) & 1]
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
