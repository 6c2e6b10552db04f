import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvefam.burling import DoubleCurve, Probe
from curvefam.errors import (
    CollinearError,
    ContractError,
    GeometryError,
    OverlapError,
    TangencyError,
)
from curvefam.families import make_one_curve, refine_at_crossings
from curvefam.geometry import (
    CapCurve,
    Point as P,
    Polyline,
    Region,
    SegRelation,
    baseline_crossings_along,
    orientation,
    polyline_meets_vstrip,
    polylines_disjoint,
    region_of,
    segment_intersection,
    segment_meets_vstrip,
    segments_intersect,
    subcurve,
    validate_simple,
)
from oracles import (
    collinear_overlap,
    region_oracle,
    segment_meets_vstrip_by_fractions,
    segments_touch_oracle,
)

COORD = st.integers(min_value=0, max_value=10)


def seg(a, b, c, d, id=""):
    return Polyline((P(a, b), P(c, d)), id)


class TestSegmentsIntersect:
    def test_perpendicular_cross(self):
        assert segments_intersect(seg(0, 1, 2, 1), seg(1, 0, 1, 2)) == [P(1, 1)]

    def test_parallel_disjoint(self):
        assert segments_intersect(seg(0, 1, 2, 1), seg(0, 2, 2, 2)) == []

    def test_diagonal_cross_and_shift(self):
        a = seg(0, 0, 4, 4)
        b = seg(0, 4, 4, 0)
        assert segments_intersect(a, b) == [P(2, 2)]
        assert segments_touch_oracle(((0, 0), (4, 4)), ((0, 4), (4, 0)), 14)
        b_shift = seg(10, 4, 14, 0)
        assert segments_intersect(a, b_shift) == []
        assert not segments_touch_oracle(((0, 0), (4, 4)), ((10, 4), (14, 0)), 14)

    def test_half_integer_crossing_is_exact(self):
        pts = segments_intersect(seg(0, 0, 1, 1), seg(1, 0, 0, 1))
        assert pts == [P(Fraction(1, 2), Fraction(1, 2))]

    def test_endpoint_touch_counts(self):
        assert segments_intersect(seg(0, 0, 2, 2), seg(2, 2, 4, 0)) == [P(2, 2)]

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            segments_intersect(seg(0, 0, 4, 0), seg(2, 0, 6, 0))

    @pytest.mark.parametrize("p1, p2, q1, q2, want", [
        # collinear pairs, horizontal then vertical; the box tests of the
        # pair loops drop the disjoint ones before this exact test
        (P(0, 1), P(2, 1), P(3, 1), P(5, 1), (SegRelation.DISJOINT, None)),
        (P(4, 0), P(4, 2), P(4, 6), P(4, 3), (SegRelation.DISJOINT, None)),
        (P(0, 1), P(2, 1), P(5, 1), P(2, 1), (SegRelation.POINT, P(2, 1))),
        (P(0, 1), P(4, 1), P(5, 1), P(2, 1), (SegRelation.OVERLAP, (P(2, 1), P(4, 1)))),
        (P(4, 5), P(4, 0), P(4, 2), P(4, 9), (SegRelation.OVERLAP, (P(4, 2), P(4, 5)))),
    ])
    def test_collinear_segments(self, p1, p2, q1, q2, want):
        assert segment_intersection(p1, p2, q1, q2) == want
        assert segment_intersection(q2, q1, p2, p1) == want

    def test_shared_point_counted_once(self):
        bend = Polyline((P(0, 0), P(2, 2), P(4, 0)), "bend")
        cross = Polyline((P(2, 0), P(2, 4)), "v")
        assert segments_intersect(bend, cross) == [P(2, 2)]

    @given(st.tuples(COORD, COORD, COORD, COORD), st.tuples(COORD, COORD, COORD, COORD))
    @settings(max_examples=150, deadline=None)
    def test_symmetric(self, s1, s2):
        a1, b1, a2, b2 = s1
        c1, d1, c2, d2 = s2
        if (a1, b1) == (a2, b2) or (c1, d1) == (c2, d2):
            return
        pa, pb = seg(a1, b1, a2, b2, "a"), seg(c1, d1, c2, d2, "b")
        try:
            one = segments_intersect(pa, pb)
        except OverlapError:
            with pytest.raises(OverlapError):
                segments_intersect(pb, pa)
            return
        assert one == segments_intersect(pb, pa)

    @given(st.tuples(COORD, COORD, COORD, COORD), st.tuples(COORD, COORD, COORD, COORD),
           st.integers(min_value=1, max_value=1000))
    @settings(max_examples=150, deadline=None)
    def test_scale_invariance(self, s1, s2, factor):
        a1, b1, a2, b2 = s1
        c1, d1, c2, d2 = s2
        if (a1, b1) == (a2, b2) or (c1, d1) == (c2, d2):
            return
        pa, pb = seg(a1, b1, a2, b2, "a"), seg(c1, d1, c2, d2, "b")
        try:
            base = bool(segments_intersect(pa, pb))
        except OverlapError:
            with pytest.raises(OverlapError):
                segments_intersect(pa.scaled(factor), pb.scaled(factor))
            return
        assert bool(segments_intersect(pa.scaled(factor), pb.scaled(factor))) == base


class TestBaselineCrossings:
    def test_two_clean_crossings(self):
        c = Polyline((P(0, 2), P(0, -1), P(1, -1), P(1, 2)), "c")
        assert baseline_crossings_along(c) == [(P(0, 0), (0, Fraction(2, 3))),
                                               (P(1, 0), (2, Fraction(1, 3)))]

    def test_tangency_rejected(self):
        with pytest.raises(TangencyError):
            baseline_crossings_along(Polyline((P(0, 1), P(1, 0), P(2, 1)), "t"))

    def test_collinear_edge_rejected(self):
        with pytest.raises(CollinearError):
            baseline_crossings_along(Polyline((P(0, 1), P(1, 0), P(2, 0), P(2, 1)), "e"))

    def test_six_crossing_comb(self):
        comb = Polyline((P(0, 3), P(0, -1), P(1, -1), P(1, 1), P(2, 1), P(2, -1),
                         P(3, -1), P(3, 1), P(4, 1), P(4, -1), P(5, -1), P(5, 3)),
                        "six")
        assert [p.x for p, _ in baseline_crossings_along(comb)] == [0, 1, 2, 3, 4, 5]

    def test_one_curve_single_basepoint(self):
        # the basepoint of a 1-curve is an endpoint, not a crossing
        one = Polyline((P(5, 0), P(5, 3)), "one")
        assert baseline_crossings_along(one) == []
        assert make_one_curve(one).basepoints == (P(5, 0),)

    def test_endpoint_below_rejected(self):
        with pytest.raises(ContractError):
            baseline_crossings_along(Polyline((P(0, -1), P(0, 3)), "bad"))

    def test_even_parity_for_random_even_curves(self):
        from generators import two_t_family

        rng = random.Random(5)
        fam = two_t_family(rng, max_members=8)
        for m in fam.members:
            assert len(baseline_crossings_along(m.curve)) % 2 == 0


def cap(*pts, id="cap"):
    return CapCurve(Polyline(tuple(P(x, y) for x, y in pts), id))


class TestRegionOf:
    def test_semicircle_like(self):
        g = cap((0, 0), (1, 3), (3, 3), (4, 0))
        assert region_of(g, P(2, 1)) is Region.INT
        assert region_of(g, P(10, 1)) is Region.EXT
        assert region_of(g, P(2, 5)) is Region.EXT

    def test_on_cases(self):
        g = cap((0, 0), (1, 3), (3, 3), (4, 0))
        assert region_of(g, P(0, 0)) is Region.ON
        assert region_of(g, P(2, 0)) is Region.ON    # baseline return segment
        assert region_of(g, P(2, 3)) is Region.ON

    def test_below_baseline_is_ext(self):
        g = cap((0, 0), (2, 4), (4, 0))
        assert region_of(g, P(2, -1)) is Region.EXT

    def test_grid_partition_two_classes_plus_on(self):
        g = cap((0, 0), (0, 4), (6, 4), (6, 0))
        cells = {}
        for x in range(-2, 9):
            for y in range(-2, 7):
                cells[(x, y)] = region_of(g, P(x, y))
        ints = {c for c, r in cells.items() if r is Region.INT}
        exts = {c for c, r in cells.items() if r is Region.EXT}
        assert ints and exts

        def connected(cells_set):
            start = next(iter(cells_set))
            seen = {start}
            stack = [start]
            while stack:
                x, y = stack.pop()
                for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if nb in cells_set and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            return seen == cells_set

        assert connected(ints)
        assert connected(exts)

    def test_random_against_flood_fill(self):
        rng = random.Random(31)
        checked = 0
        while checked < 120:
            n = rng.randint(1, 4)
            xs = sorted(rng.sample(range(0, 7), n + 2))
            pts = ([P(xs[0], 0)]
                   + [P(x, rng.randint(1, 6)) for x in xs[1:-1]]
                   + [P(xs[-1], 0)])
            try:
                g = CapCurve(Polyline(tuple(pts), "cap"))
            except ContractError:
                continue
            p = P(rng.randint(-1, 7), rng.randint(-1, 7))
            assert region_of(g, p).value == region_oracle(g.polyline.points, p)
            checked += 1

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, factor):
        g = cap((0, 0), (1, 3), (3, 3), (4, 0))
        g2 = CapCurve(g.polyline.scaled(factor))
        for x in range(-1, 6):
            for y in range(-1, 5):
                assert region_of(g, P(x, y)) is region_of(g2, P(x * factor, y * factor))


class TestPolylineValidation:
    def test_too_few_points(self):
        with pytest.raises(ContractError):
            Polyline((P(0, 0),), "p")

    def test_repeated_vertex(self):
        with pytest.raises(ContractError):
            Polyline((P(0, 0), P(0, 0), P(1, 1)), "p")

    def test_self_intersection_rejected(self):
        bad = Polyline((P(0, 0), P(4, 4), P(4, 0), P(0, 4)), "x")
        with pytest.raises(ContractError):
            validate_simple(bad)

    def test_fold_back_rejected(self):
        bad = Polyline((P(0, 0), P(4, 0), P(2, 0)), "fold")
        with pytest.raises(ContractError):
            validate_simple(bad)

    def test_vertex_cap(self):
        pts = tuple(P(i, 1 + (i % 2)) for i in range(10_001))
        with pytest.raises(ContractError):
            Polyline(pts, "big")


BOUND = 12


@st.composite
def folding_polyline(draw):
    """3-8 integer vertices in [-BOUND, BOUND]^2. Each step goes to a fresh
    point, keeps going along the last edge (a collinear straight run), or
    turns back along it (a fold-back), so both adjacent-pair cases occur."""
    coord = st.integers(-BOUND, BOUND)
    pts = [(draw(coord), draw(coord))]
    pts.append(draw(st.tuples(coord, coord).filter(lambda p: p != pts[0])))
    for _ in range(draw(st.integers(1, 6))):
        (x0, y0), (x1, y1) = pts[-2], pts[-1]
        g = gcd(x1 - x0, y1 - y0)
        k = draw(st.sampled_from((0, 1, 2, -1, -2, -3)))
        nxt = (x1 + k * (x1 - x0) // g, y1 + k * (y1 - y0) // g)
        if k == 0 or max(abs(nxt[0]), abs(nxt[1])) > BOUND:
            nxt = draw(st.tuples(coord, coord).filter(lambda p: p != (x1, y1)))
        pts.append(nxt)
    return pts


def first_self_meeting(coords):
    """The brute-force verdict on every edge pair, as the error it implies.

    Adjacent edges share a vertex, so they meet elsewhere exactly when they
    overlap collinearly; other edges must not touch at all. Pairs are tried
    in (i, j) order, so the first hit is the one validate_simple names.
    """
    edges = list(zip(coords, coords[1:]))
    for i in range(len(edges)):
        if i + 1 < len(edges) and collinear_overlap(edges[i], edges[i + 1]):
            return f"folds back on itself at edge {i}-{i + 1}"
        for j in range(i + 2, len(edges)):
            if segments_touch_oracle(edges[i], edges[j], BOUND):
                return f"self-intersects between edges {i} and {j}"
    return None


class TestValidateSimpleOracle:
    @given(folding_polyline())
    @settings(max_examples=250, deadline=None)
    def test_agrees_with_brute_force(self, coords):
        expected = first_self_meeting(coords)
        for poly in (poly_of(coords, id="c"), poly_of(coords, lambda v: Fraction(v, 3), "c")):
            if expected is None:
                validate_simple(poly)
            else:
                with pytest.raises(ContractError) as err:
                    validate_simple(poly)
                assert str(err.value) == f"polyline 'c' {expected}"

    def test_fold_back_and_crossing_names(self):
        with pytest.raises(ContractError, match="folds back on itself at edge 1-2"):
            validate_simple(poly_of([(0, 0), (0, 4), (0, 8), (0, 6)], id="p"))
        with pytest.raises(ContractError, match="self-intersects between edges 0 and 3"):
            validate_simple(poly_of([(0, 0), (4, 4), (4, 0), (2, 1), (-3, 5)], id="p"))
        validate_simple(poly_of([(0, 0), (0, 4), (0, 8), (3, 8)], id="p"))


class TestStrip:
    def test_meets_and_misses(self):
        c = Polyline((P(0, 2), P(0, -1), P(1, -1), P(1, 2)), "c")
        assert polyline_meets_vstrip(c, 0, 0)
        assert polyline_meets_vstrip(c, -2, 5)
        assert not polyline_meets_vstrip(c, 2, 3)

    def test_below_baseline_part_does_not_count(self):
        dip = Polyline((P(0, 1), P(2, -3), P(4, 1)), "dip")
        # over [1.6, 2.4] scaled by 5: x in [8, 12] of the 5x curve
        dip5 = dip.scaled(5)
        assert not polyline_meets_vstrip(dip5, 9, 11)
        assert polyline_meets_vstrip(dip5, 0, 3)

    @staticmethod
    @st.composite
    def _segment_and_strip(draw):
        """A segment and a strip, in ints or Fractions; lo == hi is common."""
        coord = st.integers(-6, 6) | st.builds(Fraction, st.integers(-24, 24),
                                               st.sampled_from([2, 3, 4]))
        a, b = P(draw(coord), draw(coord)), P(draw(coord), draw(coord))
        lo = draw(coord)
        hi = draw(st.just(lo) | coord)
        return a, b, min(lo, hi), max(lo, hi)

    @settings(max_examples=500, deadline=None)
    @given(_segment_and_strip())
    def test_segment_test_against_fraction_clipping(self, case):
        assert segment_meets_vstrip(*case) == segment_meets_vstrip_by_fractions(*case)


def test_orientation_signs():
    assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orientation(P(0, 0), P(0, 1), P(1, 0)) == -1
    assert orientation(P(0, 0), P(1, 1), P(2, 2)) == 0


def test_randomized_segment_oracle_agreement():
    rng = random.Random(7)
    agree = 0
    while agree < 400:
        pts = [rng.randint(0, 10) for _ in range(8)]
        a = ((pts[0], pts[1]), (pts[2], pts[3]))
        b = ((pts[4], pts[5]), (pts[6], pts[7]))
        if a[0] == a[1] or b[0] == b[1]:
            continue
        pa = seg(*a[0], *a[1], "a")
        pb = seg(*b[0], *b[1], "b")
        try:
            got = bool(segments_intersect(pa, pb))
        except OverlapError:
            assert collinear_overlap(a, b)
            agree += 1
            continue
        assert got == segments_touch_oracle(a, b, 10)
        agree += 1


# The kernel stores whole-number coordinates as ints; a point given with
# Fraction(v, 1) coordinates must behave exactly like the int point, and
# off-grid Fractions must give the int results scaled.

@st.composite
def polyline_coords(draw):
    """2-5 vertices in [0, 10]^2: an axis-parallel staircase or a slanted path."""
    axis_parallel = draw(st.booleans())
    turn = draw(st.integers(0, 1))
    pts = [(draw(COORD), draw(COORD))]
    for i in range(draw(st.integers(1, 4))):
        x, y = pts[-1]
        if axis_parallel and (i + turn) % 2:
            nxt = (x, draw(COORD.filter(lambda v: v != y)))
        elif axis_parallel:
            nxt = (draw(COORD.filter(lambda v: v != x)), y)
        else:
            nxt = draw(st.tuples(COORD, COORD).filter(lambda p: p != (x, y)))
        pts.append(nxt)
    return pts


def poly_of(coords, conv=lambda v: v, id=""):
    return Polyline(tuple(P(conv(x), conv(y)) for x, y in coords), id)


def intersections_or_overlap(a, b):
    try:
        return segments_intersect(a, b)
    except OverlapError:
        return "overlap"


class TestIntFirstKernel:
    @given(polyline_coords(), polyline_coords(), COORD, COORD)
    @settings(max_examples=200, deadline=None)
    def test_int_and_fraction_coordinates_agree(self, ca, cb, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi) + 1
        whole = lambda v: Fraction(v, 1)
        third = lambda v: Fraction(v, 3)
        a, b = poly_of(ca, id="a"), poly_of(cb, id="b")
        af, bf = poly_of(ca, whole, "a"), poly_of(cb, whole, "b")
        a3, b3 = poly_of(ca, third, "a"), poly_of(cb, third, "b")

        pts = intersections_or_overlap(a, b)
        assert intersections_or_overlap(af, bf) == pts
        expect3 = pts if pts == "overlap" else [P(third(p.x), third(p.y)) for p in pts]
        assert intersections_or_overlap(a3, b3) == expect3

        disjoint = polylines_disjoint(a, b)
        assert polylines_disjoint(af, bf) == disjoint
        assert polylines_disjoint(a3, b3) == disjoint
        touch = any(segments_touch_oracle(sa, sb, 12)
                    for sa in zip(ca, ca[1:]) for sb in zip(cb, cb[1:]))
        assert disjoint == (not touch)

        meets = polyline_meets_vstrip(a, lo, hi)
        assert polyline_meets_vstrip(af, whole(lo), whole(hi)) == meets
        assert polyline_meets_vstrip(a3, third(lo), third(hi)) == meets

    @given(polyline_coords(), polyline_coords(), st.integers(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_integral_derived_points_are_ints(self, ca, cb, shift):
        a = poly_of([(x, y + shift) for x, y in ca], id="a")
        b = poly_of(cb, id="b")
        pts = intersections_or_overlap(a, b)
        derived = [] if pts == "overlap" else list(pts)
        try:
            crossings = baseline_crossings_along(a)
        except (GeometryError, ContractError):
            crossings = []
        derived.extend(p for p, _ in crossings)
        derived.extend(refine_at_crossings(a).points if crossings else ())
        for _, pos in crossings:
            if pos > (0, Fraction(0)):
                derived.extend(subcurve(a, (0, Fraction(0)), pos).points)
        for p in derived:
            for v in p:
                assert type(v) is int or v.denominator != 1

    @given(st.integers(-2**70, 2**70), st.integers(-2**70, 2**70))
    @settings(max_examples=100, deadline=None)
    def test_whole_fraction_point_is_the_int_point(self, x, y):
        p = P(Fraction(x, 1), Fraction(2 * y, 2))
        assert p == P(x, y) and hash(p) == hash(P(x, y))
        assert type(p.x) is int and type(p.y) is int
        assert P(Fraction(5, 1), 0) == P(5, 0) and hash(P(Fraction(5, 1), 0)) == hash(P(5, 0))
        half = P(Fraction(2 * x + 1, 2), y)
        assert type(half.x) is Fraction


_VERTS = (P(0, 1), P(0, 3), P(2, 3))


def _level_one_member():
    return DoubleCurve("x", Polyline((P(1, 0), P(1, 4)), "x.L"),
                       Polyline((P(3, 0), P(3, 2), P(7, 2)), "x.R"))


@pytest.mark.parametrize("make, want", [
    (lambda: hash(P(2, 3)), hash((2, 3))),
    (lambda: repr(P(1, Fraction(1, 2))), "Point(x=1, y=Fraction(1, 2))"),
    (lambda: [hasattr(v, "__dict__") for v in (P(1, 2), Probe(1, 2), _level_one_member(),
                                               Polyline(_VERTS, "a"))],
     [False, False, False, False]),
    (lambda: (Polyline(list(_VERTS), "a") == Polyline(_VERTS, "a"),
              Polyline(_VERTS, "a") == Polyline(_VERTS, "b"),
              Polyline(_VERTS[:2], "a") == Polyline(_VERTS[:2] + (P(5, 5),), "a")),
     (True, False, False)),
    (lambda: hash(Polyline(list(_VERTS), "a")), hash((_VERTS, "a"))),
    (lambda: P(1.5, 0), TypeError),
    (lambda: P(True, 0), TypeError),
    (lambda: Probe(3, 3), ContractError),
], ids=["point-hash", "point-repr", "no-instance-dict", "polyline-eq", "polyline-hash",
        "float-coordinate", "bool-coordinate", "zero-width-probe"])
def test_value_semantics(make, want):
    # each value type has one checking constructor and keeps the generated
    # repr, field-wise __eq__ and field-tuple __hash__
    if isinstance(want, type) and issubclass(want, Exception):
        with pytest.raises(want):
            make()
    else:
        assert make() == want


@given(polyline_coords(), st.integers(1, 7), st.integers(-20, 20))
@settings(max_examples=150, deadline=None)
def test_polyline_bbox_is_the_vertex_extent(coords, den, shift):
    # bbox is (xmin, ymin, xmax, ymax) over the vertices, Fraction vertices
    # included, and takes no part in equality, hashing or repr
    for conv in (lambda v: v + shift, lambda v: Fraction(v + shift, den)):
        poly = poly_of(coords, conv, "p")
        xs, ys = [p.x for p in poly.points], [p.y for p in poly.points]
        assert poly.bbox == (min(xs), min(ys), max(xs), max(ys))
        other = poly_of(coords, conv, "p")
        other.bbox = (0, 0, 0, 0)
        assert poly == other and hash(poly) == hash(other) and repr(poly) == repr(other)
