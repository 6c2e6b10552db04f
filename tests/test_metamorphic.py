"""Metamorphic checks: a map of the plane that keeps every predicate keeps
every answer.

x-translation by an integer, positive integer x- and y-scaling and the
mirror x -> -x keep the baseline y = 0, the closed upper half-plane, every
incidence and the left-to-right order up to the mirror's reversal. So each
family maps to one with the same intersection graph (by member id), the
same common points of each member pair and the same vertical-strip answers
(both mapped), LR certificate, nesting verdict, rewired graph and split
halves, and its product colouring stays proper. y-translation is not such
a map: it moves the baseline.
"""

import random

import pytest

from curvefam.families import (
    CurveFamily,
    decompose_even_curve,
    validate_lr,
)
from curvefam.geometry import Point as P, Polyline, polyline_meets_vstrip, segments_intersect
from curvefam.graphcore import Coloring, is_proper
from curvefam.reductions import (
    component_split,
    nested_or_disjoint,
    rewire_semicircles,
    split_2t,
    two_t_product_coloring,
)
from generators import lr_family, two_t_family

MIRROR = "mirror"


def _maps(rng):
    """(name, point map) for one translation, one x- and one y-scaling, the
    mirror and a mirror composed with a scaling and a translation."""
    dx = rng.choice((-1, 1)) * rng.randint(1, 10**6)
    sx, sy = rng.randint(2, 5), rng.randint(2, 5)
    return [("translate", lambda p: P(p.x + dx, p.y)),
            ("scale-x", lambda p: P(sx * p.x, p.y)),
            ("scale-y", lambda p: P(p.x, sy * p.y)),
            (MIRROR, lambda p: P(-p.x, p.y)),
            (MIRROR, lambda p: P(dx - sx * p.x, sy * p.y))]


def _mapped(fam, f):
    members = tuple(decompose_even_curve(Polyline(tuple(f(p) for p in m.curve.points), m.id))
                    for m in fam.members)
    return CurveFamily(members, fam.kind, fam.t, fam.scale)


def _meetings(fam, f=None) -> list:
    """Per member pair, the common points of each pair of their parts, as
    one set mapped by f; read by the pairwise predicates, not off the
    family's pair map."""
    parts = [[Polyline(pts, m.id) for _, pts in m.part_runs()] for m in fam.members]
    return [{f(p) if f else p for a in pa for b in pb for p in segments_intersect(a, b)}
            for i, pa in enumerate(parts) for pb in parts[i + 1:]]


def _strip_answers(fam, strips, f=None) -> list:
    """polyline_meets_vstrip of every member part and every strip [lo, hi],
    the strip mapped by f."""
    out = []
    for lo, hi in strips:
        if f:
            lo, hi = sorted((f(P(lo, 0)).x, f(P(hi, 0)).x))
        out.append([sorted(polyline_meets_vstrip(Polyline(pts, m.id), lo, hi)
                           for _, pts in m.part_runs())
                    for m in fam.members])
    return out


def _edges(fam) -> set:
    g = fam.graph()
    return {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}


def _lr_answer(fam):
    res = validate_lr(fam)
    return res.ok, res.checked_pairs, {frozenset((v.id1, v.id2)) for v in res.violations}


CASES = ([(None, chain) for chain in (False, True)]
         + [(t, slanted) for t in (1, 2, 3) for slanted in (False, True)])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("t, flag", CASES)
def test_answers_survive_predicate_preserving_maps(t, flag, seed):
    # an LR family of 2-curves (flag: chained intervals) or a 2t family
    # (flag: slanted edges, crossings off the integer grid)
    rng = random.Random(8000 + seed)
    fam = (lr_family(rng, max_members=20, chain=flag) if t is None
           else two_t_family(rng, max_members=10, t=t, slanted=flag))
    want_edges, want_lr = _edges(fam), _lr_answer(fam)
    want_nested = nested_or_disjoint(fam)
    xs = [p.x for m in fam.members for p in m.curve.points]
    strips = [(lo, lo + rng.randint(0, 4)) for lo in rng.sample(range(min(xs) - 1, max(xs)), 8)]
    want_strips = _strip_answers(fam, strips)
    lr = t is None
    if lr:
        split = component_split(fam)
        want_sides = set(split.f_same), set(split.f_diff)
        want_rewired = _edges(rewire_semicircles(fam))
    else:
        want_halves = [_edges(half) for half in split_2t(fam)]
    for name, f in _maps(rng):
        img = _mapped(fam, f)
        assert _edges(img) == want_edges, name
        assert _meetings(img) == _meetings(fam, f), name
        assert _strip_answers(img, strips, f) == want_strips, name
        assert _lr_answer(img) == want_lr, name
        assert nested_or_disjoint(img) == want_nested, name
        if lr:
            split = component_split(img)
            assert (set(split.f_same), set(split.f_diff)) == want_sides, name
            assert _edges(rewire_semicircles(img)) == want_rewired, name
            continue
        halves = [_edges(half) for half in split_2t(img)]
        if name == MIRROR:          # the mirror swaps the halves
            halves.reverse()
        assert halves == want_halves, name
        coloring = two_t_product_coloring(img)
        g = img.graph()
        assert is_proper(g, Coloring(tuple(coloring[label] for label in g.labels)))[0], name
