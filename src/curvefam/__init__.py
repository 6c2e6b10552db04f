"""Exact toolkit for baseline-anchored curve families.

Modules: geometry (exact primitives), families (family-class semantics),
graphcore (intersection graphs and exact solvers), reductions (constructive
coloring reductions), burling (the recursive triangle-free construction),
familyfile (file formats), svgrender (drawings), cli (batch entry point).
"""

from . import errors
from .burling import BurlingInstance, DoubleCurve, Probe, audit_coloring, generate, verify_properties
from .families import CurveFamily, EvenCurve, FamilyKind, decompose_even_curve, validate_lr
from .geometry import CapCurve, Point, Polyline, Region, region_of, segments_intersect
from .graphcore import Budget, Coloring, IntersectionGraph, build_graph, chromatic_number, clique_number, greedy_coloring, is_proper

__all__ = [
    "errors",
    "BurlingInstance", "DoubleCurve", "Probe", "audit_coloring", "generate", "verify_properties",
    "CurveFamily", "EvenCurve", "FamilyKind", "decompose_even_curve", "validate_lr",
    "CapCurve", "Point", "Polyline", "Region", "region_of", "segments_intersect",
    "Budget", "Coloring", "IntersectionGraph", "build_graph", "chromatic_number", "clique_number", "greedy_coloring", "is_proper",
]
