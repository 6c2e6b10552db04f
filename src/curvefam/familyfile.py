"""Family file format and loaders.

A family file is JSON with a header and a curve list:

    {"scale": 1, "kind": "lr2",
     "curves": [{"id": "a", "points": [[x, y], ...]}, ...]}

Coordinates must be exact integers (units of 1/scale); loaders reject
anything else. Double-curve families (kind "double") store each member as
{"id": ..., "parts": [[L points], [R points]]} and may carry a "probes"
section (list of [x_lo, x_hi] strips) plus a "burling" section holding the
recursion tree needed by the coloring audit. Writers emit sorted keys and
fixed separators, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Union

from .burling import BurlingInstance, BurlingNode, DoubleCurve, Gadget, Probe, _cyclic_gc_paused
from .errors import FileFormatError
from .families import (
    CurveFamily,
    FamilyKind,
    decompose_even_curve,
    make_one_curve,
)
from .geometry import MAX_COORD_MAGNITUDE, Point, Polyline


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _check_int(v, what: str) -> int:
    if type(v) is not int:
        raise FileFormatError(f"{what} must be an exact integer, got {v!r}")
    if abs(v) > MAX_COORD_MAGNITUDE:
        raise FileFormatError(f"{what} exceeds the 2**62 magnitude contract")
    return v


_TYPE_NAMES = {list: "a list", dict: "an object", str: "a string", int: "an integer"}


def _typed(v, typ, what: str):
    """v itself, after checking that it is a typ (a bool is no integer)."""
    if type(v) is not typ and (isinstance(v, bool) or not isinstance(v, typ)):
        raise FileFormatError(f"{what} must be {_TYPE_NAMES[typ]}, got {v!r:.60}")
    return v


def _curve_id(row) -> str:
    """The id of a curve-list row: a non-empty string."""
    mid = row.get("id")
    if not isinstance(mid, str) or not mid:
        raise FileFormatError(f"curve id must be a non-empty string, got {mid!r:.60}")
    return mid


def _check_probe_row(row, what: str) -> None:
    """A probe row's checks: [x_lo, x_hi], two exact ints with x_lo < x_hi."""
    if not isinstance(row, list) or len(row) != 2:
        raise FileFormatError(f"{what} must be [x_lo, x_hi], got {row!r:.60}")
    lo, hi = row
    if not (type(lo) is int and type(hi) is int
            and -MAX_COORD_MAGNITUDE <= lo < hi <= MAX_COORD_MAGNITUDE):
        _check_int(lo, what)
        _check_int(hi, what)
        raise FileFormatError(f"{what} [{lo}, {hi}] needs x_lo < x_hi")


def _probe_from_json(row, what: str) -> Probe:
    _check_probe_row(row, what)
    return Probe(*row)


def _polyline_from_json(rows, what: str, id: str) -> Polyline:
    """The Polyline of a point list: each coordinate is checked inline to be
    an exact int of the 2**62 magnitude contract, then Point and Polyline
    make their own checks."""
    if type(rows) is not list:
        _typed(rows, list, f"{what} points")
    pts = []
    m = MAX_COORD_MAGNITUDE
    for row in rows:
        if not (type(row) is list or isinstance(row, (list, tuple))) or len(row) != 2:
            raise FileFormatError(f"{what}: point must be [x, y], got {row!r}")
        x, y = row
        if not (type(x) is int and type(y) is int and -m <= x <= m and -m <= y <= m):
            _check_int(x, what)     # one of the two raises
            _check_int(y, what)
        pts.append(Point(x, y))
    return Polyline(tuple(pts), id)


def _points_to_json(poly: Polyline, factor: int = 1):
    out = []
    for p in poly.points:
        x, y = p.x * factor, p.y * factor
        if type(x) is int and type(y) is int and max(abs(x), abs(y)) <= MAX_COORD_MAGNITUDE:
            out.append([x, y])
            continue
        for v in (x, y):
            if getattr(v, "denominator", 1) != 1:
                raise FileFormatError(
                    f"curve {poly.id!r} has non-integer coordinate {v} "
                    f"after rescaling by {factor}")
            if abs(v) > MAX_COORD_MAGNITUDE:
                raise FileFormatError(
                    f"curve {poly.id!r} exceeds the 2**62 magnitude contract "
                    f"at scale {factor}")
        out.append([int(x), int(y)])
    return out


def _integerizing_factor(polylines) -> int:
    """Smallest multiplier putting every coordinate on the integer grid.

    Derived curves (retraction cuts, mid-edge crossings) carry exact
    rational vertices; files store integers in units of 1/scale, so the
    writer rescales and records the factor in the scale header. A
    coordinate is an int or a non-whole Fraction, so only the latter have a
    denominator to read.
    """
    factor = 1
    for poly in polylines:
        for p in poly.points:
            x, y = p.x, p.y
            if type(x) is not int:
                factor = math.lcm(factor, x.denominator)
            if type(y) is not int:
                factor = math.lcm(factor, y.denominator)
    return factor


def family_to_jsonable(fam: CurveFamily) -> dict:
    """The family's file document. Its scale is the family's scale times
    the factor that puts every coordinate on the integer grid."""
    factor = _integerizing_factor(m.curve for m in fam.members)
    curves = [{"id": m.id, "points": _points_to_json(m.curve, factor)} for m in fam.members]
    scale = fam.scale * factor
    if scale > MAX_COORD_MAGNITUDE:
        raise FileFormatError(f"scale {scale} exceeds the 2**62 magnitude contract")
    doc = {"scale": scale, "kind": fam.kind.value, "curves": curves}
    if fam.kind is FamilyKind.TWO_T:
        doc["t"] = fam.t
    return doc


def family_from_jsonable(doc: dict) -> CurveFamily:
    try:
        kind = FamilyKind(doc.get("kind"))
    except ValueError:
        raise FileFormatError(f"unknown family kind {doc.get('kind')!r}") from None
    t = doc.get("t")
    if t is not None:
        _typed(t, int, "t")
        if kind is not FamilyKind.TWO_T:
            raise FileFormatError(f"a {kind.value} family file takes no t")
    members = []
    member = make_one_curve if kind is FamilyKind.ONE_CURVE else decompose_even_curve
    for row in _typed(doc.get("curves", []), list, "curves"):
        mid = _curve_id(_typed(row, dict, "curve"))
        if "points" not in row:
            raise FileFormatError(f"curve {mid!r} misses points")
        members.append(member(_polyline_from_json(row["points"], f"curve {mid!r}", mid)))
    return CurveFamily(tuple(members), kind, t, doc.get("scale", 1))


def _node_to_jsonable(node: BurlingNode) -> dict:
    if node.level == 1:
        return {"level": 1, "member": node.member_id,
                "probe": list(node.probe.as_pair())}
    return {
        "level": node.level,
        "outer": _node_to_jsonable(node.outer),
        "inner": [_node_to_jsonable(ch) for ch in node.inner],
        "gadgets": [[{"x": g.x_id, "a": list(g.a.as_pair()), "b": list(g.b.as_pair())}
                     for g in row] for row in node.gadgets],
    }


def _node_from_jsonable(doc, ids: list) -> BurlingNode:
    """One recursion-tree node, with the shape the construction gives it;
    its member ids are appended to ids, in BurlingNode.member_ids order.

    A level-k node (k > 1) holds a level-(k-1) outer copy, one level-(k-1)
    inner copy per outer probe, and per inner probe of copy i a gadget in
    row i.
    """
    doc = _typed(doc, dict, "recursion-tree node")
    level = _typed(doc.get("level"), int, "recursion-tree level")
    if level < 1:
        raise FileFormatError(f"recursion-tree level must be >= 1, got {level}")
    if level == 1:
        ids.append(_typed(doc.get("member"), str, "tree member"))
        return BurlingNode(1, ids[-1], _probe_from_json(doc.get("probe"), "probe"))
    outer = _node_from_jsonable(doc.get("outer"), ids)
    inner = tuple(_node_from_jsonable(ch, ids)
                  for ch in _typed(doc.get("inner"), list, "inner copies"))
    if any(ch.level != level - 1 for ch in (outer, *inner)):
        raise FileFormatError(f"a level-{level} node needs level-{level - 1} copies")
    rows = _typed(doc.get("gadgets"), list, "gadget rows")
    p = len(outer.probes)       # as every node of outer's level has
    if len(inner) != p or len(rows) != p:
        raise FileFormatError(
            f"a level-{level} node needs one inner copy and one gadget row "
            "per outer probe")
    gadget_rows = []
    for row in rows:
        if len(_typed(row, list, "gadget row")) != p:
            raise FileFormatError("a gadget row needs one gadget per inner probe")
        gadgets = []
        for g in row:
            g = _typed(g, dict, "gadget")
            ids.append(_typed(g.get("x"), str, "gadget member"))
            gadgets.append(Gadget(ids[-1], _probe_from_json(g.get("a"), "probe"),
                                  _probe_from_json(g.get("b"), "probe")))
        gadget_rows.append(tuple(gadgets))
    return BurlingNode(level, None, None, outer, inner, tuple(gadget_rows))


def burling_to_jsonable(inst: BurlingInstance) -> dict:
    return {
        "scale": inst.scale,
        "kind": "double",
        "curves": [{"id": m.id,
                    "parts": [_points_to_json(m.left), _points_to_json(m.right)]}
                   for m in inst.members],
        "probes": [list(p.as_pair()) for p in inst.probes],
        "burling": {"k": inst.k, "tree": _node_to_jsonable(inst.tree)},
    }


def burling_from_jsonable(doc: dict) -> BurlingInstance:
    members = []
    for row in _typed(doc.get("curves", []), list, "curves"):
        mid = _curve_id(_typed(row, dict, "double-curve"))
        parts = row.get("parts")
        if not isinstance(parts, list) or len(parts) != 2:
            raise FileFormatError(f"double-curve {mid!r} needs parts [L, R]")
        lid, rid = f"{mid}.L", f"{mid}.R"
        members.append(DoubleCurve(mid, _polyline_from_json(parts[0], lid, lid),
                                   _polyline_from_json(parts[1], rid, rid)))
    probe_rows = _typed(doc.get("probes", []), list, "probes")
    for row in probe_rows:
        _check_probe_row(row, "probe")
    burl = doc.get("burling")
    if not isinstance(burl, dict) or "tree" not in burl or "k" not in burl:
        raise FileFormatError("double-curve family needs a burling section")
    tree_ids = []
    tree = _node_from_jsonable(burl["tree"], tree_ids)
    if _typed(burl["k"], int, "burling k") != tree.level:
        raise FileFormatError(
            f"burling k = {burl['k']} disagrees with the tree level {tree.level}")
    probes = tree.probes
    if probe_rows != [[p.x_lo, p.x_hi] for p in probes]:    # each row two checked ints
        raise FileFormatError("probes section disagrees with the recursion tree")
    inst = BurlingInstance(burl["k"], tuple(members), probes, tree, doc.get("scale", 1))
    curve_ids = [m.id for m in members]
    for what, ids in (("curve list", curve_ids), ("recursion tree", tree_ids)):
        if len(set(ids)) != len(ids):
            repeated = next(mid for mid, n in Counter(ids).items() if n > 1)
            raise FileFormatError(f"{what} holds member id {repeated!r} more than once")
    if set(tree_ids) != set(curve_ids):
        raise FileFormatError("recursion tree members disagree with the curve list")
    return inst


def save(obj: Union[CurveFamily, BurlingInstance], path: str) -> None:
    if isinstance(obj, BurlingInstance):
        doc = burling_to_jsonable(obj)
    else:
        doc = family_to_jsonable(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(doc))


def load(path: str) -> Union[CurveFamily, BurlingInstance]:
    """Load a family file; kind "double" yields a BurlingInstance."""
    with _cyclic_gc_paused():
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise FileFormatError(f"{path}: top level must be an object")
        if _check_int(doc.get("scale", 1), "scale") < 1:
            raise FileFormatError(f"{path}: scale must be a positive integer")
        read = burling_from_jsonable if doc.get("kind") == "double" else family_from_jsonable
        obj, doc = read(doc), None      # the collector resumes with the decoded JSON freed
    return obj
