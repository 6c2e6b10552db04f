import ast
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

import curvefam
from curvefam import burling, families, familyfile, geometry, graphcore, reductions
from curvefam.burling import generate
from curvefam.cli import main
from curvefam.errors import ContractError, FileFormatError
from curvefam.families import CurveFamily, FamilyKind, decompose_even_curve
from curvefam.geometry import MAX_GENERATED_CURVES, Point as P, Polyline
from curvefam.graphcore import Coloring, build_graph, format_edge_list
from generators import graph_with_chi_above, lr_family, mycielskian, two_t_family


class TestFamilyFiles:
    def test_round_trip_lr2(self, tmp_path):
        fam = lr_family(random.Random(3), max_members=8)
        path = tmp_path / "fam.json"
        familyfile.save(fam, str(path))
        back = familyfile.load(str(path))
        assert isinstance(back, CurveFamily) and back.kind is FamilyKind.LR2
        assert back.ids() == fam.ids()
        for a, b in zip(fam.members, back.members):
            assert a.curve.points == b.curve.points

    def test_round_trip_two_t(self, tmp_path):
        fam = two_t_family(random.Random(5), max_members=6)
        path = tmp_path / "fam.json"
        familyfile.save(fam, str(path))
        back = familyfile.load(str(path))
        assert back.kind is FamilyKind.TWO_T and back.t == 2

    def test_round_trip_burling(self, tmp_path):
        inst = generate(3)
        path = tmp_path / "x3.json"
        familyfile.save(inst, str(path))
        back = familyfile.load(str(path))
        assert back.k == 3 and back.probes == inst.probes
        assert [m.id for m in back.members] == [m.id for m in inst.members]
        assert back.tree == inst.tree

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "scale": 1, "kind": "lr2",
            "curves": [{"id": "a", "points": [[0, 2], [0.5, -1], [3, -1], [3, 2]]}],
        }))
        with pytest.raises(FileFormatError):
            familyfile.load(str(path))

    def test_oversized_coordinate_rejected(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "scale": 1, "kind": "one_curve",
            "curves": [{"id": "a", "points": [[2 ** 63, 0], [0, 1]]}],
        }))
        with pytest.raises(FileFormatError):
            familyfile.load(str(path))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"scale": 1, "kind": "mystery", "curves": []}))
        with pytest.raises(FileFormatError):
            familyfile.load(str(path))

    def test_burling_tree_consistency_enforced(self, tmp_path):
        inst = generate(2)
        doc = familyfile.burling_to_jsonable(inst)
        doc["probes"] = doc["probes"][:-1]
        path = tmp_path / "x.json"
        path.write_text(familyfile.dump_json(doc))
        with pytest.raises(FileFormatError):
            familyfile.load(str(path))

    def test_tangency_caught_at_load(self, tmp_path):
        from curvefam.errors import TangencyError

        path = tmp_path / "tangent.json"
        path.write_text(json.dumps({
            "scale": 1, "kind": "even",
            "curves": [{"id": "t", "points": [[0, 1], [1, 0], [2, 1]]}],
        }))
        with pytest.raises(TangencyError):
            familyfile.load(str(path))


class TestScale:
    """A family file's coordinates are in units of 1/scale: loading keeps
    the scale, derived families inherit it, and the writer records it."""

    @staticmethod
    def _scaled_copy(tmp_path, fam, scale) -> tuple:
        """Paths of fam's file and of the same integers at scale times its scale."""
        plain, scaled = str(tmp_path / "plain.json"), str(tmp_path / "scaled.json")
        familyfile.save(fam, plain)
        doc = json.loads(open(plain).read())
        doc["scale"] *= scale
        with open(scaled, "w") as fh:
            fh.write(familyfile.dump_json(doc))
        return plain, scaled

    @staticmethod
    def _doc(path) -> dict:
        return json.loads(open(path).read())

    def test_round_trip_keeps_scale(self, tmp_path):
        _, scaled = self._scaled_copy(tmp_path, lr_family(random.Random(3), max_members=8), 4)
        fam = familyfile.load(scaled)
        assert fam.scale == 4
        again = str(tmp_path / "again.json")
        familyfile.save(fam, again)
        assert open(again, "rb").read() == open(scaled, "rb").read()

    def test_rewire_keeps_scale(self, tmp_path):
        plain, scaled = self._scaled_copy(tmp_path, lr_family(random.Random(13), max_members=10), 4)
        for src, out in ((plain, "out1.json"), (scaled, "out4.json")):
            assert main(["reduce", "rewire", "--family", src, "--out", str(tmp_path / out)]) == 0
        doc1, doc4 = self._doc(tmp_path / "out1.json"), self._doc(tmp_path / "out4.json")
        assert (doc1["scale"], doc4["scale"]) == (1, 4)
        assert doc4["curves"] == doc1["curves"]

    def test_split_2t_keeps_scale(self, tmp_path):
        # the cut points are off the grid, so each half's scale is the
        # input's times the half's own integerizing factor
        fam = two_t_family(random.Random(9), max_members=6)
        plain, scaled = self._scaled_copy(tmp_path, fam, 3)
        for src, tag in ((plain, "1"), (scaled, "3")):
            assert main(["reduce", "split-2t", "--family", src,
                         "--out1", str(tmp_path / f"h1-{tag}.json"),
                         "--out2", str(tmp_path / f"h2-{tag}.json")]) == 0
        for half in ("h1", "h2"):
            doc1, doc3 = self._doc(tmp_path / f"{half}-1.json"), self._doc(tmp_path / f"{half}-3.json")
            assert doc1["scale"] > self._doc(plain)["scale"]
            assert doc3["scale"] == 3 * doc1["scale"]
            assert doc3["curves"] == doc1["curves"]
            assert familyfile.load(str(tmp_path / f"{half}-3.json")).scale == doc3["scale"]

    def test_scale_past_the_contract_not_written(self, tmp_path):
        # a half's integerizing factor would take the scale past 2**62,
        # though every coordinate stays within it
        fam = familyfile.load(self._scaled_copy(
            tmp_path, two_t_family(random.Random(9), max_members=6), 2**62)[1])
        half, _ = reductions.split_2t(fam)
        with pytest.raises(FileFormatError, match=r"^scale \d+ exceeds the 2\*\*62 magnitude"):
            familyfile.save(half, str(tmp_path / "half.json"))


def _drop_outer(doc):
    del doc["burling"]["tree"]["outer"]


def _short_gadget_probe(doc):
    doc["burling"]["tree"]["gadgets"][0][0]["a"] = [5]


def _curves_not_a_list(doc):
    doc["curves"] = 5


def _level_not_an_int(doc):
    doc["burling"]["tree"]["level"] = "x"


def _level_skips_outer(doc):
    doc["burling"]["tree"]["level"] = 3


def _zero_width_probe(doc):
    doc["probes"][0] = [5, 5]


def _curve_id_twice(doc):
    # a second, far-away g0.0: its labels collapse into one in a coloring
    doc["curves"].append({"id": "g0.0", "parts": [[[1000, 0], [1000, 10]],
                                                  [[1010, 0], [1010, 5], [1020, 5]]]})


def _tree_member_twice(doc):
    # the tree names p0.x as the gadget too, so its id set still matches
    doc["curves"] = [c for c in doc["curves"] if c["id"] != "g0.0"]
    doc["burling"]["tree"]["gadgets"][0][0]["x"] = "p0.x"


# ids that once loaded as 'None', '5' and '': only a non-empty string is an id
def _null_id(doc):
    doc["curves"][0]["id"] = None


def _numeric_id(doc):
    doc["curves"][0]["id"] = 5


def _missing_id(doc):
    del doc["curves"][0]["id"]


@pytest.mark.parametrize("mutate", [_drop_outer, _short_gadget_probe, _curves_not_a_list,
                                    _level_not_an_int, _level_skips_outer,
                                    _zero_width_probe, _curve_id_twice,
                                    _tree_member_twice, _null_id, _numeric_id,
                                    _missing_id])
def test_malformed_double_curve_file(tmp_path, capsys, mutate):
    doc = familyfile.burling_to_jsonable(generate(2))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(familyfile.dump_json(doc))
    with pytest.raises(FileFormatError):
        familyfile.load(str(path))
    assert main(["verify-family", str(path)]) == 4
    assert "FileFormatError" in capsys.readouterr().err


def _x2_doc():
    return familyfile.burling_to_jsonable(generate(2))


def _one_curve_doc():
    return {"scale": 1, "kind": "one_curve",
            "curves": [{"id": "a", "points": [[0, 0], [0, 2], [3, 2]]}]}


def _lr2_doc():
    return {"scale": 1, "kind": "lr2",
            "curves": [{"id": "a", "points": [[0, 2], [0, -1], [1, -1], [1, 2]]}]}


def _at(doc, path, value):
    """doc with doc[path[0]][path[1]]... set to value."""
    *outer, last = path
    for key in outer:
        doc = doc[key]
    doc[last] = value


_OX_L, _OX_R = ("curves", 0, "parts", 0), ("curves", 0, "parts", 1)
_FILE_ERRORS = [
    # (file, where, value, exit code, stderr), each message as the loader
    # printed it before it checked each fact once
    (_x2_doc, _OX_L + (1, 0), True, 4, "FileFormatError: o.x.L must be an exact integer, got True"),
    (_x2_doc, _OX_R + (2, 1), 1.5, 4, "FileFormatError: o.x.R must be an exact integer, got 1.5"),
    (_x2_doc, _OX_R + (0, 0), "1", 4, "FileFormatError: o.x.R must be an exact integer, got '1'"),
    (_x2_doc, _OX_L + (1, 1), 2**62 + 1, 4,
     "FileFormatError: o.x.L exceeds the 2**62 magnitude contract"),
    (_x2_doc, _OX_L + (1,), [1], 4, "FileFormatError: o.x.L: point must be [x, y], got [1]"),
    (_x2_doc, _OX_R + (2,), [1, 2, 3], 4,
     "FileFormatError: o.x.R: point must be [x, y], got [1, 2, 3]"),
    (_x2_doc, _OX_R + (1,), 5, 4, "FileFormatError: o.x.R: point must be [x, y], got 5"),
    (_x2_doc, _OX_R, [[2, 0], [2, 4], [2, 4], [17, 4]], 2,
     "ContractError: polyline 'o.x.R' repeats vertex Point(x=2, y=4)"),
    (_x2_doc, _OX_L, [[1, 1], [1, 5]], 2, "ContractError: 'o.x'.left must start on the baseline"),
    (_x2_doc, _OX_R, [[2, 0], [2, 4], [17, 4], [17, 0]], 2,
     "ContractError: 'o.x'.right must stay strictly above the baseline"),
    (_x2_doc, _OX_L, [[18, 0], [18, 5]], 2,
     "ContractError: 'o.x': left basepoint must precede the right one"),
    (_x2_doc, _OX_R, [[2, 0], [2, 4], [0, 4]], 2,
     "ContractError: 'o.x': the two 1-curves must be disjoint"),
    (_x2_doc, ("probes", 0), [5, 5], 4, "FileFormatError: probe [5, 5] needs x_lo < x_hi"),
    (_x2_doc, ("probes", 0), [5], 4, "FileFormatError: probe must be [x_lo, x_hi], got [5]"),
    (_x2_doc, ("probes", 0), [True, 6], 4,
     "FileFormatError: probe must be an exact integer, got True"),
    (_x2_doc, ("burling", "tree", "gadgets", 0, 0, "b"), [14, 13], 4,
     "FileFormatError: probe [14, 13] needs x_lo < x_hi"),
    (_one_curve_doc, ("curves", 0, "points", 0, 0), True, 4,
     "FileFormatError: curve 'a' must be an exact integer, got True"),
    (_one_curve_doc, ("curves", 0, "points", 1, 1), 1.5, 4,
     "FileFormatError: curve 'a' must be an exact integer, got 1.5"),
    (_one_curve_doc, ("curves", 0, "points", 2, 0), "1", 4,
     "FileFormatError: curve 'a' must be an exact integer, got '1'"),
    (_one_curve_doc, ("curves", 0, "points", 2, 1), -2**62 - 1, 4,
     "FileFormatError: curve 'a' exceeds the 2**62 magnitude contract"),
    (_one_curve_doc, ("curves", 0, "points", 1), [1], 4,
     "FileFormatError: curve 'a': point must be [x, y], got [1]"),
    (_one_curve_doc, ("curves", 0, "points", 1), [1, 2, 3], 4,
     "FileFormatError: curve 'a': point must be [x, y], got [1, 2, 3]"),
    (_one_curve_doc, ("curves", 0, "points", 0), 5, 4,
     "FileFormatError: curve 'a': point must be [x, y], got 5"),
    (_one_curve_doc, ("curves", 0, "points"), [[0, 0], [0, 2], [0, 2], [3, 2]], 2,
     "ContractError: polyline 'a' repeats vertex Point(x=0, y=2)"),
    (_one_curve_doc, ("t",), 3, 4, "FileFormatError: a one_curve family file takes no t"),
    (_one_curve_doc, ("curves", 0, "points"), [[0, 0], [0, 2], [3, -1], [4, 2]], 2,
     "ContractError: 1-curve 'a' must stay strictly above the baseline"),
    (_lr2_doc, ("curves", 0, "points"),
     [[0, 2], [0, -1], [1, -1], [1, 2], [2, 2], [2, -1], [3, -1], [3, 2]], 2,
     "FamilyValidationError: 'a' has 4 basepoints in a 2-curve family"),
    # appended, so that each row above keeps its test id
    (_x2_doc, ("burling", "k"), 3, 4,
     "FileFormatError: burling k = 3 disagrees with the tree level 2"),
    (_x2_doc, ("burling", "tree", "outer", "level"), 0, 4,
     "FileFormatError: recursion-tree level must be >= 1, got 0"),
    (_x2_doc, ("burling", "tree", "outer", "member"), "zz", 4,
     "FileFormatError: recursion tree members disagree with the curve list"),
]


@pytest.mark.parametrize("make, where, value, code, message", _FILE_ERRORS,
                         ids=[f"{m.__name__[1:-4]}-{i}" for i, (m, *_) in enumerate(_FILE_ERRORS)])
def test_loader_error_table(tmp_path, capsys, make, where, value, code, message):
    doc = make()
    _at(doc, where, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-family", str(path)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("right, message", [
    ([[2, 0], [2, 1], [5, 1], [3, 1]], "'x.R' folds back on itself at edge 1-2"),
    ([[2, 0], [2, 3], [5, 3], [5, 2], [2, 2]], "'x.R' self-intersects between edges 0 and 3"),
])
def test_self_meeting_double_curve_part(tmp_path, capsys, right, message):
    # X_1 with its right 1-curve folding back on its arm, or coming back to
    # its own stem; every other check would pass
    doc = familyfile.burling_to_jsonable(generate(1))
    doc["curves"][0]["parts"][1] = right
    path = tmp_path / "x1.json"
    path.write_text(familyfile.dump_json(doc))
    assert main(["verify-family", str(path)]) == 2
    assert f"ContractError: polyline {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["color", "--exact", "--family"], ["omega", "--family"],
                                     ["verify-family"]])
def test_overlapping_double_curves(tmp_path, capsys, command):
    # g0.0's left crosses the arm of o.x, and its right arm runs along that
    # arm: the overlap comes after a hit in the same member pair
    doc = familyfile.burling_to_jsonable(generate(2))
    curves = {c["id"]: c for c in doc["curves"]}
    (_, (_, ox_top)), (_, (_, arm_h), _) = curves["o.x"]["parts"]
    (left_foot, (left_x, _)), (stem_foot, _, (end_x, _)) = curves["g0.0"]["parts"]
    curves["g0.0"]["parts"] = [[left_foot, [left_x, ox_top]],
                               [stem_foot, [stem_foot[0], arm_h], [end_x, arm_h]]]
    path = tmp_path / "overlap.json"
    path.write_text(familyfile.dump_json(doc))
    assert main([*command, str(path)]) == 2
    assert "OverlapError: polylines 'o.x.R' and 'g0.0.R'" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    b"\xff\xfe{}",
    b'{"scale": 1, "kind": "two_t", "t": "x", "curves": []}',
    b'{"scale": 1, "kind": "one_curve", "curves": [{"id": null, "points": [[0, 0], [0, 1]]}]}',
    b'{"scale": 1, "kind": "one_curve", "curves": [{"id": 5, "points": [[0, 0], [0, 1]]}]}',
    b'{"scale": 1, "kind": "one_curve", "curves": [{"points": [[0, 0], [0, 1]]}]}',
    b'{"scale": 1, "kind": [], "curves": []}',
    b'{"scale": 1, "kind": {}, "curves": []}',
])
def test_malformed_family_file(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_bytes(body)
    assert main(["verify-family", str(path)]) == 4
    assert "FileFormatError" in capsys.readouterr().err


def test_top_level_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["verify-family", str(path)]) == 4
    assert capsys.readouterr().err == f"error: FileFormatError: {path}: top level must be an object\n"


@pytest.mark.parametrize("argv, message", [
    (["reduce", "component-split"], "component_split needs even-curves or double-curves"),
    (["reduce", "rewire", "--out", "out.json"], "member 'a' has no middle part to rewire"),
])
def test_reduction_needs_a_curve_with_a_middle(tmp_path, capsys, monkeypatch, argv, message):
    # a one_curve family has no middle part to split or rewire
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.json").write_text(json.dumps(_one_curve_doc()))
    assert main([*argv, "--family", "one.json"]) == 2
    assert capsys.readouterr().err == f"error: ContractError: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["one.json"]


def test_rewire_needs_a_curve_family(tmp_path, capsys):
    # a double-curve file once reached rewire_semicircles and ended in an
    # AttributeError traceback
    path = str(tmp_path / "x2.json")
    familyfile.save(generate(2), path)
    out = str(tmp_path / "out.json")
    assert main(["reduce", "rewire", "--family", path, "--out", out]) == 4
    assert capsys.readouterr().err == (
        "error: FileFormatError: reduce rewire needs an even-curve family file\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("t", [', "t": 0', ', "t": -1', ''], ids=["zero", "negative", "missing"])
@pytest.mark.parametrize("argv", [
    ["reduce", "product-color", "--out", "out.json"],
    ["reduce", "split-2t", "--out1", "out1.json", "--out2", "out2.json"],
], ids=["product-color", "split-2t"])
def test_two_t_family_needs_positive_t(tmp_path, capsys, monkeypatch, t, argv):
    # an empty two_t family once loaded with any t: product-color recursed
    # until RecursionError, and split-2t wrote halves with t = -1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tt.json").write_text('{"scale": 1, "kind": "two_t"%s, "curves": []}' % t)
    assert main([*argv, "--family", "tt.json"]) == 2
    assert "FamilyValidationError: TWO_T family needs t >= 1" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["tt.json"]


@pytest.mark.parametrize("argv, flag", [
    (["reduce", "mcguinness"], "--family or --graph"),
    (["reduce", "component-split"], "--family"),
    (["reduce", "product-color"], "--family"),
    (["reduce", "rewire", "--out", "out.json"], "--family"),
    (["reduce", "rewire", "--family", "missing.json"], "--out"),
    (["reduce", "split-2t", "--family", "missing.json", "--out2", "out2.json"], "--out1"),
    (["reduce", "split-2t", "--family", "missing.json", "--out1", "out1.json"], "--out2"),
])
def test_reduce_missing_flag(tmp_path, capsys, monkeypatch, argv, flag):
    # each reduction checks its flags before it opens a file: missing.json
    # does not exist, and nothing is written
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 4
    assert f"FileFormatError: reduce {argv[1]} needs {flag}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("doc", [
    {"colors": {"o.x": True, "p0.x": False, "g0.0": "1"}},
    {"colors": {"o.x": 0, "p0.x": 1.5, "g0.0": 1.2}},
    [],
])
def test_malformed_coloring_file(tmp_path, capsys, doc):
    # bools and a string once passed the audit as ints, truncated floats
    # ended in ImproperColoring, and a top-level list in a traceback
    fam_path = str(tmp_path / "x2.json")
    familyfile.save(generate(2), fam_path)
    col_path = tmp_path / "col.json"
    col_path.write_text(json.dumps(doc))
    assert main(["audit-burling", fam_path, "--coloring", str(col_path)]) == 4
    assert "FileFormatError" in capsys.readouterr().err


def _counting(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's first argument."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_loader_checks_each_double_curve_once(tmp_path, monkeypatch):
    # the loader builds each member through DoubleCurve, whose constructor
    # runs the double-curve check once per member, one simplicity check per part
    path = str(tmp_path / "x4.json")
    familyfile.save(generate(4), path)
    checked = _counting(monkeypatch, burling, "_check_double_curve")
    simple = _counting(monkeypatch, burling, "validate_simple")
    inst = familyfile.load(path)
    assert checked == [m.id for m in inst.members] and len(checked) == 181
    assert len(simple) == 362


def test_loaded_graph_built_without_recheck(tmp_path, monkeypatch):
    # the family graph is read off the pair map, each edge checked once
    path = str(tmp_path / "x4.json")
    familyfile.save(generate(4), path)
    monkeypatch.setattr(graphcore.IntersectionGraph, "__post_init__",
                        lambda self: pytest.fail("family graph re-checked"))
    g = familyfile.load(path).graph()
    assert (g.n, g.m) == (181, 323)


def test_double_curve_file_keeps_its_scale(tmp_path):
    doc = familyfile.burling_to_jsonable(generate(2))
    assert doc["scale"] == 1
    doc["scale"] = 4
    path, back = tmp_path / "x2.json", tmp_path / "back.json"
    path.write_text(familyfile.dump_json(doc))
    inst = familyfile.load(str(path))
    assert inst.scale == 4
    familyfile.save(inst, str(back))
    assert back.read_text() == familyfile.dump_json(doc)


def test_commands_read_no_even_curve_views(tmp_path, capsys, monkeypatch):
    # the pair map, the rewiring and the 2t splits read each member's stored
    # points: with EvenCurve.left, middle and right raising, every command
    # below exits 0 with the stdout and written bytes of an unpatched run
    lr, tt, tt1 = (str(tmp_path / name) for name in ("lr.json", "tt.json", "tt1.json"))
    familyfile.save(lr_family(random.Random(31), max_members=20), lr)
    familyfile.save(two_t_family(random.Random(33), max_members=12), tt)
    familyfile.save(two_t_family(random.Random(35), max_members=12, t=1, slanted=True), tt1)
    out = tmp_path / "out"
    out.mkdir()
    commands = [
        ["verify-family", lr],
        ["color", "--exact", "--family", lr, "--out", "col.json"],
        ["color", "--exact", "--family", tt, "--out", "col.json"],
        ["reduce", "split-2t", "--family", tt, "--out1", "h1.json", "--out2", "h2.json",
         "--trace", "trace.json"],
        ["reduce", "split-2t", "--family", tt1, "--out1", "h1.json", "--out2", "h2.json"],
        ["reduce", "product-color", "--family", tt, "--out", "col.json"],
        ["reduce", "rewire", "--family", lr, "--out", "rw.json", "--trace", "trace.json"],
    ]

    def run_all() -> list:
        runs = []
        for argv in commands:
            for f in out.iterdir():
                f.unlink()
            rc = main([str(out / a) if a.endswith(".json") and os.sep not in a else a
                       for a in argv])
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            runs.append((argv[:2], rc, capsys.readouterr().out, files))
        return runs

    plain = run_all()

    def no_view(self):
        raise AssertionError("an EvenCurve part view was read")

    for view in ("left", "middle", "right"):
        monkeypatch.setattr(families.EvenCurve, view, property(no_view))
    assert all(rc == 0 for _, rc, _, _ in plain)
    assert run_all() == plain


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_loader_and_generator_agree(tmp_path, k):
    inst = generate(k)
    path = str(tmp_path / f"x{k}.json")
    familyfile.save(inst, path)
    back = familyfile.load(path)
    assert back.k == k and back.probes == inst.probes and back.tree == inst.tree
    assert [(m.id, m.left.points, m.right.points) for m in back.members] == [
        (m.id, m.left.points, m.right.points) for m in inst.members]
    assert back.pairs == inst.pairs


@pytest.mark.parametrize("points", [[], [[0, 0]], [[0, 0], [0, 2], [3, 2], [3, 2]],
                                    [[0, 0], [0, 2], [0, 2], [3, 2], [4, 2]]],
                         ids=["empty", "one-point", "repeat", "repeat-over-cap"])
@pytest.mark.parametrize("kind", ["one_curve", "double"])
def test_loader_part_checks(tmp_path, capsys, monkeypatch, kind, points):
    # the loader's own vertex-count and repeat checks raise what the
    # Polyline constructor raises, the cap (here 4) ahead of the repeat
    monkeypatch.setattr(geometry, "MAX_POLYLINE_VERTICES", 4)
    if kind == "double":
        doc, where, part_id = _x2_doc(), _OX_R, "o.x.R"
    else:
        doc, where, part_id = _one_curve_doc(), ("curves", 0, "points"), "a"
    _at(doc, where, points)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractError) as want:
        Polyline(tuple(P(x, y) for x, y in points), part_id)
    assert main(["verify-family", str(path)]) == 2
    assert capsys.readouterr().err == f"error: ContractError: {want.value}\n"


@pytest.mark.parametrize("argv", [["verify-family", "{deep}"],
                                  ["audit-burling", "{x2}", "--coloring", "{deep}"]],
                         ids=["family", "coloring"])
def test_deeply_nested_json(tmp_path, capsys, argv):
    # json.load raised RecursionError here, and the CLI ended in a traceback
    paths = {"deep": str(tmp_path / "deep.json"), "x2": str(tmp_path / "x2.json")}
    with open(paths["deep"], "w") as fh:
        fh.write("[" * 100_000 + "]" * 100_000)
    familyfile.save(generate(2), paths["x2"])
    assert main([a.format(**paths) for a in argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: FileFormatError: {paths['deep']}: ")
    assert "maximum recursion depth exceeded" in err


def _left_part_in_probe_0(doc):
    lo, hi = doc["probes"][0]
    gadget = next(c for c in doc["curves"] if c["id"] == "p0.g0.0")
    top = gadget["parts"][0][1][1]
    gadget["parts"][0] = [[(lo + hi) // 2, 0], [(lo + hi) // 2, top]]


def _src_env() -> dict:
    """The environment for a subprocess that imports this curvefam."""
    src = os.path.dirname(os.path.dirname(curvefam.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestCertificateChecks:
    """Certificates are rechecked by raises that survive `python -O`."""

    def test_color_under_optimize_flag(self, tmp_path):
        fam_path, col_path = str(tmp_path / "x3.json"), str(tmp_path / "col.json")
        familyfile.save(generate(3), fam_path)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "curvefam.cli", "color", "--exact",
             "--family", fam_path, "--out", col_path],
            env=_src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "3\n"
        doc = json.loads(open(col_path).read())
        g = build_graph(familyfile.load(fam_path).members)
        assert doc["palette"] == 3 and set(doc["colors"]) == set(g.labels)
        assert all(doc["colors"][g.labels[u]] != doc["colors"][g.labels[v]]
                   for u, v in g.edges())

    @pytest.mark.parametrize("reduction, source, outs", [
        ("rewire", "lr", ["--out", "rewired.json", "--trace", "rewire-trace.json"]),
        ("split-2t", "tt", ["--out1", "half1.json", "--out2", "half2.json",
                            "--trace", "split-trace.json"]),
    ])
    def test_reduce_under_optimize_flag(self, tmp_path, reduction, source, outs):
        # the same exit code, stdout, stderr and written bytes with and without -O
        fam = (lr_family(random.Random(29), max_members=20) if source == "lr"
               else two_t_family(random.Random(27), max_members=12))
        fam_path = str(tmp_path / f"{source}.json")
        familyfile.save(fam, fam_path)
        runs = []
        for flags in ([], ["-O"]):
            out_dir = tmp_path / ("opt" if flags else "plain")
            out_dir.mkdir()
            argv = [str(out_dir / a) if a.endswith(".json") else a for a in outs]
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "curvefam.cli", "reduce", reduction,
                 "--family", fam_path, *argv],
                env=_src_env(), capture_output=True, timeout=120)
            files = {name: (out_dir / name).read_bytes() for name in outs if name.endswith(".json")}
            runs.append((proc.returncode, proc.stdout, proc.stderr, files))
        assert runs[0][0] == 0, runs[0][2]
        assert runs[1] == runs[0]

    def test_no_assert_in_src(self):
        # python -O strips assert statements, and every check of the library
        # must run under it; pytest.fail, unlike a bare assert, runs there too
        src = pathlib.Path(curvefam.__file__).parent
        found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
        if found:
            pytest.fail(f"assert statements in {src}: {', '.join(found)}")

    def test_one_properness_gate_in_src(self):
        # a colouring is checked once, by the function that makes it, through
        # graphcore._proper; only the two checks of what no callee checked
        # (a lifted and a combined colouring in reductions) read is_proper
        allowed = {("graphcore.py", "_proper"), ("reductions.py", "color_cross_component"),
                   ("reductions.py", "product_color")}
        src = pathlib.Path(curvefam.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                where = (path.name, getattr(top, "name", None))
                found += [where for node in ast.walk(top)
                          if getattr(node, "id", getattr(node, "attr", None)) == "is_proper"]
        if sorted(found) != sorted(allowed):
            pytest.fail(f"is_proper read in {src} at {sorted(found)}, not once at each of "
                        f"{sorted(allowed)}")

    def test_no_constructor_bypass_in_src(self):
        # each value type has one constructor, which runs all its checks;
        # object.__new__ and a captured slot setter (X.field.__set__) build
        # an object without it. Only graphcore._prechecked_graph
        # (IntersectionGraph) may use them
        allowed = {("graphcore.py", "IntersectionGraph")}
        src = pathlib.Path(curvefam.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Attribute):
                    continue
                if node.attr == "__new__" and getattr(node.value, "id", None) == "object":
                    call = calls.get(id(node))      # None where object.__new__ is aliased
                    built = call.args[0] if call and call.args else None
                elif node.attr == "__set__" and isinstance(node.value, ast.Attribute):
                    built = node.value.value
                else:
                    continue
                if (path.name, getattr(built, "id", None)) not in allowed:
                    found.append(f"{path.name}:{node.lineno}")
        if found:
            pytest.fail(f"constructor bypasses in {src}: {', '.join(found)}")

    def test_no_unused_import_in_src(self):
        # a module-level import that nothing in its module reads; a name in
        # the module's __all__ counts as read
        src = pathlib.Path(curvefam.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:
                if (isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                    used.update(elt.value for elt in node.value.elts)
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                              if (alias.asname or alias.name.split(".")[0]) not in used]
        if found:
            pytest.fail(f"unused imports in {src}: {', '.join(found)}")

    def test_improper_exact_witness_rejected(self, tmp_path, capsys, monkeypatch):
        # a search that colours every vertex alike: chromatic_number's own
        # witness check ends the command, which checks nothing itself
        path = tmp_path / "c5.txt"
        path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        monkeypatch.setattr(graphcore, "_decide_core",
                            lambda g, c, budget, clique: [0] * g.n)
        assert main(["color", "--exact", "--graph", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: ImproperColoring: monochromatic edge ('0', '1')\n"

    def test_improper_product_coloring_rejected(self, tmp_path, capsys, monkeypatch):
        # two meeting hooks in a t = 1 file, each cell coloured with one
        # colour: product_color's combined check ends the command
        outer = decompose_even_curve(Polyline(
            (P(0, 2), P(0, -2), P(10, -2), P(10, 5), P(1, 5)), "outer"))
        inner = decompose_even_curve(Polyline(
            (P(2, 8), P(2, -1), P(8, -1), P(8, 3), P(4, 3)), "inner"))
        fam_path = str(tmp_path / "hooks.json")
        familyfile.save(CurveFamily((outer, inner), FamilyKind.TWO_T, 1), fam_path)
        monkeypatch.setattr(reductions, "chromatic_number",
                            lambda g, budget=None: (1, Coloring((0,) * g.n)))
        assert main(["reduce", "product-color", "--family", fam_path,
                     "--out", str(tmp_path / "col.json")]) == 2
        assert capsys.readouterr().err == ("error: ImproperCellColoring: combined coloring "
                                           "improper on ('outer', 'inner')\n")


class TestCli:
    def test_gen_verify_omega_color_audit(self, tmp_path, capsys):
        fam_path = str(tmp_path / "x3.json")
        assert main(["gen-burling", "--k", "3", "--out", fam_path]) == 0
        assert main(["verify-family", fam_path]) == 0
        assert main(["omega", "--family", fam_path]) == 0
        col_path = str(tmp_path / "col.json")
        assert main(["color", "--exact", "--family", fam_path,
                     "--out", col_path]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "3"
        assert main(["audit-burling", fam_path, "--coloring", col_path]) == 0
        assert main(["audit-burling", fam_path, "--greedy-seed", "11"]) == 0

    # sha256 of gen-burling files, pinned with the rank-compressed layout
    @pytest.mark.parametrize("k, digest", [
        (1, "aba3a2c215a1de5284ee877b212448fe8b932eb1ad012c7a891d3fc66fd3647d"),
        (2, "e2716dc168a52c5c5b984cd7b054d1a32d658017e0e8fdf8615ddb3762782f0b"),
        (3, "40d3d27af206c850a18341dd9827049da353123a01b46eafeb061a4f121fdbca"),
        (4, "7eead02291677b5785f8e7797e4b5c6f855e175938463eb8bf68b68c3b75b6c2"),
    ])
    def test_gen_golden_bytes(self, tmp_path, k, digest):
        path = tmp_path / f"x{k}.json"
        assert main(["gen-burling", "--k", str(k), "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    # sha256 of `render` on gen-burling files and of `gen-burling --svg`,
    # pinned while render_svg still computed in Fractions
    @pytest.mark.parametrize("k, via, digest", [
        (1, "render", "63ae9c83930a84c8eff378c0f98d54fab290cb28d280df1de1c4bc4150792b55"),
        (2, "render", "1e0cdf4e9368909140c69995a2bcf662a73ad38f73136f741b18d2c80ffe19e9"),
        (3, "render", "91f4f054bc0df658a4313016707861e611be1399726d2edf5db3ad4cb0571b7f"),
        (4, "render", "91553eda03b36b90faa89476165c44a1f5366161eff53629b842f940f115d5f4"),
        (3, "gen", "91f4f054bc0df658a4313016707861e611be1399726d2edf5db3ad4cb0571b7f"),
    ])
    def test_render_golden_bytes(self, tmp_path, k, via, digest):
        fam_path, svg_path = tmp_path / f"x{k}.json", tmp_path / f"x{k}.svg"
        gen = ["gen-burling", "--k", str(k), "--out", str(fam_path)]
        if via == "gen":
            assert main([*gen, "--svg", str(svg_path)]) == 0
        else:
            assert main(gen) == 0
            assert main(["render", str(fam_path), "--out", str(svg_path)]) == 0
        assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == digest

    # sha256 of every file the reductions write on one seeded lr2 family and
    # one seeded two_t family; computed before the reductions read the
    # family's pair map instead of scanning member pairs themselves
    @pytest.mark.parametrize("reduction, source, outs, digests", [
        ("component-split", "lr", ["--out", "split.json"], {
            "split.json": "e297339015836c110c7c1d57dba1dd9ec70bff50d05169986d690c4250894c8e"}),
        ("rewire", "lr", ["--out", "rewired.json", "--trace", "rewire-trace.json"], {
            "rewired.json": "a969ef033e53421bd2ef6bd9bf839df9ca31aae330cc33f19cfcdd261e5a91bd",
            "rewire-trace.json":
                "9ea33bed5aa2aba1d778fc6ec988065608f90d28aa0eda054f904c7ee176ba16"}),
        ("split-2t", "tt", ["--out1", "half1.json", "--out2", "half2.json",
                            "--trace", "split-trace.json"], {
            "half1.json": "65aa8f702a1d61b0a8d871a5ef9d37997e2352ca91eff7265f432061e297634c",
            "half2.json": "3f44ddc341f0d02101a604335e45d4063c6f12a0e571f3fe63eed2b5e4e32a0b",
            "split-trace.json":
                "80c8769b476b2f606036fc7806af844801ff7b9de9f41d6b1d61f2cc81c115e2"}),
        ("product-color", "tt", ["--out", "product.json"], {
            "product.json": "4f7a8a00a84d724caefe67beb9de41463d52de400c19a450142ca45db55f69bc"}),
    ])
    def test_reduce_golden_bytes(self, tmp_path, reduction, source, outs, digests):
        fam = (lr_family(random.Random(29), max_members=20) if source == "lr"
               else two_t_family(random.Random(27), max_members=12))
        fam_path = tmp_path / f"{source}.json"
        familyfile.save(fam, str(fam_path))
        argv = ["reduce", reduction, "--family", str(fam_path)]
        argv += [str(tmp_path / a) if a.endswith(".json") else a for a in outs]
        assert main(argv) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    # sha256 of verify-family reports and audit-burling stdout, computed
    # before the probe checks and the audit read one strip sweep
    @pytest.mark.parametrize("k, mutate, code, digest", [
        (3, None, 0, "a79a0c70cde92d7eecbc2a451bf63b2ff3d449fe2bcb8f957339f780d3cdc4bf"),
        (4, None, 0, "fc1280b4b92bad9a335b7a1482271a4c68148d58e86676af42df6e4e766ea27b"),
        (3, _left_part_in_probe_0, 2,
         "508c530b94dc90408eaab616963c3b1506f9de4305f7d866806e55076474a208"),
    ])
    def test_verify_report_golden_bytes(self, tmp_path, k, mutate, code, digest):
        doc = familyfile.burling_to_jsonable(generate(k))
        if mutate is not None:
            mutate(doc)
        fam_path, report = tmp_path / f"x{k}.json", tmp_path / "report.txt"
        fam_path.write_text(familyfile.dump_json(doc))
        assert main(["verify-family", str(fam_path), "--report", str(report)]) == code
        assert ("FAIL probes-avoid-left-parts" in report.read_text()) == bool(code)
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    # sha256 of audit-burling stdout on X_4, pinned with the rank-compressed
    # layout: the same probes and colours as before, at rank coordinates
    @pytest.mark.parametrize("mode, digest", [
        ("1", "8492616a91f0e391268d0441358e147eacdeccefea3d75e990b5d92338192fae"),
        ("7", "10378a0ff79915fb3483e3e49cafa69301d8f8eafc32797757339cb85f7f4d6e"),
        ("9001", "b9729e7ff56582a7430d70867d23b1c20ec1897bf252f0ae354fab78d892299e"),
        ("exact", "2e465e46365109d29af8c7efc07a0b24f6b6b5516609c5b3affd8495c5cdbdd8"),
    ])
    def test_audit_golden_stdout(self, tmp_path, capsys, mode, digest):
        fam_path = str(tmp_path / "x4.json")
        familyfile.save(generate(4), fam_path)
        if mode == "exact":
            col_path = str(tmp_path / "col.json")
            assert main(["color", "--exact", "--family", fam_path, "--out", col_path]) == 0
            capsys.readouterr()
            argv = ["--coloring", col_path]
        else:
            argv = ["--greedy-seed", mode]
        assert main(["audit-burling", fam_path, *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_gen_unrealizable_level(self, tmp_path, capsys):
        assert main(["gen-burling", "--k", "6", "--out", str(tmp_path / "x6.json")]) == 2
        assert "ContractError: level 6 has 2375752501 double-curves" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["gen-burling", "--k", "6", "--out", str(tmp_path / "x6.json"),
                  "--allow-beyond-cap"])
        assert exc.value.code == 2
        assert "--allow-beyond-cap" in capsys.readouterr().err

    def test_gen_deterministic_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["gen-burling", "--k", "2", "--out", p1])
        main(["gen-burling", "--k", "2", "--out", p2])
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_round_trip_through_loader(self, tmp_path):
        p1 = str(tmp_path / "a.json")
        main(["gen-burling", "--k", "2", "--out", p1])
        inst = familyfile.load(p1)
        p2 = str(tmp_path / "b.json")
        familyfile.save(inst, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_verify_failure_exit_code(self, tmp_path):
        # an LR2-tagged family with an M crossing: validation must exit 2
        a = decompose_even_curve(Polyline(
            (P(0, 5), P(0, -1), P(1, -1), P(1, 3), P(6, 3), P(6, -1), P(7, -1),
             P(7, 5)), "hump"))
        b = decompose_even_curve(Polyline(
            (P(3, 6), P(3, -3), P(4, -3), P(4, 6)), "tall"))
        fam = CurveFamily((a, b), FamilyKind.LR)
        path = str(tmp_path / "bad.json")
        familyfile.save(fam, path)
        assert main(["verify-family", path]) == 2

    def test_tangency_fixture_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tangent.json"
        path.write_text(json.dumps({
            "scale": 1, "kind": "even",
            "curves": [{"id": "t", "points": [[0, 1], [1, 0], [2, 1]]}],
        }))
        assert main(["verify-family", str(path)]) == 2
        assert "TangencyError" in capsys.readouterr().err

    def test_bad_node_budget_env(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "k4.txt"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        monkeypatch.setenv("CURVEFAM_NODE_BUDGET", "abc")
        assert main(["color", "--exact", "--graph", str(path)]) == 2
        assert "ContractError" in capsys.readouterr().err

    def test_negative_vertex_count(self, tmp_path, capsys):
        path = tmp_path / "neg.txt"
        path.write_text("-1 0\n")
        assert main(["color", "--exact", "--graph", str(path)]) == 4
        assert "FileFormatError" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["3 1\n0 1 2\n", "3 1\n0\n", "2 1\n0 0\n",
                                      f"{MAX_GENERATED_CURVES + 1} 0\n", "12 1\n0 1_0\n"])
    def test_malformed_edge_row(self, tmp_path, capsys, body):
        # a row of three integers, a row of one, a self-loop, a vertex count
        # just above the cap, rejected before anything is allocated, and a
        # number that int() alone would read as 10
        path = tmp_path / "bad.txt"
        path.write_text(body)
        assert main(["color", "--exact", "--graph", str(path)]) == 4
        assert "FileFormatError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["omega"], ["color", "--exact"],
                                      ["reduce", "mcguinness", "--out", "-"]])
    def test_edge_list_not_utf8(self, tmp_path, capsys, argv):
        # one byte that starts no UTF-8 sequence once ended in an uncaught
        # UnicodeDecodeError
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff")
        assert main([*argv, "--graph", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: FileFormatError: {path}: not UTF-8 text (")
        assert "Traceback" not in err

    @pytest.mark.parametrize("body", ["3 2\n0 1\n1 0\n", "3 3\n0 1\n1 2\n0 1\n"])
    def test_repeated_edge_row(self, tmp_path, capsys, body):
        # the second row names an edge again, reversed or as written
        path = tmp_path / "twice.txt"
        path.write_text(body)
        assert main(["omega", "--graph", str(path)]) == 4
        err = capsys.readouterr().err
        assert "FileFormatError" in err and "repeats an earlier row" in err

    def test_io_error_exit_code(self, tmp_path):
        assert main(["verify-family", str(tmp_path / "missing.json")]) == 4

    def test_budget_exit_code(self, tmp_path):
        fam_path = str(tmp_path / "x3.json")
        main(["gen-burling", "--k", "3", "--out", fam_path])
        assert main(["--node-budget", "1", "color", "--exact",
                     "--family", fam_path]) == 3

    def test_time_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # chi(M_6) = 6 takes about 111,000 solver nodes, far past 1 ms
        path = tmp_path / "m6.txt"
        path.write_text(format_edge_list(mycielskian(6)))
        monkeypatch.delenv("CURVEFAM_NODE_BUDGET", raising=False)
        assert main(["--time-budget-ms", "1", "color", "--exact",
                     "--graph", str(path)]) == 3
        assert "solver time budget exhausted" in capsys.readouterr().err

    def test_time_budget_read_by_tick(self, tmp_path, capsys, monkeypatch):
        # a clock that jumps past the deadline once the budget has read it:
        # the first tick leaves 1,024 nodes, so Budget.tick reads the clock
        path = tmp_path / "c5.txt"
        path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        clock = iter((0.0,))
        monkeypatch.setattr(graphcore, "time", SimpleNamespace(monotonic=lambda: next(clock, 1e9)))
        assert main(["--node-budget", "1025", "--time-budget-ms", "1", "color", "--exact",
                     "--graph", str(path)]) == 3
        assert capsys.readouterr().err == (
            "error: SolverBudgetExceeded: solver time budget exhausted (bounds None..None)\n")

    def test_budget_keeps_proven_lower_bound(self, tmp_path, capsys):
        # c = 2, 3 and 4 are refuted within the budget; the c = 5 refutation
        # (about 111,000 nodes) runs out, and its core's clique of 2 must not
        # lower the bound the refutations proved
        path = tmp_path / "m6.txt"
        path.write_text(format_edge_list(mycielskian(6)))
        assert main(["--node-budget", "100000", "color", "--exact",
                     "--graph", str(path)]) == 3
        assert "(bounds 5..6)" in capsys.readouterr().err

    def test_color_edge_list_k4(self, tmp_path, capsys):
        path = tmp_path / "k4.txt"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        assert main(["color", "--exact", "--graph", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_greedy_requires_seed(self, tmp_path):
        path = tmp_path / "k4.txt"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        assert main(["color", "--greedy", "--graph", str(path)]) == 4

    def test_render(self, tmp_path):
        fam_path = str(tmp_path / "x2.json")
        svg_path = str(tmp_path / "x2.svg")
        main(["gen-burling", "--k", "2", "--out", fam_path])
        assert main(["render", fam_path, "--out", svg_path]) == 0
        body = open(svg_path).read()
        assert body.startswith("<svg") and "polyline" in body and "rect" in body

    def test_audit_builds_one_graph(self, tmp_path, capsys, monkeypatch):
        # the greedy colouring and the audit's properness check share X_3's graph
        fam_path = str(tmp_path / "x3.json")
        familyfile.save(generate(3), fam_path)
        built = []
        real = families.graph_from_edges

        def counting(*args):
            built.append(args[0])
            return real(*args)

        monkeypatch.setattr(families, "graph_from_edges", counting)
        assert main(["audit-burling", fam_path, "--greedy-seed", "11"]) == 0
        assert built == [13]

    def test_product_color_builds_each_graph_once(self, tmp_path, monkeypatch):
        # one graph for the input family, one per split half and one per cell
        fam_path = str(tmp_path / "fam.json")
        familyfile.save(two_t_family(random.Random(9), max_members=8, t=3), fam_path)
        built, halves, cells = [], [], []
        real_graph, real_split = families.graph_from_edges, reductions.split_2t
        real_product = reductions.product_color

        def graph(*args):
            built.append(args[0])
            return real_graph(*args)

        def split(fam):
            pair = real_split(fam)
            halves.extend(pair)
            return pair

        def product(*args, **kwargs):
            res = real_product(*args, **kwargs)
            cells.extend(res.cells)
            return res

        monkeypatch.setattr(families, "graph_from_edges", graph)
        monkeypatch.setattr(reductions, "split_2t", split)
        monkeypatch.setattr(reductions, "product_color", product)
        assert main(["reduce", "product-color", "--family", fam_path,
                     "--out", str(tmp_path / "col.json")]) == 0
        assert {h.kind for h in halves} == {FamilyKind.TWO_T, FamilyKind.ONE_CURVE}
        assert cells and len(built) == 1 + len(halves) + len(cells)

    def test_reduce_pipeline(self, tmp_path, capsys):
        fam = two_t_family(random.Random(9), max_members=6)
        fam_path = str(tmp_path / "fam.json")
        familyfile.save(fam, fam_path)
        out1, out2 = str(tmp_path / "f1.json"), str(tmp_path / "f2.json")
        assert main(["reduce", "split-2t", "--family", fam_path,
                     "--out1", out1, "--out2", out2]) == 0
        f1 = familyfile.load(out1)
        assert f1.kind is FamilyKind.TWO_T and f1.t == 1
        col_path = str(tmp_path / "col.json")
        assert main(["reduce", "product-color", "--family", fam_path,
                     "--out", col_path]) == 0
        doc = json.loads(open(col_path).read())
        assert set(doc["colors"]) == set(fam.ids())

    def test_reduce_component_split_and_rewire(self, tmp_path):
        fam = lr_family(random.Random(13), max_members=10)
        fam_path = str(tmp_path / "fam.json")
        familyfile.save(fam, fam_path)
        trace = str(tmp_path / "trace.json")
        assert main(["reduce", "component-split", "--family", fam_path,
                     "--out", trace]) == 0
        doc = json.loads(open(trace).read())
        assert set(doc["f_same"]) | set(doc["f_diff"]) == set(fam.ids())
        out = str(tmp_path / "rewired.json")
        assert main(["reduce", "rewire", "--family", fam_path, "--out", out,
                     "--trace", str(tmp_path / "rt.json")]) == 0
        back = familyfile.load(out)
        assert back.kind is FamilyKind.LR2

    def test_trace_deterministic_bytes(self, tmp_path):
        fam = lr_family(random.Random(21), max_members=10)
        fam_path = str(tmp_path / "fam.json")
        familyfile.save(fam, fam_path)
        t1, t2 = str(tmp_path / "t1.json"), str(tmp_path / "t2.json")
        assert main(["reduce", "component-split", "--family", fam_path,
                     "--out", t1]) == 0
        assert main(["reduce", "component-split", "--family", fam_path,
                     "--out", t2]) == 0
        assert open(t1, "rb").read() == open(t2, "rb").read()

    def test_greedy_coloring_with_seed(self, tmp_path, capsys):
        fam_path = str(tmp_path / "x2.json")
        main(["gen-burling", "--k", "2", "--out", fam_path])
        col = str(tmp_path / "greedy.json")
        assert main(["color", "--greedy", "--seed", "5", "--family", fam_path,
                     "--out", col]) == 0
        doc = json.loads(open(col).read())
        assert doc["palette"] >= 2 and len(doc["colors"]) == 3

    def test_reduce_mcguinness(self, tmp_path):
        path = tmp_path / "k6.txt"
        import itertools

        edges = list(itertools.combinations(range(6), 2))
        path.write_text(f"6 {len(edges)}\n" +
                        "".join(f"{u} {v}\n" for u, v in edges))
        trace = str(tmp_path / "mc.json")
        assert main(["reduce", "mcguinness", "--graph", str(path),
                     "--alpha", "1", "--beta", "1", "--out", trace]) == 0
        doc = json.loads(open(trace).read())
        assert doc["chi_h"] > 1
        assert all(v > 1 for v in doc["edge_between_chi"].values())


class TestOneParserPerProcess:
    """Later main() calls in one process see none of an earlier call's flags."""

    def test_greedy_seed_not_kept(self, tmp_path, capsys):
        path = tmp_path / "k4.txt"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        assert main(["color", "--greedy", "--seed", "7", "--graph", str(path)]) == 0
        capsys.readouterr()
        assert main(["color", "--greedy", "--graph", str(path)]) == 4
        assert "--greedy needs --seed" in capsys.readouterr().err

    def test_audit_greedy_seed_not_kept(self, tmp_path, capsys):
        fam_path = str(tmp_path / "x2.json")
        familyfile.save(generate(2), fam_path)
        assert main(["audit-burling", fam_path, "--greedy-seed", "1"]) == 0
        capsys.readouterr()
        assert main(["audit-burling", fam_path]) == 4
        assert "needs --coloring or --greedy-seed" in capsys.readouterr().err

    def test_mcguinness_seed_not_kept(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(graph_with_chi_above(random.Random(2), 4)))
        seeded, later, fresh = (str(tmp_path / f"{name}.json")
                                for name in ("seeded", "later", "fresh"))
        argv = ["reduce", "mcguinness", "--graph", str(path)]
        assert main([*argv, "--seed", "3", "--out", seeded]) == 0
        assert main([*argv, "--out", later]) == 0
        proc = subprocess.run([sys.executable, "-m", "curvefam.cli", *argv, "--out", fresh],
                              env=_src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        body = {p: open(p, "rb").read() for p in (seeded, later, fresh)}
        assert body[later] == body[fresh]
        assert body[seeded] != body[fresh]     # the seed changes the trace


def test_bench_job_digests_ignore_the_hash_seed():
    # one pass of the probe-x4 and reduce-lr job lists under two string hash
    # seeds: exit codes, output and written files must not depend on them
    script = pathlib.Path(__file__).with_name("job_digest.py")
    argv = [sys.executable, str(script), "--workload", "probe-x4", "--workload", "reduce-lr"]
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
             for seed in ("1", "2")]
    try:
        runs = [(proc.communicate(timeout=300), proc.returncode) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert runs[0][1] == 0, runs[0][0][1]
    assert runs[1] == runs[0]
    assert [line.split()[:3] for line in runs[0][0][0].splitlines()] == [
        ["probe-x4", "seed=9001", "jobs=8"], ["reduce-lr", "seed=9001", "jobs=120"]]
