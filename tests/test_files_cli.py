import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import curvefam
from curvefam import cli, familyfile, reductions
from curvefam.burling import generate
from curvefam.cli import main
from curvefam.errors import FileFormatError
from curvefam.families import CurveFamily, FamilyKind, decompose_even_curve
from curvefam.geometry import Point as P, Polyline
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


def _left_part_in_probe_0(doc):
    lo, hi = doc["probes"][0]
    gadget = next(c for c in doc["curves"] if c["id"] == "p0.g0.0")
    top = gadget["parts"][0][1][1]
    gadget["parts"][0] = [[(lo + hi) // 2, 0], [(lo + hi) // 2, top]]


def _write_two_t(tmp_path) -> str:
    fam = two_t_family(random.Random(9), max_members=6)
    assert build_graph(fam.members).m > 0
    path = str(tmp_path / "fam.json")
    familyfile.save(fam, path)
    return path


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

    def test_improper_exact_witness_rejected(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "path.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        monkeypatch.setattr(cli, "chromatic_number",
                            lambda g, budget=None: (1, Coloring((0,) * g.n)))
        assert main(["color", "--exact", "--graph", str(path)]) == 2
        assert "ImproperColoring" in capsys.readouterr().err

    def test_improper_product_coloring_rejected(self, tmp_path, capsys, monkeypatch):
        fam_path = _write_two_t(tmp_path)
        monkeypatch.setattr(reductions, "two_t_product_coloring",
                            lambda fam, budget=None: {m.id: 0 for m in fam.members})
        assert main(["reduce", "product-color", "--family", fam_path,
                     "--out", str(tmp_path / "col.json")]) == 2
        assert "ImproperColoring" in capsys.readouterr().err


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

    @pytest.mark.parametrize("body", ["3 1\n0 1 2\n", "3 1\n0\n", "2 1\n0 0\n"])
    def test_malformed_edge_row(self, tmp_path, capsys, body):
        # a row of three integers, a row of one, and a self-loop
        path = tmp_path / "bad.txt"
        path.write_text(body)
        assert main(["color", "--exact", "--graph", str(path)]) == 4
        assert "FileFormatError" in capsys.readouterr().err

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
