"""A bounded fuzz test of the CLI on family files, edge-list files,
node-budget values, colouring files and argument lists.

Each family example takes a small LR, 2t or X_2 family document, changes
one or two of its fields (a new value, a value copied from elsewhere in the
document, or a deleted field), and runs every subcommand that reads a
family file on it. Each edge-list example changes the lines, tokens or
bytes of a small valid edge list and runs every subcommand that reads one.
Each budget example sets CURVEFAM_NODE_BUDGET and runs the solver
subcommands on the valid edge list. Each colouring example breaks a proper
colouring file of X_2 and runs `audit-burling --coloring` on it. Each argv
example changes a few tokens of a valid command over files in the test's
own directory. Every run must end in exit 0, 2, 3 or 4, or in argparse's
SystemExit(2); an uncaught exception fails the test. The examples are
derandomized, so a run is repeatable; the five tests take about 4 s on a
2-vCPU host.
"""

from __future__ import annotations

import copy
import functools
import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvefam import familyfile
from curvefam.burling import generate
from curvefam.cli import main
from curvefam.geometry import MAX_GENERATED_CURVES
from curvefam.graphcore import greedy_coloring
from generators import lr_family, two_t_family


@functools.cache
def _documents() -> dict:
    return {
        "lr": familyfile.family_to_jsonable(lr_family(random.Random(5), max_members=5)),
        "two_t": familyfile.family_to_jsonable(two_t_family(random.Random(6), max_members=4)),
        "x2": familyfile.burling_to_jsonable(generate(2)),
    }


def _places(node, path=()) -> list:
    """The path of every value inside a JSON document, in document order."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, value in items:
        out.append(path + (key,))
        out.extend(_places(value, path + (key,)))
    return out


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_VALUES = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([2**62, 2**62 + 1, -2**63, 10**30, True, False, None, 0.5,
                     float("inf"), float("nan"), "", "x", "lr", "lr2", "two_t", "even",
                     "one_curve", "double", [], {}, [0], [0, 0], [1, 1, 1],
                     [[0, 0], [0, 1]], [[0, 1], [0, -1], [2, -1], [2, 1]],
                     {"id": "z"}, {"id": "z", "points": []}]))


@st.composite
def _mutated(draw):
    """(kind, document) with one or two fields changed."""
    kind = draw(st.sampled_from(sorted(_documents())))
    doc = copy.deepcopy(_documents()[kind])
    for _ in range(draw(st.integers(1, 2))):
        places = _places(doc)
        path = draw(st.sampled_from(places))
        parent, key = _get(doc, path[:-1]), path[-1]
        how = draw(st.sampled_from(["set", "copy", "drop"]))
        if how == "drop":
            del parent[key]
        elif how == "copy":
            parent[key] = copy.deepcopy(_get(doc, draw(st.sampled_from(places))))
        else:
            parent[key] = copy.deepcopy(draw(_VALUES))     # a later change may edit it
    return kind, doc


# Every subcommand that reads a family file, with its outputs in the work
# directory; the node budget bounds an exact search on a mutated graph.
_COMMANDS = (
    ["verify-family", "{f}"],
    ["color", "--exact", "--family", "{f}", "--out", "{d}/color.json"],
    ["omega", "--family", "{f}"],
    ["render", "{f}", "--out", "{d}/family.svg"],
    ["audit-burling", "{f}", "--greedy-seed", "1"],
    ["reduce", "component-split", "--family", "{f}", "--out", "{d}/split.json"],
    ["reduce", "rewire", "--family", "{f}", "--out", "{d}/rewired.json",
     "--trace", "{d}/rewire-trace.json"],
    ["reduce", "split-2t", "--family", "{f}", "--out1", "{d}/half1.json",
     "--out2", "{d}/half2.json"],
    ["reduce", "product-color", "--family", "{f}", "--out", "{d}/product.json"],
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_mutated())
def test_mutated_family_files_exit_cleanly(tmp_path, capsys, case):
    kind, doc = case
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    for command in _COMMANDS:
        argv = [a.format(f=path, d=tmp_path) for a in command]
        code = main(["--node-budget", "20000", *argv])
        assert code in (0, 2, 3, 4), (argv, code)
    capsys.readouterr()


# The wheel W_5 (hub 5): chi 4, omega 3.
_EDGE_LIST = (b"6 10", b"0 1", b"1 2", b"2 3", b"3 4", b"0 4",
              b"0 5", b"1 5", b"2 5", b"3 5", b"4 5")

_TOKENS = st.one_of(
    st.integers(-3, 12).map(lambda v: str(v).encode()),
    st.sampled_from([b"", b"x", b"1.5", b"0x1", b"1e3", b"nan", b"#", b"-0", b"+3", b"+0",
                     b"1_0", "\uff11".encode(), "\uff10".encode(), b"\xff", b"\xc3(",
                     b"\xed\xa0\x80", b"9" * 5000,
                     str(2**62).encode(), str(-2**63).encode(),
                     str(MAX_GENERATED_CURVES + 1).encode()]))


@st.composite
def _mutated_edge_list(draw) -> bytes:
    """The edge list with one to three of its lines, tokens or bytes changed."""
    lines = [line.split() for line in _EDGE_LIST]
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["set", "add", "drop", "drop line", "copy line",
                                    "new line", "swap lines", "bytes"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else None
        if i is None or how == "new line":
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.lists(_TOKENS, min_size=1, max_size=3)))
        elif how == "drop line":
            del lines[i]
        elif how == "copy line":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[i]))
        elif how == "swap lines":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif how == "add":
            lines[i].insert(draw(st.integers(0, len(lines[i]))), draw(_TOKENS))
        elif lines[i] and how in ("set", "drop"):
            k = draw(st.integers(0, len(lines[i]) - 1))
            if how == "set":
                lines[i][k] = draw(_TOKENS)
            else:
                del lines[i][k]
        elif how == "bytes":                    # bytes spliced into a token or a gap
            lines[i].append(draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\r",
                                                  b"\t", b"\x0b", b"\xe2\x80\xa8"])))
            lines[i] = [b"".join(lines[i])] if draw(st.booleans()) else lines[i]
    return b"\n".join(b" ".join(line) for line in lines) + b"\n"


# Every subcommand that reads an edge list, in both colouring modes.
_GRAPH_COMMANDS = (
    ["omega", "--graph", "{f}", "--export-graph", "{d}/graph.txt"],
    ["color", "--exact", "--graph", "{f}", "--out", "{d}/color.json"],
    ["color", "--greedy", "--seed", "3", "--graph", "{f}", "--out", "{d}/greedy.json"],
    ["reduce", "mcguinness", "--graph", "{f}", "--out", "{d}/trace.json"],
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_mutated_edge_list())
def test_mutated_edge_lists_exit_cleanly(tmp_path, capsys, body):
    path = tmp_path / "graph.txt"
    path.write_bytes(body)
    for command in _GRAPH_COMMANDS:
        argv = [a.format(f=path, d=tmp_path) for a in command]
        code = main(["--node-budget", "20000", *argv])
        assert code in (0, 2, 3, 4), (argv, code)
    capsys.readouterr()


_BUDGETS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", " ", "x", "1.5", "1e3", "0x10", "20000", " 20000 ", "+7", "-0",
                     "1_000", "\uff11\uff12", "\t5\n", "nan", "9" * 5000, str(2**62),
                     str(-2**63)]))


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_BUDGETS)
def test_node_budget_values_exit_cleanly(tmp_path, capsys, monkeypatch, raw):
    path = tmp_path / "graph.txt"
    path.write_bytes(b"\n".join(_EDGE_LIST) + b"\n")
    monkeypatch.setenv("CURVEFAM_NODE_BUDGET", raw)
    for command in _GRAPH_COMMANDS:
        argv = [a.format(f=path, d=tmp_path) for a in command]
        code = main(argv)
        assert code in (0, 2, 3, 4), (argv, raw, code)
    capsys.readouterr()


@functools.cache
def _coloring_document() -> dict:
    """A proper greedy colouring of X_2, as `color --out` writes it."""
    g = generate(2).graph()
    return {"colors": greedy_coloring(g, list(range(g.n))).as_label_map(g)}


_COLORS = st.one_of(
    st.integers(-3, 6),
    st.sampled_from([True, False, None, 0.0, 1.5, float("inf"), "0", "red", "", [], {},
                     [1], 2**62, 2**63, -2**63, 10**30, 10**400]))


@st.composite
def _mutated_coloring(draw) -> bytes:
    """The X_2 colouring file with its top level, its colors object or some
    of its members' colours changed, or its bytes broken."""
    doc = copy.deepcopy(_coloring_document())
    colors = doc["colors"]
    ids = sorted(colors)
    how = draw(st.sampled_from(["non-object", "no colors", "colors value", "colour",
                                "drop members", "extra member", "bytes"]))
    if how == "non-object":
        doc = draw(st.sampled_from([[], [doc], 3, "colors", None, True]))
    elif how == "no colors":
        doc = {"palette": 3, "Colors": colors}
    elif how == "colors value":
        doc["colors"] = draw(st.sampled_from([[], list(colors.items()), 0, "x", None]))
    elif how == "colour":
        for mid in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3)):
            colors[mid] = draw(_COLORS)
    elif how == "drop members":
        for mid in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids),
                                 unique=True)):
            del colors[mid]
    elif how == "extra member":
        colors[draw(st.sampled_from(["", "zz", "o", ids[0] + " "]))] = draw(_COLORS)
    else:
        return draw(st.sampled_from([b"", b"{", b"\xff\xfe", b"[" * 100_000,
                                     b'{"colors": {"o": 1e999}}', b'{"colors": NaN}']))
    return json.dumps(doc).encode()


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_coloring())
def test_mutated_coloring_files_exit_cleanly(tmp_path, capsys, body):
    family, coloring = tmp_path / "x2.json", tmp_path / "coloring.json"
    if not family.exists():
        family.write_text(json.dumps(_documents()["x2"]))
    coloring.write_bytes(body)
    code = main(["audit-burling", str(family), "--coloring", str(coloring)])
    assert code in (0, 2, 3, 4), code
    capsys.readouterr()


# Valid commands of every subcommand over the inputs of _write_inputs; argv
# examples change a few of their tokens. Every integer token is in 0..4, so
# gen-burling never builds a level above X_4.
_ARGV = (
    ["gen-burling", "--k", "2", "--out", "{d}/gen.json", "--svg", "{d}/gen.svg"],
    ["verify-family", "{d}/lr.json", "--report", "{d}/report.txt"],
    ["color", "--exact", "--family", "{d}/x2.json", "--out", "{d}/color.json"],
    ["color", "--greedy", "--seed", "3", "--graph", "{d}/graph.txt"],
    ["omega", "--family", "{d}/two_t.json", "--export-graph", "{d}/graph-out.txt"],
    ["reduce", "component-split", "--family", "{d}/lr.json", "--out", "{d}/split.json"],
    ["reduce", "rewire", "--family", "{d}/lr.json", "--out", "{d}/rewired.json",
     "--trace", "{d}/trace.json"],
    ["reduce", "split-2t", "--family", "{d}/two_t.json", "--out1", "{d}/h1.json",
     "--out2", "{d}/h2.json"],
    ["reduce", "product-color", "--family", "{d}/two_t.json", "--out", "{d}/product.json"],
    ["reduce", "mcguinness", "--graph", "{d}/graph.txt", "--alpha", "1", "--beta", "2",
     "--seed", "4", "--out", "{d}/mcg.json"],
    ["audit-burling", "{d}/x2.json", "--coloring", "{d}/coloring.json"],
    ["render", "{d}/x2.json", "--out", "{d}/x2.svg"],
)

_ARGV_VALUES = st.one_of(
    st.integers(0, 4).map(str),
    st.sampled_from(["{d}", "{d}/missing.json", "{d}/gen.json", "{d}/x2.json",
                     "{d}/lr.json", "{d}/two_t.json", "{d}/graph.txt", "{d}/coloring.json",
                     "", "x", "rewire", "split-2t"]))
_ARGV_FLAGS = st.sampled_from(
    sorted({t for argv in _ARGV for t in argv if t.startswith("--")})
    + ["--node-budget", "--time-budget-ms", "--graph", "--family", "--coloring",
       "--greedy-seed", "verify-family", "render"])


@st.composite
def _mutated_argv(draw) -> list:
    """A command of _ARGV with up to two values replaced and up to one flag
    dropped, inserted or swapped, and maybe a global option in front."""
    argv = list(draw(st.sampled_from(_ARGV)))
    values = [i for i, t in enumerate(argv) if i and not t.startswith("--")]
    for i in draw(st.lists(st.sampled_from(values), max_size=2)):
        argv[i] = draw(_ARGV_VALUES)
    how = draw(st.sampled_from(["none", "drop", "insert", "swap"]))
    i = draw(st.integers(0, len(argv) - 1))
    if how == "drop":
        del argv[i]
    elif how == "insert":
        argv[i:i] = [draw(_ARGV_FLAGS)] + draw(st.lists(_ARGV_VALUES, max_size=1))
    elif how == "swap":
        j = draw(st.integers(0, len(argv) - 1))
        argv[i], argv[j] = argv[j], argv[i]
    return draw(st.sampled_from([[], ["--node-budget", "20000"],
                                 ["--time-budget-ms", "0"]])) + argv


def _write_inputs(d) -> None:
    for kind, doc in _documents().items():
        (d / f"{kind}.json").write_text(json.dumps(doc))
    (d / "graph.txt").write_bytes(b"\n".join(_EDGE_LIST) + b"\n")
    (d / "coloring.json").write_text(json.dumps(_coloring_document()))


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_mutated_argv())
def test_mutated_argv_exits_cleanly(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)         # a value token may become a relative output path
    _write_inputs(tmp_path)
    argv = [a.format(d=tmp_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:           # argparse rejects its arguments
        assert exc.code == 2, argv
    else:
        assert code in (0, 2, 3, 4), (argv, code)
    capsys.readouterr()
