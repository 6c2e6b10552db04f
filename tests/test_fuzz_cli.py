"""A bounded fuzz test of the CLI on family files.

Each example takes a small LR, 2t or X_2 family document, changes one or
two of its fields (a new value, a value copied from elsewhere in the
document, or a deleted field), and runs every subcommand that reads a
family file on it. Every run must end in exit 0, 2, 3 or 4; an uncaught
exception fails the test. The 300 examples are derandomized, so a run is
repeatable; they take about 2 s on a 2-vCPU host.
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
