"""Batch command-line entry point.

Subcommands: gen-burling, verify-family, color, omega, reduce
(component-split | rewire | split-2t | product-color | mcguinness),
audit-burling, render. All randomness flows from explicit seeds and outputs
carry no timestamps, so identical configurations produce byte-identical
files. Exit codes: 0 ok, 2 validation failure, 3 solver budget exhausted,
4 I/O or format error.

The default solver node budget comes from the CURVEFAM_NODE_BUDGET
environment variable.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from . import burling, familyfile, reductions, svgrender
from .errors import (
    CurvefamError,
    FileFormatError,
    ImproperColoring,
    SolverBudgetExceeded,
)
from .families import CurveFamily, FamilyKind, validate_lr
from .graphcore import (
    Budget,
    Coloring,
    chromatic_number,
    clique_number,
    format_edge_list,
    greedy_coloring,
    is_proper,
    parse_edge_list,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(args.node_budget, args.time_budget_ms)


def _load_graph(args: argparse.Namespace):
    if args.family is not None:
        return familyfile.load(args.family).graph()
    if args.graph is None:
        raise FileFormatError("reduce mcguinness needs --family or --graph")
    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{args.graph}: not UTF-8 text ({exc})") from None
    return parse_edge_list(text)


def _load_coloring(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:   # not JSON, not UTF-8, or too deep
        raise FileFormatError(f"{path}: bad coloring file ({exc})") from None
    colors = doc.get("colors") if isinstance(doc, dict) else None
    if not isinstance(colors, dict):
        raise FileFormatError("coloring file needs a colors object")
    return {k: familyfile._typed(v, int, f"color of {k!r}") for k, v in colors.items()}


def _check_proper(g, witness: Coloring) -> None:
    ok, edge = is_proper(g, witness)
    if not ok:
        raise ImproperColoring((g.labels[edge[0]], g.labels[edge[1]]))


def _coloring_doc(colors: dict) -> str:
    palette = len(set(colors.values()))
    return familyfile.dump_json({"colors": colors, "palette": palette})


def _cmd_gen_burling(args: argparse.Namespace) -> int:
    inst = burling.generate(args.k)
    familyfile.save(inst, args.out)
    if args.svg:
        _write(args.svg, svgrender.render_family(inst))
    boxes = [part.bbox for m in inst.members for part in m.polylines()]
    print(f"generated k={inst.k}: {len(inst.members)} double-curves, "
          f"{len(inst.probes)} probes, max x {max(b[2] for b in boxes)}, "
          f"max y {max(b[3] for b in boxes)}")
    return EXIT_OK


def _cmd_verify_family(args: argparse.Namespace) -> int:
    obj = familyfile.load(args.file)
    lines = []
    ok = True
    if isinstance(obj, burling.BurlingInstance):
        report = burling.verify_properties(obj)
        lines.extend(report.lines())
        ok = report.ok
    else:
        lines.append(f"kind={obj.kind.value} members={len(obj.members)} "
                     "structural validation passed")
        if obj.kind in (FamilyKind.LR, FamilyKind.LR2):
            res = validate_lr(obj)
            if res.ok:
                lines.append(f"PASS lr-family: {res.checked_pairs} pairs checked")
            else:
                ok = False
                lines.extend(res.report_lines())
    text = "\n".join(lines) + "\n"
    _write(args.report, text)
    if args.report not in (None, "-"):
        print(f"report written to {args.report}")
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_color(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if args.exact:
        chi, witness = chromatic_number(g, budget=_budget(args))
        print(chi)
    else:
        if args.seed is None:
            raise FileFormatError("--greedy needs --seed")
        order = list(range(g.n))
        random.Random(args.seed).shuffle(order)
        witness = greedy_coloring(g, order)
        print(witness.num_colors)
    _check_proper(g, witness)
    if args.out:
        _write(args.out, _coloring_doc(witness.as_label_map(g)))
    return EXIT_OK


def _cmd_omega(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if args.export_graph:
        _write(args.export_graph, format_edge_list(g))
    print(clique_number(g, budget=_budget(args)))
    return EXIT_OK


def _cmd_audit_burling(args: argparse.Namespace) -> int:
    obj = familyfile.load(args.file)
    if not isinstance(obj, burling.BurlingInstance):
        raise FileFormatError("audit-burling needs a double-curve family file")
    if args.coloring:
        cmap = _load_coloring(args.coloring)
    else:
        if args.greedy_seed is None:
            raise FileFormatError("audit-burling needs --coloring or --greedy-seed")
        g = obj.graph()
        order = list(range(g.n))
        random.Random(args.greedy_seed).shuffle(order)
        witness = greedy_coloring(g, order)
        cmap = witness.as_label_map(g)
    res = burling.audit_coloring(obj, cmap)
    print(f"probe {res.probe_index} [{res.probe.x_lo},{res.probe.x_hi}] carries "
          f"{len(res.colors)} colors: {sorted(res.colors)}")
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    obj = familyfile.load(args.file)
    _write(args.out, svgrender.render_family(obj))
    return EXIT_OK


def _require_two_t(obj) -> CurveFamily:
    if not isinstance(obj, CurveFamily) or obj.kind is not FamilyKind.TWO_T:
        raise FileFormatError("this reduction needs a two_t family file")
    return obj


# The flags each reduction reads; argparse cannot require a flag per choice.
_REDUCE_FLAGS = {"component-split": ("family",), "rewire": ("family", "out"),
                 "split-2t": ("family", "out1", "out2"), "product-color": ("family",)}


def _cmd_reduce(args: argparse.Namespace) -> int:
    sub = args.reduction
    for flag in _REDUCE_FLAGS.get(sub, ()):
        if getattr(args, flag) is None:
            raise FileFormatError(f"reduce {sub} needs --{flag}")
    if sub == "component-split":
        fam = familyfile.load(args.family)
        split = reductions.component_split(fam)
        coloring = reductions.color_cross_component(split, budget=_budget(args))
        trace = {
            "operation": "component-split",
            "components": [sorted(f"{mid}.{side}" for mid, side in comp)
                           for comp in split.components],
            "f_same": list(split.f_same),
            "f_diff": list(split.f_diff),
            "cross_component_coloring": coloring.coloring,
            "palette": coloring.palette,
        }
        _write(args.out, familyfile.dump_json(trace))
        return EXIT_OK

    if sub == "rewire":
        fam = familyfile.load(args.family)
        if not isinstance(fam, CurveFamily):
            raise FileFormatError("reduce rewire needs an even-curve family file")
        out = reductions.rewire_semicircles(fam)
        familyfile.save(out, args.out)
        before, after = fam.graph(), out.graph()
        preserved = (before.labels == after.labels and before.adj == after.adj)
        if args.trace:
            _write(args.trace, familyfile.dump_json({
                "operation": "rewire",
                "members": out.ids(),
                "lr_certified": True,
                "graph_preserved": preserved,
            }))
        if not preserved:
            raise CurvefamError("rewiring changed the intersection graph")
        return EXIT_OK

    if sub == "split-2t":
        fam = _require_two_t(familyfile.load(args.family))
        f1, f2 = reductions.split_2t(fam)
        familyfile.save(f1, args.out1)
        familyfile.save(f2, args.out2)
        if args.trace:
            _write(args.trace, familyfile.dump_json({
                "operation": "split-2t",
                "t": fam.t,
                "derived_kinds": [f1.kind.value, f2.kind.value],
                "members": fam.ids(),
            }))
        return EXIT_OK

    if sub == "product-color":
        fam = _require_two_t(familyfile.load(args.family))
        coloring = reductions.two_t_product_coloring(fam, budget=_budget(args))
        g = fam.graph()
        _check_proper(g, Coloring(tuple(coloring[m.id] for m in fam.members)))
        _write(args.out, _coloring_doc(coloring))
        return EXIT_OK

    # mcguinness, the last of the parser's choices
    g = _load_graph(args)
    order = list(range(g.n))
    if args.seed is not None:
        random.Random(args.seed).shuffle(order)
    res = reductions.mcguinness_subgraph(g, order, args.alpha, args.beta, budget=_budget(args))
    trace = {
        "operation": "mcguinness",
        "alpha": args.alpha,
        "beta": args.beta,
        "chi_host": res.chi_host,
        "threshold": res.threshold,
        "blocks": [list(b) for b in res.blocks],
        "class_index": res.class_index,
        "parity": res.parity,
        "h_vertices": list(res.h_vertices),
        "chi_h": res.chi_h,
        "edge_between_chi": {f"{u},{v}": chi
                             for (u, v), chi in sorted(res.edge_between_chi.items())},
    }
    _write(args.out, familyfile.dump_json(trace))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curvefam",
        description="Exact toolkit for baseline-anchored curve families")
    ap.add_argument("--node-budget", type=int, default=None,
                    help="solver node budget (default: CURVEFAM_NODE_BUDGET)")
    ap.add_argument("--time-budget-ms", type=int, default=None,
                    help="solver wall-time budget in milliseconds")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-burling", help="generate a probe-construction instance")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--svg")

    v = sub.add_parser("verify-family", help="validate a family file")
    v.add_argument("file")
    v.add_argument("--report", default=None)

    c = sub.add_parser("color", help="color a family or edge-list graph")
    mode = c.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--greedy", action="store_true")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--family")
    src.add_argument("--graph")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--out", default=None)

    o = sub.add_parser("omega", help="exact clique number")
    src = o.add_mutually_exclusive_group(required=True)
    src.add_argument("--family")
    src.add_argument("--graph")
    o.add_argument("--export-graph", default=None,
                   help="also write the intersection graph as an edge list")

    r = sub.add_parser("reduce", help="run a constructive reduction")
    r.add_argument("reduction", choices=["component-split", "rewire", "split-2t",
                                         "product-color", "mcguinness"])
    r.add_argument("--family")
    r.add_argument("--graph")
    r.add_argument("--out", default=None)
    r.add_argument("--out1")
    r.add_argument("--out2")
    r.add_argument("--trace", default=None)
    r.add_argument("--alpha", type=int, default=1)
    r.add_argument("--beta", type=int, default=1)
    r.add_argument("--seed", type=int, default=None)

    a = sub.add_parser("audit-burling", help="audit a coloring of an instance")
    a.add_argument("file")
    a.add_argument("--coloring")
    a.add_argument("--greedy-seed", type=int, default=None)

    d = sub.add_parser("render", help="render a family file to SVG")
    d.add_argument("file")
    d.add_argument("--out", required=True)
    return ap


_HANDLERS = {
    "gen-burling": _cmd_gen_burling,
    "verify-family": _cmd_verify_family,
    "color": _cmd_color,
    "omega": _cmd_omega,
    "reduce": _cmd_reduce,
    "audit-burling": _cmd_audit_burling,
    "render": _cmd_render,
}
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SolverBudgetExceeded as exc:
        print(f"error: SolverBudgetExceeded: {exc} "
              f"(bounds {exc.lower}..{exc.upper})", file=sys.stderr)
        return EXIT_BUDGET
    except (FileFormatError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_IO
    except CurvefamError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
