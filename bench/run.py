"""Benchmark of the curvefam CLI, one workload per process.

    python3 bench/run.py --workload probe-x4 --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client. A job is one in-process call of
`curvefam.cli.main(argv)` on inputs made during set-up from --seed; the next
job starts when the previous one returns. There are no threads and no
subprocesses, so no queue forms and no wait time exists to report.

A run sets up SETUP_REPEATS times (fresh import, inputs, warm-up) and keeps
the last set-up; the median is `setup_s`. It then runs jobs until their
summed wall time reaches --seconds and at least MIN_JOBS jobs ran. Every
output is checked outside the timed region, and a job that exits nonzero,
raises or fails its check counts as failed. Reported times are wall times
rescaled by the host speed gauge (speed.py); raw figures are printed too.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same untraced
loop, then installs the span tracer (tracing.py) and runs it again, and
prints the per-layer metrics; spans are written to
.bench_work/traces/<workload>-seed<seed>.json.gz. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3
MIN_JOBS = 100
# A run must end within 180 s; the loops stop early at these marks (seconds
# after start) even if they have not reached --seconds or MIN_JOBS.
UNTRACED_END_S = {0: 165, 1: 80}
TRACED_END_S = 165

import checks  # noqa: E402  (the bench directory is sys.path[0])
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Job kinds, named as CLI subcommands; `cli.<kind>.p50_ms` is reported for each.
CLI_KINDS = ("gen-burling", "verify-family", "verify-family.x3", "color", "omega", "audit-burling", "render",
             "reduce.component-split", "reduce.rewire", "reduce.split-2t",
             "reduce.product-color", "reduce.mcguinness")
LAYERS = ("cli", "geometry", "families", "graphcore", "reductions", "burling",
          "familyfile", "svgrender")
REDUCTIONS = ("component_split", "color_cross_component", "rewire_semicircles",
              "split_2t", "product_color", "mcguinness_subgraph")


# Calling the CLI in-process ------------------------------------------------

@dataclass
class CallResult:
    rc: object
    out: str
    err: str
    ns: int
    exc: object = None


def fresh_cli():
    """Import curvefam from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "curvefam" or m.startswith("curvefam.")]:
        del sys.modules[name]
    cli = importlib.import_module("curvefam.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"curvefam was imported from {cli.__file__}, not from {SRC}")
    return cli


def make_caller(cli):
    def call(argv) -> CallResult:
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                rc = cli.main(list(argv))
            except SystemExit as e:          # argparse rejects its arguments
                rc = e.code
            except Exception as e:           # a crash is a failed job, not a failed run
                exc = e
            ns = time.perf_counter_ns() - t0
        return CallResult(rc, out.getvalue(), err.getvalue(), ns, exc)
    return call


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def verify(job, res: CallResult, refs: dict):
    """None if the job succeeded, else a one-line reason."""
    if res.exc is not None:
        return f"raised {type(res.exc).__name__}: {res.exc}"
    if res.rc != 0:
        return f"exit {res.rc}: {res.err.strip()[:200]}"
    try:
        if job.pinned:
            stdout, blobs = refs[tuple(job.argv)]
            if res.out != stdout:
                return "stdout differs from the set-up reference"
            for path, blob in zip(job.outputs, blobs):
                if _read(path) != blob:
                    return f"{os.path.basename(path)} differs from the set-up reference"
        job.check(res.out)
    except checks.CheckFailed as e:
        return str(e)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
    return None


# Set-up --------------------------------------------------------------------

@dataclass
class Setup:
    call: object
    jobs: list
    refs: dict
    seconds: float
    failures: list


def set_up(workload, seed: int, work: str) -> Setup:
    """Import, make inputs and warm up once; check the warm-up outside the clock.

    Warm-up runs the first job of each kind and every distinct pinned job,
    whose outputs become the references later runs must repeat.
    """
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    cli = fresh_cli()
    call = make_caller(cli)
    os.makedirs(work)
    jobs = workload.build(random.Random(seed), work, call)
    elapsed = time.perf_counter() - t0

    refs, failures, kinds = {}, [], set()
    for job in jobs:
        key = tuple(job.argv)
        if key in refs or (job.kind in kinds and not job.pinned):
            continue
        kinds.add(job.kind)
        t0 = time.perf_counter()
        res = call(job.argv)
        if job.pinned:
            refs[key] = (res.out, [_read(p) if os.path.exists(p) else b"" for p in job.outputs])
        else:
            refs[key] = None
        elapsed += time.perf_counter() - t0
        reason = verify(job, res, refs)
        if reason:
            failures.append((job.kind, reason))
    return Setup(call, jobs, {k: v for k, v in refs.items() if v is not None},
                 elapsed, failures)


# The closed loop -----------------------------------------------------------

@dataclass
class Phase:
    lat_ns: list = field(default_factory=list)       # raw job wall times
    kinds: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    gauge: speed.Gauge = field(default_factory=speed.Gauge)

    def scaled_ns(self) -> list:
        """Job times rescaled to the gauge's nominal host speed (speed.py)."""
        return [ns * self.gauge.factor(i) for i, ns in enumerate(self.lat_ns)]

    def jobs_per_s(self, scaled: bool = True) -> float:
        times = self.scaled_ns() if scaled else self.lat_ns
        return len(times) / (sum(times) / 1e9)


def run_loop(setup: Setup, seconds: float, deadline: float, tracer=None) -> Phase:
    phase = Phase()
    phase.gauge.take(0, 3)
    jobs, total, since_gauge = setup.jobs, 0, 0
    while (total < seconds * 1e9 or len(phase.lat_ns) < MIN_JOBS) \
            and time.monotonic() < deadline:
        i = len(phase.lat_ns)
        job = jobs[i % len(jobs)]
        if tracer is not None:
            tracer.begin_job(i)
        res = setup.call(job.argv)
        if tracer is not None:
            tracer.end_job()
        total += res.ns
        since_gauge += res.ns
        phase.lat_ns.append(res.ns)
        phase.kinds.append(job.kind)
        reason = verify(job, res, setup.refs)
        if reason:
            phase.failures.append((job.kind, reason))
        if since_gauge >= speed.EVERY_NS:
            phase.gauge.take(len(phase.lat_ns))
            since_gauge = 0
    phase.gauge.take(len(phase.lat_ns), 3)
    return phase


def quantile_ms(lat_ns, q: int) -> float:
    """q-th percentile (inclusive method) in milliseconds."""
    if len(lat_ns) == 1:
        return lat_ns[0] / 1e6
    return statistics.quantiles(lat_ns, n=100, method="inclusive")[q - 1] / 1e6


# Metrics -------------------------------------------------------------------

def end_to_end(phase: Phase, setup_s: float) -> dict:
    """End-to-end metrics; times are scaled to the gauge's nominal speed."""
    scaled = phase.scaled_ns()
    return {
        "jobs_per_s": phase.jobs_per_s(),
        "latency_p50_ms": statistics.median(scaled) / 1e6,
        "latency_p90_ms": quantile_ms(scaled, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: tracing.Tracer, untraced: Phase, traced: Phase) -> dict:
    """Per-job layer figures from the traced phase, plus CLI times untraced.

    A figure for a layer or subcommand the workload never runs reads 0.
    """
    jobs = len(traced.lat_ns)
    selfs = tracer.self_seconds()
    calls = tracer.calls()
    cnt = tracer.counters.get

    def per_job(v):
        return v / jobs

    def ratio(a, b):
        return a / b if b else 0.0

    def self_s(*names):
        return per_job(sum(selfs.get(n, 0.0) for n in names))

    def layer_self(layer):
        return sum(v for k, v in selfs.items() if k.split(".", 1)[0] == layer)

    m = {}
    scaled = untraced.scaled_ns()
    for kind in CLI_KINDS:
        lat = [ns for ns, k in zip(scaled, untraced.kinds) if k == kind]
        m[f"cli.{kind}.p50_ms"] = statistics.median(lat) / 1e6 if lat else 0.0
    m["cli.self_s"] = self_s("cli.main")

    pairs = sum(calls.get(n, 0) for n in tracing.PAIR_TESTS)
    m["geometry.pairs_tested"] = per_job(pairs)
    m["geometry.pair_hit_ratio"] = ratio(cnt("geometry.pair_hits", 0), pairs)
    m["geometry.self_s"] = per_job(layer_self("geometry"))
    m["geometry.vstrip_calls"] = per_job(calls.get("geometry.polyline_meets_vstrip", 0))
    m["geometry.fraction_vertex_share"] = ratio(cnt("geometry.entry_fraction_vertices", 0),
                                                cnt("geometry.entry_vertices", 0))

    m["families.validate_lr.self_s"] = self_s("families.validate_lr")
    m["families.lr_pairs_checked"] = per_job(cnt("families.lr_pairs_checked", 0))
    m["families.member_intersections.calls"] = per_job(calls.get("families.member_intersections", 0))
    m["families.decompose_even_curve.self_s"] = self_s("families.decompose_even_curve")
    m["families.self_s"] = per_job(layer_self("families"))

    nodes = cnt("graphcore.solver_nodes", 0)
    solver_s = sum(selfs.get(n, 0.0) for n in tracing.SOLVER_SPANS)
    sat, unsat = cnt("graphcore.decisions_sat", 0), cnt("graphcore.decisions_unsat", 0)
    m["graphcore.build_graph.calls"] = per_job(calls.get("graphcore.build_graph", 0))
    m["graphcore.build_graph.self_s"] = self_s("graphcore.build_graph")
    m["graphcore.solver_nodes"] = per_job(nodes)
    m["graphcore.solver.self_s"] = per_job(solver_s)
    m["graphcore.ns_per_node"] = ratio(solver_s * 1e9, nodes)
    m["graphcore.decisions"] = per_job(sat + unsat)
    m["graphcore.decisions_sat"] = per_job(sat)
    m["graphcore.decisions_unsat"] = per_job(unsat)
    m["graphcore.kernel_vertices"] = per_job(cnt("graphcore.kernel_vertices", 0))
    m["graphcore.induced_subgraph.self_s"] = self_s("graphcore.induced_subgraph")
    m["graphcore.self_s"] = per_job(layer_self("graphcore"))

    for fn in REDUCTIONS:
        m[f"reductions.{fn}.self_s"] = self_s(f"reductions.{fn}")
    m["reductions.product_color.cells"] = per_job(cnt("reductions.product_color.cells", 0))
    m["reductions.self_s"] = per_job(layer_self("reductions"))

    for fn in ("generate", "verify_properties", "audit_coloring"):
        m[f"burling.{fn}.self_s"] = self_s(f"burling.{fn}")
    m["burling.crossing_set.calls"] = per_job(calls.get("burling.crossing_set", 0))
    m["burling.self_s"] = per_job(layer_self("burling"))

    for fn in ("load", "save"):
        m[f"familyfile.{fn}.self_s"] = self_s(f"familyfile.{fn}")
        m[f"familyfile.{fn}.bytes"] = per_job(cnt(f"familyfile.{fn}.bytes", 0))
    m["familyfile.self_s"] = per_job(layer_self("familyfile"))

    m["svgrender.render_family.self_s"] = self_s("svgrender.render_family")
    m["svgrender.self_s"] = per_job(layer_self("svgrender"))

    total = sum(layer_self(layer) for layer in LAYERS)
    for layer in LAYERS:
        m[f"{layer}.self_share"] = ratio(layer_self(layer), total)

    m["trace.overhead_ratio"] = traced.jobs_per_s() / untraced.jobs_per_s()
    return m


PER_LAYER_UNITS = {
    "p50_ms": ("ms", "lower"),
    "self_s": ("s/job", "lower"),
    "calls": ("count/job", "lower"),
    "bytes": ("bytes/job", "lower"),
    "self_share": ("ratio", "lower"),
}
PER_LAYER_SPECIAL = {
    "geometry.pairs_tested": ("count/job", "lower"),
    "geometry.pair_hit_ratio": ("ratio", "higher"),
    "geometry.vstrip_calls": ("count/job", "lower"),
    "geometry.fraction_vertex_share": ("ratio", "lower"),
    "families.lr_pairs_checked": ("count/job", "lower"),
    "graphcore.solver_nodes": ("count/job", "lower"),
    "graphcore.ns_per_node": ("ns", "lower"),
    "graphcore.decisions": ("count/job", "lower"),
    "graphcore.decisions_sat": ("count/job", "lower"),
    "graphcore.decisions_unsat": ("count/job", "lower"),
    "graphcore.kernel_vertices": ("count/job", "lower"),
    "reductions.product_color.cells": ("count/job", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "failed_ratio": ("ratio", "lower"),
}


def unit_of(name: str) -> tuple:
    """(unit, better) of a per-layer metric."""
    if name in PER_LAYER_SPECIAL:
        return PER_LAYER_SPECIAL[name]
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# Entry point ---------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    start = time.monotonic()
    try:
        setups, scaled_setup = [], []
        for _ in range(SETUP_REPEATS):
            samples = [speed.sample() for _ in range(3)]
            setups.append(set_up(workload, args.seed, work))
            samples += [speed.sample() for _ in range(3)]
            scaled_setup.append(setups[-1].seconds * speed.factor(samples))
        setup = setups[-1]
        deterministic = all(s.refs == setup.refs for s in setups)
        setup_s = statistics.median(scaled_setup)
        print(f"setup: {SETUP_REPEATS} repeats, raw "
              + ", ".join(f"{s.seconds:.3f}" for s in setups) + " s, scaled "
              + ", ".join(f"{s:.3f}" for s in scaled_setup) + " s; "
              f"{len(setup.jobs)} jobs in the list, {len(setup.refs)} pinned outputs")

        untraced = run_loop(setup, args.seconds, start + UNTRACED_END_S[args.trace])
        phases = [untraced]
        traffic = vars(workload.traffic(work))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_loop(setup, args.seconds, start + TRACED_END_S, tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
            metrics = per_layer(tracer, untraced, traced)
            traffic.update(
                fraction_vertex_share=metrics["geometry.fraction_vertex_share"],
                decisions_sat=tracer.counters.get("graphcore.decisions_sat", 0),
                decisions_unsat=tracer.counters.get("graphcore.decisions_unsat", 0),
                traced_jobs=len(traced.lat_ns))
            dump_dir = os.path.join(WORK_ROOT, "traces")
            os.makedirs(dump_dir, exist_ok=True)
            dump = os.path.join(dump_dir, f"{args.workload}-seed{args.seed}.json.gz")
            tracer.dump(dump, {"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "jobs": len(traced.lat_ns)})
            print(f"spans: {len(tracer.start)} spans, "
                  f"{sum(n for n, _ in tracer.leaves.values())} folded leaf calls -> {dump}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for s in setups for f in s.failures] + [f for p in phases for f in p.failures]
    attempted = sum(len(p.lat_ns) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    for kind, reason in failures[:10]:
        print(f"FAILED {kind}: {reason}")
    if not deterministic:
        print("FAILED set-up: pinned outputs differ between set-up repeats")
    print("traffic: " + json.dumps(traffic, sort_keys=True))
    print(f"wall: {time.monotonic() - start:.1f} s, untraced jobs {len(untraced.lat_ns)}, "
          f"failed_ratio {failed / attempted:.4f}; raw (unscaled) jobs_per_s "
          f"{untraced.jobs_per_s(scaled=False):.4f}, p50 {statistics.median(untraced.lat_ns) / 1e6:.3f} ms, "
          f"p90 {quantile_ms(untraced.lat_ns, 90):.3f} ms; host gauge median "
          f"{statistics.median(untraced.gauge.ns) / 1e6:.3f} ms (nominal {speed.NOMINAL_NS / 1e6:g})")

    if args.trace:
        metrics["failed_ratio"] = failed / attempted
        out = {k: {"value": v, "unit": unit_of(k)[0]} for k, v in metrics.items()}
    else:
        units = dict(END_TO_END)
        out = {k: {"value": v, "unit": units[k]}
               for k, v in end_to_end(untraced, setup_s).items()}
    for k, v in out.items():
        print(f"metric {k} = {v['value']:.6g} {v['unit']}")
    return {"correct": failed == 0 and not failures and deterministic,
            "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "curvefam", "cli.py")):
        print(f"error: no curvefam sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
