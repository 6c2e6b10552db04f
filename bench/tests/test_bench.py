"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import os
import random

import pytest

import checks
import run
import speed
import tracing
import workloads
from checks import CheckFailed

ROOT = os.path.dirname(run.BENCH_DIR)


def _build(name, seed, work):
    os.makedirs(work)
    call = run.make_caller(run.fresh_cli())
    return workloads.WORKLOADS[name].build(random.Random(seed), str(work), call)


def _tree(work):
    out = {}
    for dirpath, _, files in os.walk(work):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, work)] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, name):
    jobs_a = _build(name, 7, tmp_path / "a")
    jobs_b = _build(name, 7, tmp_path / "b")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    rel = lambda jobs, w: [[str(a).replace(str(w), "") for a in j.argv] for j in jobs]
    assert rel(jobs_a, tmp_path / "a") == rel(jobs_b, tmp_path / "b")


@pytest.mark.parametrize("name", ["reduce-lr", "solve-exact"])
def test_other_seed_other_inputs(tmp_path, name):
    _build(name, 7, tmp_path / "a")
    _build(name, 8, tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "b")


def test_generated_families_are_lr_and_graphs_have_their_chi():
    from curvefam.families import decompose_even_curve, validate_lr
    from curvefam.geometry import Point, Polyline
    from curvefam.graphcore import chromatic_number, graph_from_edges

    rng = random.Random(3)
    members = [decompose_even_curve(Polyline(tuple(Point(*p) for p in pts), cid))
               for cid, pts in workloads.inputs.lr_family(rng, 40)]
    assert validate_lr(members).ok
    for k in (4, 5):
        n, edges = workloads.inputs.mycielski(k)
        assert chromatic_number(graph_from_edges(n, edges))[0] == k
    n, edges = workloads.double_mycielskian(rng)
    assert n == 31 and checks.triangle_free(n, edges)
    assert chromatic_number(graph_from_edges(n, edges))[0] == 5


def test_self_time_arithmetic():
    # root [0, 100] > a [10, 60] > b [20, 30]; root > c [70, 90]
    # folded into a: 5 ns of leaf calls and tracer bookkeeping; into c: 4 ns
    parents = [tracing.NO_PARENT, 0, 1, 0]
    starts = [0, 10, 20, 70]
    ends = [100, 60, 30, 90]
    folded_ns = [0, 5, 0, 4]
    assert tracing.self_times(parents, starts, ends, folded_ns) == [30, 35, 10, 16]


def test_tracer_folds_leaves_and_its_own_bookkeeping():
    run.fresh_cli()
    from curvefam import geometry
    from curvefam.geometry import Point, Polyline

    tracer = tracing.Tracer()
    tracer.install()
    try:
        a = Polyline((Point(0, 0), Point(0, 4)))
        b = Polyline((Point(-1, 2), Point(1, 2)))
        outer = tracer._span_wrapper("test.outer", lambda: [geometry.segments_intersect(a, b)
                                                           for _ in range(200)])
        outer()
    finally:
        tracer.uninstall()
    (idx,) = [i for i, n in enumerate(tracer.name) if tracer.names[n] == "test.outer"]
    calls, leaf_ns = tracer.leaves["geometry.segments_intersect"]
    assert calls == 200 and tracer.counters["geometry.pair_hits"] == 200
    assert tracer.folded_ns[idx] >= leaf_ns
    own = tracing.self_times(tracer.parent, tracer.start, tracer.end, tracer.folded_ns)[idx]
    assert 0 <= own < tracer.end[idx] - tracer.start[idx] - leaf_ns


def test_gauge_scales_each_job_by_the_samples_around_it():
    g = speed.Gauge()
    g.at, g.ns = [0, 0, 2, 4, 4], [5e6, 5e6, 10e6, 10e6, 10e6]
    # job 0: two 5 ms samples before it, two 10 ms samples after it
    assert g.factor(0) == speed.NOMINAL_NS / 7.5e6
    # job 3: one 5 ms sample and three 10 ms samples around it
    assert g.factor(3) == speed.NOMINAL_NS / 10e6
    assert speed.factor([4e6, 6e6, 5e6]) == 1.0


def test_tracer_rebinds_every_copy_and_restores():
    run.fresh_cli()
    from curvefam import families, geometry, reductions

    original = geometry.segments_intersect
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert families.segments_intersect is geometry.segments_intersect
        assert geometry.segments_intersect is not original
        assert reductions.polylines_disjoint.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert geometry.segments_intersect is original
    assert families.segments_intersect is original


@pytest.fixture(scope="module")
def probe_jobs(tmp_path_factory):
    work = tmp_path_factory.mktemp("probe")
    call = run.make_caller(run.fresh_cli())
    jobs = workloads.build_probe_x4(random.Random(1), str(work), call)
    return {j.kind + ("" if j.kind != "audit-burling" else str(i)): j
            for i, j in enumerate(jobs)}, call


def test_checker_rejects_improper_coloring(probe_jobs):
    jobs, call = probe_jobs
    job = jobs["color"]
    res = call(job.argv)
    job.check(res.out)
    path = job.outputs[0]
    with open(path) as fh:
        doc = json.load(fh)
    fam = checks.Family(job.argv[job.argv.index("--family") + 1])
    u, v = sorted(fam.edges)[0]
    doc["colors"][fam.ids[v]] = doc["colors"][fam.ids[u]]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(CheckFailed, match="improper|colors"):
        job.check(res.out)


def test_checker_rejects_wrong_chi(probe_jobs):
    jobs, call = probe_jobs
    job = jobs["color"]
    call(job.argv)
    with pytest.raises(CheckFailed, match="chi"):
        job.check("3\n")


def test_checker_rejects_wrong_chi_on_a_graph(tmp_path):
    n, edges = workloads.inputs.mycielski(4)
    path = str(tmp_path / "m4.txt")
    with open(path, "w") as fh:
        fh.write(workloads.inputs.edge_list_text(n, edges))
    out = str(tmp_path / "c.json")
    with open(out, "w") as fh:
        json.dump({"colors": {str(v): v % 3 for v in range(n)}, "palette": 3}, fh)
    with pytest.raises(CheckFailed):
        workloads._graph_color_check(path, out, 4)("3\n")


def test_checker_rejects_a_false_audit(probe_jobs):
    jobs, call = probe_jobs
    job = next(j for k, j in jobs.items() if k.startswith("audit-burling"))
    res = call(job.argv)
    job.check(res.out)
    with pytest.raises(CheckFailed):
        job.check(res.out.replace("carries 4 colors", "carries 5 colors"))


def test_pinned_output_must_repeat(tmp_path):
    jobs = _build("probe-x4", 1, tmp_path / "w")
    call = run.make_caller(run.fresh_cli())
    job = next(j for j in jobs if j.kind == "render")
    res = call(job.argv)
    refs = {tuple(job.argv): (res.out, [b"<svg/>"])}
    assert "differs" in run.verify(job, res, refs)


def test_axis_parallel_required(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "lr2", "scale": 1,
                                "curves": [{"id": "a", "points": [[0, 1], [2, -1]]}]}))
    with pytest.raises(CheckFailed, match="axis-parallel"):
        checks.Family(str(path))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == run.unit_of(m["name"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(monkeypatch, capsys, name):
    monkeypatch.setattr(run, "MIN_JOBS", 3)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    trace = 0 if name == "solve-exact" else 1
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if trace:
        share = result["metrics"]["geometry.fraction_vertex_share"]["value"]
        assert (share > 0) == (name == "reduce-lr")
