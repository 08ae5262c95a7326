"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.import_program()


@pytest.fixture(scope="module")
def checker(cli):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        return run.Checker(sys.modules["polytoric"], json.load(fh))


@pytest.fixture(scope="module")
def pools():
    return corpus.catalogue()


def _run(cli, op, tmp_path):
    corpus.write_inputs([op.polytope], str(tmp_path))
    return run.run_op(cli.main, op, str(tmp_path))


def _op(pools, workload, command, name):
    for p in corpus.all_ops(pools):
        if p.command == command and p.polytope.name == name:
            return p
    raise LookupError(name)


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a = corpus.generate(workload, 7, str(tmp_path / "a"))
    b = corpus.generate(workload, 7, str(tmp_path / "b"))
    assert [op.key for op in a] == [op.key for op in b]
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    other = corpus.generate(workload, 8, str(tmp_path / "c"))
    assert [op.key for op in other] != [op.key for op in a]
    timed = corpus.schedule(workload, a, 7)
    assert [op.key for op in timed] == [op.key for op in corpus.schedule(workload, b, 7)]
    assert [op.key for op in timed] != [op.key for op in corpus.schedule(workload, a, 8)]
    assert sorted(op.key for op in timed) == sorted(
        op.key for op in a for _ in range(corpus.repeats(workload, op))
    )


def test_heavy_ops_are_timed_once_and_light_ones_repeated(pools):
    heavy = {
        "cohomology": {"ICOSA12", "PERMUTO3"},
        "verify": {"SIMPLEX3", "CUBE3", "OCTA", "SIMPLEX4"},
        "geometry": {p.name for copies in pools["cloud4"] for p in copies if p.params[0] > 16},
    }
    for workload in corpus.WORKLOADS:
        ops = corpus.ops_for(workload, corpus.polytopes_for(workload, 1, pools), 1)
        for op in ops:
            once = op.polytope.name in heavy[workload]
            assert corpus.repeats(workload, op) == (1 if once else corpus.REPEATS), op.key


def test_the_first_pass_always_ends(cli, pools, tmp_path):
    ops = corpus.ops_on("cohomology", pools["polygon"][0][0])[:4]
    corpus.write_inputs([ops[0].polytope], str(tmp_path))
    outcomes, passes = run.run_timed(cli.main, ops, str(tmp_path), 0)
    assert passes == 1
    assert [o.op for o in outcomes] == ops


def test_every_drawable_op_has_a_reference_or_is_a_known_defect(pools):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    missing = {op.key for op in corpus.all_ops(pools)} - set(reference)
    assert missing and all(key.startswith("verify ") for key in missing)
    assert "verify TRAPEZOID" in missing


def test_closed_forms_match_pick_for_a_box_and_simplex():
    box = corpus.Polytope("b", tuple(corpus._box((2, 3))), "box", (2, 3))
    tri = corpus.Polytope("t", tuple(corpus._simplex(4, 2)), "simplex", (4,))
    assert oracles.closed_form_ehrhart(box) == oracles._pick(box.vertices)
    assert oracles.closed_form_ehrhart(tri) == oracles._pick(tri.vertices)


# ---------------------------------------------------------------------------
# oracles reject corrupted reports


def _corrupted(outcome, edit):
    report = json.loads(outcome.stdout)
    edit(report)
    return run.Outcome(outcome.op, outcome.seconds, outcome.code, json.dumps(report))


def _cohomology_edits():
    def rank(r):
        r["perDegree"][0]["free_rank"] += 1

    def torsion(r):
        r["perDegree"][1]["torsion"] = [2]

    def degree(r):
        r["perDegree"].pop()

    return [rank, torsion, degree]


def test_cohomology_oracle(cli, checker, pools, tmp_path):
    op = _op(pools, "cohomology", "cohomology", pools["polygon"][0][0].name)
    good = _run(cli, op, tmp_path)
    assert checker.verdict(good) is None
    for edit in _cohomology_edits():
        assert checker.verdict(_corrupted(good, edit), check_reference=False)


def test_faces_oracle(cli, checker, pools, tmp_path):
    op = _op(pools, "geometry", "faces", pools["cloud4"][0][0].name)
    good = _run(cli, op, tmp_path)
    assert checker.verdict(good) is None

    def drop_vertex(r):
        r["faces"].pop(0)

    def foreign_vertex(r):
        r["faces"][0]["vertices"] = [[9, 9, 9, 9]]

    for edit in (drop_vertex, foreign_vertex):
        assert checker.verdict(_corrupted(good, edit), check_reference=False)


def test_ehrhart_oracle(cli, checker, pools, tmp_path):
    op = _op(pools, "geometry", "ehrhart", pools["closed_form"][0][0].name)
    good = _run(cli, op, tmp_path)
    assert checker.verdict(good) is None

    def coefficient(r):
        r["coefficients"][1] = "1/3"

    def reciprocity(r):
        r["reciprocity_ok"] = False

    def table(r):
        r["reciprocity_table"][0]["interior_points"] += 1

    for edit in (coefficient, reciprocity, table):
        assert checker.verdict(_corrupted(good, edit), check_reference=False)


def test_verify_oracle_and_known_defect(cli, checker, pools, tmp_path):
    good = _run(cli, _op(pools, "verify", "verify", pools["verify_polygon"][0][0].name), tmp_path)
    assert checker.verdict(good) is None

    def other_failure(r):
        r["passed"] = False
        r["results"][1]["passed"] = False

    bad = _corrupted(good, other_failure)
    bad.code = 1
    assert checker.verdict(bad, check_reference=False) not in (None, oracles.KNOWN_DEFECT)

    (trapezoid,) = corpus.ops_on("verify", corpus.named("TRAPEZOID"))
    assert checker.verdict(_run(cli, trapezoid, tmp_path)) == oracles.KNOWN_DEFECT


def test_digest_mismatch_is_a_failure(cli, checker, pools, tmp_path):
    good = _run(cli, _op(pools, "cohomology", "cohomology", pools["polygon"][1][0].name), tmp_path)
    respaced = run.Outcome(good.op, good.seconds, good.code, good.stdout.replace(",", ", "))
    assert checker.verdict(respaced) == "report digest differs from the reference"


# ---------------------------------------------------------------------------
# tracing


def _wrapped_attributes():
    polytoric = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "polytoric"}
    snapshot = {(n, a): v for n, m in polytoric.items() for a, v in vars(m).items() if callable(v)}
    homology = sys.modules["polytoric.homology"]
    snapshot[("IntegerChainComplex", "__post_init__")] = homology.IntegerChainComplex.__dict__[
        "__post_init__"
    ]
    return snapshot


def test_traced_run_restores_every_wrapper_and_keeps_reports(cli, pools, tmp_path):
    q_ring = next(
        o for o in corpus.all_ops(pools)
        if o.command == "cohomology" and o.polytope.family == "solid" and o.args[-1] == "Q"
    )
    ops = [
        q_ring,
        _op(pools, "verify", "verify", pools["verify_polygon"][2][0].name),
        _op(pools, "geometry", "faces", pools["cloud4"][0][0].name),
    ]
    corpus.write_inputs([o.polytope for o in ops], str(tmp_path))
    before = _wrapped_attributes()
    tr = tracing.Tracer()
    with tr:
        homology = sys.modules["polytoric.homology"]
        assert homology.smith_normal_form is not before[("polytoric.linalg", "smith_normal_form")]
        assert homology.smith_normal_form.__wrapped__ is before[("polytoric.linalg", "smith_normal_form")]
    assert _wrapped_attributes() == before
    plain, traced, labels = run.run_traced(cli.main, ops, str(tmp_path), tr)
    after = _wrapped_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    assert [o.stdout for o in traced] == [o.stdout for o in plain]
    assert [o.code for o in traced] == [o.code for o in plain]

    metrics, self_sum = tr.layer_metrics()
    assert set(metrics) == set(tracing.metric_names()) - {"trace.overhead_ratio"}
    assert 0 < self_sum <= sum(o.seconds for o in traced)
    assert metrics["parallel.parallel_map.calls"] > 0
    assert metrics["homology.cohomology.Q.self_s"] > 0
    assert metrics["sheaf.classes_built"] > 0
    assert metrics["boundary.nerve.calls"] > 0
    assert metrics["polytope.hull_subsets"] > 0
    assert sorted(labels.values()) == sorted(o.key for o in ops)


def test_worker_thread_time_is_shared_not_double_counted():
    tr = tracing.Tracer()
    # one parallel_map span on thread 0 over [0, 10]; two workers busy on
    # threads 1 and 2 over [2, 8] overlap each other completely
    for name, parent, thread, start, end in (
        ("parallel.parallel_map", -1, 0, 0.0, 10.0),
        ("homology.cohomology", 0, 1, 2.0, 8.0),
        ("homology.cohomology", 0, 2, 2.0, 8.0),
        ("linalg.smith_normal_form", 1, 1, 3.0, 5.0),
    ):
        tr.parent.append(parent)
        tr.thread.append(thread)
        tr.name.append(tr._name_id(name))
        tr.start.append(start)
        tr.end.append(end)
    self_t = tr.self_times()
    assert self_t == pytest.approx([4.0, 2.0, 3.0, 1.0])
    assert sum(self_t) == pytest.approx(10.0)
