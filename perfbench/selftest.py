"""The benchmark's own test: a small smoke run and oracle sensitivity.

    python3 -m pytest -q perfbench/selftest.py

Runs in seconds. The small cohorts here test the harness (generator,
oracle, tracer), not respchain's limits; the benchmark's workloads keep
their full sizes.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SMALL = {
    "cohort-40k": {"per_group": 150, "length": 16, "sim_length": 16},
    "cohort-detail": {"per_group": 60, "length": 16, "sim_length": 16},
    "long-walk": {"per_group": 2, "length": 400, "sim_length": 3000},
}


@pytest.fixture(scope="module")
def cli():
    return worker.import_package(run.SRC)


def _run_ops(cli, workload, work, seed=3):
    ops, checks = run.build_workload(workload, seed, work, SMALL[workload])
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for op in ops:
            _, error = worker.run_op(cli, op["argv"])
            assert error is None, (op["name"], error)
    finally:
        os.chdir(cwd)
    return ops, checks


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_workload_outputs_pass_the_oracle(cli, tmp_path, workload):
    _, checks = _run_ops(cli, workload, str(tmp_path))
    assert run.run_checks(checks, set(checks)) == {}


def _declared(kind):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_declared_metric(trace, kind):
    line = run.run("cohort-40k", 5, 0, trace, SMALL["cohort-40k"])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 7
    assert {name: m["unit"] for name, m in line["metrics"].items()} == _declared(kind)
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc["payload"]["results"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def test_oracle_flags_corrupted_outputs(cli, tmp_path):
    work = str(tmp_path)
    _, checks = _run_ops(cli, "cohort-detail", work)

    def bump_score(res):
        res["scores"][7]["score"] += 1e-6

    def bump_count(res):
        res["groups"]["ocd"]["counts"]["counts"][2][3] += 1

    _rewrite(os.path.join(work, "score.json"), bump_score)
    _rewrite(os.path.join(work, "estimate.json"), bump_count)
    with open(os.path.join(work, "sim.csv"), "rb") as fh:
        raw = bytearray(fh.read())
    pos = raw.index(b"\r\n", 40) - 5  # a response digit of the first row
    raw[pos] = ord("1") if raw[pos] != ord("1") else ord("2")
    with open(os.path.join(work, "sim.csv"), "wb") as fh:
        fh.write(raw)
    problems = run.run_checks(checks, set(checks))
    assert set(problems) == {"score", "estimate", "simulate"}
    assert any("scores" in p or "terms" in p for p in problems["score"])
    assert any("counts" in p for p in problems["estimate"])
    assert any("reference walk" in p for p in problems["simulate"])


def test_traced_pass_counts_calls_exactly(cli, tmp_path):
    work = str(tmp_path)
    ops, _ = run.build_workload("cohort-40k", 4, work, SMALL["cohort-40k"])
    n = 2 * SMALL["cohort-40k"]["per_group"]
    errors = []

    def run_one(op):
        elapsed, error = worker.run_op(cli, op["argv"])
        errors.append(error)
        return elapsed, error

    cwd = os.getcwd()
    os.chdir(work)
    try:
        layers = tracer.traced_pass(cli, ops, run_one, os.path.join(work, "trace.npz"))
    finally:
        os.chdir(cwd)
    assert errors == [None] * len(ops)
    assert layers["score.chain.count_transitions.calls"] == 2 * n
    assert layers["classify_multi.scoring.log_likelihood_matrix.calls"] == 3 * n
    assert [layers[f"{op}.models.builtin_models.calls"] for op in run.OP_NAMES] == \
        [1, 0, 0, 2, 2, 4, 2]
    assert layers["cli.self_s"] > 0 and layers["dataio.bytes_per_row"] > 0
    # every binding was restored
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")


def test_an_op_that_raises_makes_the_run_incorrect(cli, tmp_path, monkeypatch):
    work = str(tmp_path)
    ops, checks = run.build_workload("cohort-40k", 3, work, SMALL["cohort-40k"])

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(sys.modules["respchain.scoring"], "classify_multimodel", broken)
    monkeypatch.chdir(work)
    samples = {}
    for op in ops:
        elapsed, error = worker.run_op(cli, op["argv"])
        samples[op["name"]] = [{"wall_s": elapsed, "error": error}]
    failed, problems, ran = run.assess("cohort-40k", [samples])
    assert failed == {"classify_multi": {"builtins.RuntimeError"}}
    assert set(problems) == {"classify_multi"}  # so the result's correct is false
    assert ran == set(run.OP_NAMES) - {"classify_multi"}
    assert run.run_checks(checks, ran) == {}


def test_only_declared_failures_keep_the_run_correct():
    ok = [{"wall_s": 1.0, "error": None}]
    csv_error = [{"wall_s": 0.004, "error": "_csv.Error"}] * 3
    samples = {op: ok if op == "simulate" else csv_error for op in run.OP_NAMES}
    failed, problems, ran = run.assess("long-walk", [samples])
    assert len(failed) == 6 and problems == {} and ran == {"simulate"}
    assert run.job_time(samples["score"]) == 0.004
    assert set(run.assess("cohort-40k", [samples])[1]) == set(run.OP_NAMES) - {"simulate"}
    other = dict(samples, score=[{"wall_s": 0.1, "error": "exit 2 (ValidationError)"}])
    assert set(run.assess("long-walk", [other])[1]) == {"score"}
    # a failed run of an op that also succeeded is dropped from its time
    mixed = ok + [{"wall_s": 0.001, "error": "builtins.MemoryError"}]
    assert run.job_time(mixed) == 1.0
    assert set(run.assess("cohort-40k", [dict(samples, simulate=mixed)])[1]) >= {"simulate"}


def test_a_stopped_measuring_process_still_gives_its_samples(tmp_path):
    events = [{"cal": 0.05},
              {"start": "simulate", "set": "samples", "at": 100.0},
              {"op": "simulate", "set": "samples", "wall_s": 2.0, "error": None,
               "rss_kib": 2048},
              {"start": "estimate", "set": "samples", "at": 102.0}]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps(e) + "\n" for e in events) + '{"op": "estim')
    samples, info = run.read_log(str(log), ("samples",), stopped_at=105.0)
    runs = samples["samples"]
    assert runs["simulate"] == [{"wall_s": 2.0, "error": None}]
    assert runs["estimate"] == [{"wall_s": 3.0, "error": "timeout"}]
    assert runs["diagnose"] == [{"wall_s": 0.0, "error": "timeout"}]
    assert info["rss_kib"] == 2048 and info["calibration_s"] == [0.05]
    failed, problems, _ = run.assess("cohort-40k", [runs])
    assert len(failed) == 6 and "simulate" not in problems


def test_measuring_stops_before_the_time_limit(monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda env: 0.2)
    monkeypatch.setattr(run, "RUN_LIMIT_S", run.CHECK_RESERVE_S + 4)
    start = time.time()
    line = run.run("cohort-40k", 6, 600, 0, SMALL["cohort-40k"])
    assert time.time() - start < run.RUN_LIMIT_S
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 7


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cohort-40k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


def test_chi2_sf_matches_known_values():
    assert oracle.chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-12)
    assert oracle.chi2_sf(9.487729036781154, 4) == pytest.approx(0.05, abs=1e-12)
    assert oracle.chi2_sf(7.814727903251178, 3) == pytest.approx(0.05, abs=1e-12)
