"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They take about a minute on two cores: every workload is traced once,
and all but fsi5_main (one traced repetition is about 30 s) twice.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402

COUNTER_SUFFIXES = (".calls", ".conditions", ".cells", ".distinct", ".checked")


def load_json(name: str) -> dict:
    with open(os.path.join(ROOT, name) if name == "BENCHMARK.json" else os.path.join(HERE, name)) as fh:
        return json.load(fh)


def new_run(workload: str, seed: int, workdir: str) -> run.Run:
    return run.Run(ROOT, workload, seed, workdir)


def traced_counters(r: run.Run, batch: list | None) -> dict:
    rep = r.rep(True, batch)
    assert rep is not None, r.problems
    totals: dict = {}
    for snapshot in rep["trace"]:
        for name, value in snapshot.items():
            totals[name] = totals.get(name, 0) + value
    return totals


@pytest.fixture(scope="module")
def workdir():
    os.makedirs(WORK, exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def traces(workdir):
    """Two traced repetitions per workload (one for fsi5_main)."""
    out = {}
    for workload in run.WORKLOADS:
        r = new_run(workload, 11, workdir)
        batch = r.next_queries() if workload == "queries" else None
        reps = 1 if workload == "fsi5_main" else 2
        out[workload] = ([traced_counters(r, batch) for _ in range(reps)], r)
    return out


def test_benchmark_json_lists_what_run_reports():
    bench = load_json("BENCHMARK.json")
    assert [w["name"] for w in bench["workloads"]] == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_metrics()
    assert list(load_json("layers.json")["metrics"]) == list(run.per_layer_metrics())


def test_inputs_follow_the_seed():
    golden = inputs.load_golden()
    assert inputs.generated_docs(5) == inputs.generated_docs(5)
    assert inputs.generated_docs(5) != inputs.generated_docs(6)
    docs = inputs.generated_docs(5)
    queries = inputs.make_queries(5, 1, docs, golden)
    assert queries == inputs.make_queries(5, 1, docs, golden)
    assert queries != inputs.make_queries(5, 2, docs, golden)
    assert {q["kind"] for q in queries} == set(inputs.QUERY_KINDS)
    assert len(queries) == sum(inputs.QUERY_MIX.values())
    assert {q["expect"] for q in queries if q["kind"] == "decide"} >= {"forces", "refutes"}
    assert {q["expect"] for q in queries if q["kind"] == "order_leq"} == {True, False}


def test_wrappers_rebind_every_name():
    code = """
import sys
sys.path.insert(0, 'src'); sys.path.insert(0, 'perfbench')
import finforce.cli, finforce.workdoc
from finforce import cli, iteration, posets, synth, verify
from tracer import Tracer
orig = {n: getattr(synth, n) for n in ('synth_E', 'case2_contexts')}
Tracer().install()
assert verify.synth_E is synth.synth_E is cli.synth_E is not orig['synth_E']
assert verify.case2_contexts is synth.case2_contexts is not orig['case2_contexts']
assert verify.realize_filter is iteration.realize_filter
assert iteration.check_complete_embedding_posets is posets.check_complete_embedding_posets
wrapped = [iteration.trace_family, posets.check_complete_embedding_posets,
           posets.FinitePoset.compat_matrix.fget, *verify.CHECKS.values()]
assert all(hasattr(fn, '__wrapped__') for fn in wrapped)
print('ok')
"""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert out.stdout.strip() == "ok", out.stderr


def test_traced_runs_answer_correctly(traces):
    for workload, (_, r) in traces.items():
        assert r.failed == 0, (workload, r.problems)
        assert r.attempted > 0


def test_counters_repeat_across_repetitions(traces):
    """Fresh workers per repetition: a memo that leaked from one
    repetition into the next would change a work counter."""
    for workload, (reps, _) in traces.items():
        if len(reps) < 2:
            continue
        first, second = (
            {k: v for k, v in rep.items() if k.endswith(COUNTER_SUFFIXES)} for rep in reps
        )
        assert first == second, workload


def test_layer_predictions_hold(traces):
    layers = load_json("layers.json")["metrics"]
    wrong = []
    for workload, (reps, _) in traces.items():
        counters = reps[0]
        for name, spec in layers.items():
            if name == "trace.overhead":
                continue
            value = counters.get(name, 0)
            if workload in spec["nonzero_on"] and not value:
                wrong.append(f"{name} reads zero on {workload}")
            if workload in spec["zero_on"] and value:
                wrong.append(f"{name} reads {value} on {workload}, predicted zero")
    assert not wrong, wrong


def test_fsi_counts_match_closed_forms(traces):
    counters = traces["fsi4_full"][0][0]
    assert counters["verify.main_theorem.checked"] == 8 ** 4
    assert counters["verify.embeddings.checked"] == 3 ** 4
    assert counters["verify.nice_and_correct.checked"] == 5 ** 4
    assert counters["posets.check_correct_system.calls"] == 5 ** 4
    assert traces["fsi5_main"][0][0]["iteration.members.conditions"] == 4 ** 5
    assert traces["docs_verify"][0][0]["synth.case2_contexts.calls"] > 0


def test_wrong_answers_count_as_failures(workdir):
    r = new_run("queries", 3, workdir)
    batch = r.next_queries()
    batch[0] = dict(batch[0], expect="not the answer")
    r.rep(queries=batch)
    assert r.failed == 1
    r = new_run("fsi4_full", 3, workdir)
    report = r.expected["fsi4"]["reports"][0]
    r.expected["fsi4"]["reports"][0] = dict(report, checked=report["checked"] + 1)
    r.rep()
    assert (r.attempted, r.failed) == (1, 1)


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert out.returncode != 0
    assert out.stdout == ""
