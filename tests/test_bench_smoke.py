"""The benchmark's verify workloads stay runnable and correct.

One short run each of ``fsi4_full`` (all six checks on the four-stage FSI)
and ``fsi5_main`` (main_theorem on the five-stage FSI) checks every report
against the benchmark's recorded answers and the closed forms 8^k, 2^k,
3^k and 5^k.  ``docs_verify`` checks ed_naive's validation diagnostics
against the golden file.  ``queries`` validates its documents once, in
the worker's set-up, and reloads a document without validating its models
on every query.  A few seconds each; skipped when the benchmark directory
is absent.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


@pytest.mark.skipif(not os.path.exists(RUN), reason="perfbench/ is absent")
@pytest.mark.parametrize("workload", ["docs_verify", "fsi4_full", "fsi5_main", "queries"])
def test_workload_answers_correctly(workload):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.skipif(not os.path.exists(RUN), reason="perfbench/ is absent")
def test_traced_run_wraps_every_entry_point():
    """A traced run wraps every entry point the benchmark's tracer names
    before any work, so an entry point deleted or renamed fails here and
    not only in the benchmark's own tests.  fsi4_full reaches the subset
    lattice checks: 5^4 correct systems."""
    out = subprocess.run(
        [sys.executable, RUN, "--workload", "fsi4_full", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout[-2000:]
    assert result["failed"] == 0
    assert result["metrics"]["posets.check_correct_system.calls"]["value"] == 5 ** 4


LADDER = os.path.join(ROOT, "scripts", "ladder.py")


@pytest.mark.skipif(not os.path.exists(RUN), reason="perfbench/ is absent")
def test_ladder_records_each_rung(tmp_path):
    """The ladder helper verifies each rung in its own child and stores
    the verdicts, work counts and check times of each report under its
    label, beside what the file already holds."""
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"parent": {"rungs": {}}}))
    run = subprocess.run(
        [sys.executable, LADDER, "--out", str(out), "--label", "change", "--max-k", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    data = json.loads(out.read_text())
    assert data["parent"] == {"rungs": {}}
    rungs = data["change"]["rungs"]
    assert set(rungs) == {"i1", "fsi2_cc", "fsi2_cohen_c", "fsi3", "case2", "fsi_k2"}
    for rung in rungs.values():
        assert rung["exit"] == 0 and rung["peak_rss_mb"] > 0
        assert all(c["passed"] and c["seconds"] >= 0 and 0 < c["peak_rss_mb"] <= rung["peak_rss_mb"]
                   for c in rung["checks"].values())
    checked = {name: c["checked"] for name, c in rungs["fsi_k2"]["checks"].items()}
    assert (checked["main_theorem"], checked["embeddings"], checked["nice_and_correct"]) == (8**2, 3**2, 5**2)
