"""The finforce benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition starts fresh worker
processes (one per document, or one per query batch), one at a time, so
every memo starts cold.  Every answer is checked against known verdicts
and counts; a wrong answer, a crash or a timeout counts as a failed
operation.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of one traced
repetition with ``--trace 1``.  The line before it records the machine
and the sample counts.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

VERIFY_DOCS = {
    "docs_verify": inputs.SHIPPED + ["case2"],
    "fsi4_full": ["fsi4"],
    "fsi5_main": ["fsi5"],
}
WORKLOADS = list(VERIFY_DOCS) + ["queries"]
MIN_SETUPS = 10  # set-up samples per run; set-up-only workers fill the gap
RUN_LIMIT_S = 170.0  # a run gives up (and counts a timeout) past this


def per_layer_metrics() -> dict[str, str]:
    """Per-layer metric -> unit, in the order BENCHMARK.json lists them."""
    fields = {
        "workdoc.load_doc": ["s"],
        "templates.validate_template": ["s"],
        "models.validate_borel_model": ["s", "calls"],
        "models.check_nice_subposet": ["s"],
        "iteration.members": ["self_s", "calls", "conditions"],
        "iteration.build_poset": ["self_s", "calls", "cells"],
        "iteration.member_pstar": ["calls"],
        "templates.trace_family": ["calls"],
        "iteration.enumerate_generics": ["s"],
        "iteration.realize_filter": ["self_s"],
        "iteration.check_density_pstar": ["self_s"],
        "iteration.check_complete_embedding": ["self_s"],
        "iteration.order_leq": ["s", "calls"],
        "posets.FinitePoset": ["s", "calls"],
        "posets.compat_matrix": ["s", "calls"],
        "posets.check_complete_embedding_posets": ["self_s", "calls"],
        "posets.check_correct_system": ["self_s", "calls"],
        "posets.admissible_filters_upsets": ["s"],
        "history.history_of_condition": ["s", "calls"],
        "history.tuple_space": ["s"],
        "history.restrict_tuple": ["calls"],
        "codes.eval_code": ["s", "calls"],
        "codes.eval_fcode_detailed": ["s", "calls"],
        "codes.print_code": ["s"],
        "synth.synth_E": ["s", "calls", "distinct"],
        "synth.synth_F": ["s", "calls"],
        "synth.case2_contexts": ["calls"],
        "names.decide_forces_value": ["s", "calls"],
    }
    for check in inputs.CHECKS:
        fields[f"verify.{check}"] = ["s", "checked"]
    out = {}
    for prefix, names in fields.items():
        for f in names:
            out[f"{prefix}.{f}"] = "s" if f in ("s", "self_s") else "count"
    out["trace.overhead"] = "ratio"
    return out


END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class Run:
    """One benchmark run: the workers it starts and what they answered."""

    def __init__(self, root: str, workload: str, seed: int, workdir: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.started = time.monotonic()
        self.golden = inputs.load_golden()
        docs = inputs.generated_docs(seed)
        self.paths = inputs.write_docs(docs, workdir)
        for label in inputs.SHIPPED:
            self.paths[label] = inputs.shipped_path(root, label)
        self.expected = inputs.expected_verdicts(docs, self.golden)
        self.seed = seed
        self.docs = docs
        self.batches = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.timed_out = False
        self.setups: list[float] = []
        self.numpy = ""
        self.env = dict(os.environ)
        self.blas_threads = str(os.cpu_count() or 1)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = self.blas_threads
        self.env.pop("PYTHONPATH", None)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def spawn(self, job: dict) -> dict | None:
        """Run one worker to completion; None if it crashed or timed out."""
        job = dict(job, src=self.src)
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 1 or self.timed_out:
            self.timed_out = True
            return None
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER], input=json.dumps(job), capture_output=True,
                text=True, timeout=left, cwd=self.root, env=self.env,
            )
        except subprocess.TimeoutExpired:
            self.timed_out = True
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"worker exited {proc.returncode}: {tail[0]}")
            return None
        try:
            out = json.loads(lines[-1])
        except json.JSONDecodeError:
            self.problems.append(f"worker printed no result: {lines[-1][:200]}")
            return None
        if os.path.dirname(os.path.dirname(out["finforce_file"])) != os.path.abspath(self.src):
            self.problems.append(f"measured {out['finforce_file']}, not this checkout")
            return None
        self.numpy = out["numpy"]
        out["setup_s"] = out["t_ready"] - t_spawn
        self.setups.append(out["setup_s"])
        return out

    def verify_rep(self, trace: bool) -> dict | None:
        """Cold verify of every document of the workload, one worker each."""
        rep = {"verdict_s": 0.0, "latencies": {}, "rss": [], "trace": []}
        for label in VERIFY_DOCS[self.workload]:
            self.attempted += 1
            out = self.spawn({"kind": "verify", "doc": self.paths[label], "trace": trace})
            if out is None:
                self.fail(1, f"{label}: no result")
                continue
            want = self.expected[label]
            got = {
                "exit": out["exit"],
                "diagnostics": out["diagnostics"],
                "reports": [{k: r.get(k) for k in inputs.REPORT_KEYS} for r in out["reports"]],
            }
            if got != want:
                self.fail(1, f"{label}: verdict {got['exit']} or report fields differ from the known answer")
            rep["verdict_s"] += out["verdict_s"]
            rep["latencies"][label] = out["setup_s"] + out["verdict_s"]
            rep["rss"].append(out["peak_rss_mb"])
            rep["trace"].append(out.get("trace", {}))
        return rep if rep["rss"] else None

    def next_queries(self) -> list[dict]:
        """A fresh seeded batch per repetition, so a run's percentiles
        cover many draws of the query arguments."""
        self.batches += 1
        return inputs.make_queries(self.seed, self.batches, self.docs, self.golden)

    def query_rep(self, trace: bool, queries: list[dict]) -> dict | None:
        """One worker answering a query batch in a closed loop."""
        docs = {label: self.paths[label] for label in inputs.QUERY_DOCS}
        self.attempted += len(queries)
        out = self.spawn({"kind": "queries", "docs": docs, "queries": queries, "trace": trace})
        if out is None:
            self.fail(len(queries), "query worker: no result")
            return None
        for q, got in zip(queries, out["answers"]):
            if got != q["expect"]:
                self.fail(1, f"{q['kind']} on {q['doc']}: {got!r} != {q['expect']!r}")
        return {
            "verdict_s": out["verdict_s"],
            "latencies": out["latencies"],
            "rss": [out["peak_rss_mb"]],
            "trace": [out.get("trace", {})],
        }

    def rep(self, trace: bool = False, queries: list[dict] | None = None) -> dict | None:
        """One repetition; on queries, of the given batch or a fresh one."""
        if self.workload == "queries":
            return self.query_rep(trace, queries or self.next_queries())
        return self.verify_rep(trace)

    def fill_setups(self) -> None:
        """Set-up-only workers until the run has MIN_SETUPS set-up samples."""
        while len(self.setups) < MIN_SETUPS and not self.timed_out:
            if self.workload == "queries":
                docs = {label: self.paths[label] for label in inputs.QUERY_DOCS}
                job = {"kind": "queries", "docs": docs, "queries": [], "trace": False}
            else:
                label = VERIFY_DOCS[self.workload][len(self.setups) % len(VERIFY_DOCS[self.workload])]
                job = {"kind": "verify", "doc": self.paths[label], "trace": False, "setup_only": True}
            self.attempted += 1
            if self.spawn(job) is None:
                self.fail(1, "set-up-only worker: no result")
                break


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    reps = []
    deadline = run.started + seconds
    while not run.timed_out:
        t0 = time.monotonic()
        rep = run.rep()
        if rep is not None:
            reps.append(rep)
        if time.monotonic() + (time.monotonic() - t0) > deadline:
            break
    run.fill_setups()
    if run.workload == "queries":
        latencies = [x for rep in reps for x in rep["latencies"]]
    else:
        # one sample per document, so the percentiles do not depend on how
        # many repetitions fit in the run
        per_doc: dict[str, list[float]] = {}
        for rep in reps:
            for label, x in rep["latencies"].items():
                per_doc.setdefault(label, []).append(x)
        latencies = [statistics.median(xs) for xs in per_doc.values()]
    latencies = latencies or [0.0]
    verdicts = [rep["verdict_s"] for rep in reps] or [0.0]
    # A query batch lasts about 1.4 s and varies by about 13% from batch to
    # batch, so the mean over a run's batches is steadier than their median.
    # A verify repetition holds one to a few long verdicts; there the median
    # keeps an odd slow repetition out.
    verdict = statistics.fmean(verdicts) if run.workload == "queries" else statistics.median(verdicts)
    return {
        "setup_s": statistics.median(run.setups or [0.0]),
        "verdict_s": verdict,
        "query_p50_ms": 1000.0 * statistics.median(latencies),
        "query_p90_ms": 1000.0 * nearest_rank(latencies, 0.9),
        "peak_rss_mb": statistics.median([max(rep["rss"]) for rep in reps] or [0.0]),
    }, {"reps": len(reps), "latency_samples": len(latencies), "setup_samples": len(run.setups)}


def per_layer(run: Run) -> tuple[dict, dict]:
    """One untraced and one traced repetition of the same work: the traced
    one gives the layer counters, and their verdict times give the tracing
    overhead."""
    batch = run.next_queries() if run.workload == "queries" else None
    plain = run.rep(False, batch)
    traced = run.rep(True, batch)
    metrics = {name: 0 for name in per_layer_metrics()}
    if traced is not None:
        for snapshot in traced["trace"]:
            for name, value in snapshot.items():
                if name in metrics:
                    metrics[name] += value
    if plain is not None and traced is not None and plain["verdict_s"] > 0:
        metrics["trace.overhead"] = traced["verdict_s"] / plain["verdict_s"]
    return metrics, {"reps": 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "finforce", "__init__.py")):
        print("perfbench: run from the repository root; src/finforce is missing", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(root, ".perfbench_work"))
    try:
        run = Run(root, args.workload, args.seed, workdir)
        if args.trace:
            values, samples = per_layer(run)
            units = per_layer_metrics()
        else:
            values, samples = end_to_end(run, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.timed_out:
        run.problems.append(f"run passed {RUN_LIMIT_S:.0f} s; the unfinished operation counts as failed")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": run.numpy, "blas_threads": run.blas_threads,
        "samples": samples, "problems": run.problems,
    }
    print("perfbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
