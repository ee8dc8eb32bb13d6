"""One benchmark worker: a fresh process per document (or query batch) and
repetition, so every memo in finforce starts cold.

Reads one job as JSON on stdin and prints one JSON result line on stdout.
The parent times set-up from just before it starts this process until the
``t_ready`` stamp (the monotonic clock is shared across processes).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def parse_literal(doc, literal: dict):
    """A condition literal read the way ``finforce synth --cond`` reads it."""
    from finforce.workdoc import _parse_condition

    it = doc.iteration
    entry_names = {
        e.label: e for x in it.template.points for e in it.assignments[x].extra_entries
    }
    return _parse_condition(literal, it.rank, doc.point_models, entry_names, "query")


def run_cli(argv: list[str]) -> str:
    """Exit code and a digest of the standard output of one CLI call."""
    from finforce import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"{code}:{hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]}"


def answer_query(path: str, q: dict):
    """Load the query's document and answer its one question."""
    from finforce import names, workdoc

    kind = q["kind"]
    if kind == "synth_cond":
        return run_cli(["synth", "--doc", path, "--cond", json.dumps(q["cond"])])
    if kind == "synth_name":
        return run_cli(["synth", "--doc", path, "--name", q["name"]])
    doc = workdoc.load_doc(path)
    it = doc.iteration
    if kind == "order_leq":
        return bool(it.order_leq(
            it.template.all_points(), parse_literal(doc, q["q"]), parse_literal(doc, q["p"])
        ))
    if kind == "decide":
        poset = it.build_poset(frozenset(q["support"]))
        return names.decide_forces_value(
            poset, parse_literal(doc, q["cond"]), doc.names[q["name"]], q["n"], q["m"]
        )
    raise ValueError(f"unknown query kind {kind!r}")


def setup(paths: list[str]):
    """Import finforce, then parse and validate each document as
    ``finforce validate`` does."""
    from finforce import cli, workdoc

    docs = []
    for path in paths:
        doc = workdoc.load_doc(path)
        docs.append((doc, cli._validate(doc)))
    return docs


def verify(doc, diagnostics: list[str]) -> dict:
    """What ``finforce verify`` does after validation."""
    from finforce.iteration import ResourceCapExceeded
    from finforce.verify import run_checks

    if diagnostics:
        return {"exit": 1, "verdict_s": 0.0, "reports": []}
    t0 = time.perf_counter()
    try:
        reports = run_checks(doc.iteration, doc.names, doc.checks, seed=doc.seed)
    except ResourceCapExceeded:
        return {"exit": 3, "verdict_s": time.perf_counter() - t0, "reports": []}
    verdict_s = time.perf_counter() - t0
    return {
        "exit": 0 if all(r.passed for r in reports) else 1,
        "verdict_s": verdict_s,
        "reports": [r.to_json() for r in reports],
    }


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        import finforce.cli  # noqa: F401  (load every module before wrapping)
        import finforce.workdoc  # noqa: F401
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if job["kind"] == "verify":
        ((doc, diagnostics),) = setup([job["doc"]])
        out = {"t_ready": time.monotonic(), "diagnostics": diagnostics}
        if not job.get("setup_only"):
            out.update(verify(doc, diagnostics))
    else:
        setup(list(job["docs"].values()))
        out = {"t_ready": time.monotonic()}
        latencies, answers = [], []
        t0 = time.perf_counter()
        for q in job["queries"]:
            t = time.perf_counter()
            try:
                answers.append(answer_query(job["docs"][q["doc"]], q))
            except Exception as exc:  # one wrong answer, not a lost batch
                answers.append(f"error: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t)
        out.update(verdict_s=time.perf_counter() - t0, latencies=latencies, answers=answers)
    import finforce
    import numpy

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["finforce_file"] = os.path.abspath(finforce.__file__)
    out["numpy"] = numpy.__version__
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
