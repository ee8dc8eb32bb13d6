"""The verification ladder: one `finforce verify` child process per rung.

    python3 scripts/ladder.py --out BENCH.json [--label NAME] [--root DIR] [--max-k 6]

The rungs are the shipped workdocs i1, fsi2_cc, fsi2_cohen_c, fsi3 and
case2 (the one rung whose synthesis delegates: on some subsets A the past
of max(A) lies outside its family), then finite support iterations of k
cohen(1,2) stages with all six checks, for k = 2 .. --max-k (7 on
request), made by `perfbench/inputs.fsi_doc` with seed 7.  Each rung runs `python -m finforce.cli verify` from the checkout
at --root (default: this repository) in a fresh child, under a 4 GiB
address-space limit set on the child only.
Per rung the helper records the exit code, the wall time, the child's
peak RSS (``ru_maxrss``), and each check's verdict, work count,
``timing.seconds`` and ``timing.peak_rss_mb`` (the child's peak RSS once
the check is done, so the check that sets the rung's peak shows) from the
report.  The results are stored under
--label in the JSON file --out, next to what other labels hold there, so
one file can hold a parent and a change measured on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "perfbench"))

import inputs  # noqa: E402

SHIPPED = ["i1", "fsi2_cc", "fsi2_cohen_c", "fsi3", "case2"]
SEED = 7
LIMIT_GIB = 4  # a failed allocation, not the host's memory, ends a rung


def rungs(max_k: int, directory: str) -> list[tuple[str, str]]:
    """(label, document path) per rung, in ladder order."""
    out = [(label, inputs.shipped_path(REPO, label)) for label in SHIPPED]
    for k in range(2, max_k + 1):
        doc = inputs.fsi_doc(k, list(inputs.CHECKS), inputs.fsi_names(k, random.Random(SEED)), SEED)
        path = os.path.join(directory, f"fsi_k{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out.append((f"fsi_k{k}", path))
    return out


def check_result(r: dict) -> dict:
    """One check's verdict, work count, seconds and peak RSS, rounded as
    the rung's own figures are; a report of a root older than
    ``timing.peak_rss_mb`` has no peak to record."""
    out = {"passed": not r["failures"], "checked": r["checked"], "seconds": round(r["timing"]["seconds"], 3)}
    if "peak_rss_mb" in r["timing"]:
        out["peak_rss_mb"] = round(r["timing"]["peak_rss_mb"], 1)
    return out


def run_rung(root: str, doc: str, directory: str) -> dict:
    """Verify one document in a child process and read back its report."""
    report = os.path.join(directory, "report.json")
    if os.path.exists(report):
        os.remove(report)
    limit = LIMIT_GIB * 2**30

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryFile("w+") as out:
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "finforce.cli", "verify", "--doc", doc, "--report", report],
            cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT, preexec_fn=limit_child,
        )
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        output = out.read()
    result = {
        "exit": child.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
    }
    if os.path.exists(report):
        with open(report, encoding="utf-8") as fh:
            result["checks"] = {r["check"]: check_result(r) for r in json.load(fh)}
    else:
        result["output_tail"] = output.strip().splitlines()[-3:]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to store the results in")
    parser.add_argument("--label", default="change", help="key of these results in --out")
    parser.add_argument("--root", default=REPO, help="checkout whose src/ is verified")
    parser.add_argument("--max-k", type=int, default=6, help="largest FSI rung (7 on request)")
    args = parser.parse_args(argv)

    results = {}
    with tempfile.TemporaryDirectory() as directory:
        for label, doc in rungs(args.max_k, directory):
            results[label] = run_rung(os.path.abspath(args.root), doc, directory)
            print(label, json.dumps(results[label]), flush=True)

    data = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            data = json.load(fh)
    data[args.label] = {
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "limit_gib": LIMIT_GIB,
        },
        "rungs": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
