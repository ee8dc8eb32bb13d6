"""Record the known answers in ``golden.json`` from the current code.

Run from the repository root, on a commit whose outputs are trusted:

    PYTHONPATH=src:perfbench python3 perfbench/make_golden.py

It stores, per benchmark document, the exit code, the validation
diagnostics and the non-timing report fields of ``verify``; the name-free
sweep counts of the FSI ladder that have no closed form; and, per query
document, every condition of P*|L with its order matrix, the output of
``synth --cond`` and ``synth --name``, and the order of the small support
posets the ``decide`` queries use.  It then checks the closed forms in
``inputs.fsi_expected_reports`` against fresh runs on a few seeds.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile

import inputs
import worker

ROOT = os.path.dirname(inputs.HERE)
SMALL_POSET = 64  # decide queries use support posets up to this size


def report_fields(reports: list[dict]) -> list[dict]:
    return [{k: r[k] for k in inputs.REPORT_KEYS} for r in reports]


def verify_doc(path: str) -> dict:
    ((doc, diagnostics),) = worker.setup([path])
    out = worker.verify(doc, diagnostics)
    return {"exit": out["exit"], "diagnostics": diagnostics,
            "reports": report_fields(out["reports"])}


def literal_of(it, cond) -> dict:
    from finforce.iteration import TRIV

    lit = {}
    for x, e in cond.entries:
        if e is TRIV:
            lit[x] = "trivial"
        elif isinstance(e, int):
            lit[x] = e
        elif e.is_constant() and not e.base:
            lit[x] = {"const": it.assignments[x].model.label(e.table[0])}
        else:
            lit[x] = {"entry": e.label}
    return lit


def matrix_rows(poset) -> list[list[bool]]:
    return [[bool(b) for b in row] for row in poset.leq_matrix]


def name_homes(doc) -> dict[str, list[str]]:
    """Per name, the least subset A (by size, then rank) whose P*|A holds
    every antichain member: the poset decide queries ask about."""
    it = doc.iteration
    subsets = it.template.sorted_subsets(
        frozenset(c) for r in range(len(it.template.points) + 1)
        for c in itertools.combinations(it.template.points, r)
    )
    return {
        label: list(it.points_of(next(
            a for a in subsets
            if all(it.member_pstar(a, q) for ac in name.antichains for q in ac)
        )))
        for label, name in doc.names.items()
    }


def query_answers(path: str, raw: dict, supports: list[list[str]] | None = None) -> dict:
    from finforce import workdoc

    doc = workdoc.load_doc(path)
    it = doc.iteration
    homes = name_homes(doc)
    if supports is None:
        supports = list(homes.values())
    poset = it.build_poset(it.template.all_points())
    conds = [literal_of(it, c) for c in poset.elements]
    for lit, c in zip(conds, poset.elements):
        if worker.parse_literal(doc, lit) != c:
            raise AssertionError(f"literal {lit} does not read back as {c}")
    pos = {inputs.literal_key(lit): i for i, lit in enumerate(conds)}
    subposets = {}
    for support in supports:
        sub = it.build_poset(frozenset(support))
        if len(sub) > SMALL_POSET:
            continue
        subposets[",".join(support)] = {
            "idx": [pos[inputs.literal_key(literal_of(it, c))] for c in sub.elements],
            "leq": inputs.pack_matrix(matrix_rows(sub)),
        }
    q = {
        "conds": conds,
        "leq": inputs.pack_matrix(matrix_rows(poset)),
        "synth_cond": [
            worker.run_cli(["synth", "--doc", path, "--cond", json.dumps(lit)])
            for lit in conds
        ],
        "synth_name": {
            name: worker.run_cli(["synth", "--doc", path, "--name", name])
            for name in raw.get("names", {})
        },
        "subposets": subposets,
    }
    if raw.get("names"):
        q["names"] = raw["names"]
        q["homes"] = homes
    return q


def main() -> int:
    golden = {"docs": {}, "fsi_base_counts": {}, "queries": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        docs = inputs.generated_docs(0)
        paths = inputs.write_docs(docs, tmp)
        for label in inputs.SHIPPED:
            golden["docs"][label] = verify_doc(inputs.shipped_path(ROOT, label))
        golden["docs"]["case2"] = verify_doc(paths["case2"])

        base = dict(docs["fsi4"], names={})
        base_paths = inputs.write_docs({"fsi4_base": base}, tmp)
        fields = verify_doc(base_paths["fsi4_base"])["reports"]
        golden["fsi_base_counts"]["4"] = {
            r["check"]: r["checked"] for r in fields
            if r["check"] in ("history_invariance", "well_definedness")
        }

        for label in ("i1", "fsi2_cohen_c"):
            path = inputs.shipped_path(ROOT, label)
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            golden["queries"][label] = query_answers(path, raw)
        points = docs["fsi4"]["template"]["points"]
        supports = [list(c) for r in (1, 2) for c in itertools.combinations(points, r)]
        golden["queries"]["fsi4"] = query_answers(paths["fsi4"], {}, supports)

        # the closed forms must agree with fresh runs on other seeds
        for seed in (1, 2, 3):
            docs = inputs.generated_docs(seed)
            paths = inputs.write_docs(docs, tmp)
            expected = inputs.expected_verdicts(docs, golden)
            for label in ("fsi4", "fsi5") if seed == 1 else ("fsi4",):
                got = verify_doc(paths[label])
                if got != expected[label]:
                    raise AssertionError(f"closed form for {label} seed {seed}: {got} != {expected[label]}")
    with open(inputs.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {inputs.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
