"""Benchmark inputs made from a seed: generated workbench documents, the
point-query mix, and the known answers every run is checked against.

Standard library only: the parent process uses this module without
importing finforce.
"""

from __future__ import annotations

import base64
import json
import os
import random
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

CHECKS = [
    "main_theorem", "history_invariance", "well_definedness",
    "density", "embeddings", "nice_and_correct",
]
REPORT_KEYS = ("check", "checked", "generics", "names", "sampled", "failures")

SHIPPED = ["i1", "fsi2_cc", "fsi2_cohen_c", "ed_naive", "bad_t1"]
QUERY_DOCS = ["i1", "fsi2_cohen_c", "fsi4"]
QUERY_KINDS = ["synth_cond", "synth_name", "order_leq", "decide"]
# Queries per batch and document.  Half go to the generated fsi4 rung, a
# quarter to each shipped document.  An i1 query takes about 40 ms (its
# load builds and validates the ed model) and most others 1-3 ms.  With
# i1 at a quarter the p50 lands inside the dense fast cluster and the p90
# inside the i1 cluster, not on the edge between them.  synth --name runs
# on the shipped documents only, whose names have recorded outputs.
QUERY_MIX = {"i1": 24, "fsi2_cohen_c": 24, "fsi4": 48}


def shipped_path(root: str, label: str) -> str:
    return os.path.join(root, "src", "finforce", "workdocs", f"{label}.json")


# ---------------------------------------------------------------------------
# Generated documents


def _powerset(items: list) -> list[list]:
    out = [[]]
    for x in items:
        out += [s + [x] for s in out]
    return out


def _const(bit: int) -> dict:
    return {"const": str(bit)}


def fsi_names(k: int, rng: random.Random) -> dict:
    """Two seeded names over a k-stage FSI: one reads a single stage, one
    splits on two stages.  Both antichains are met exactly once by every
    generic, so main_theorem stays failure-free on any seed."""
    i = rng.randrange(k)
    v = rng.sample(range(10), 2)
    single = [[
        {"when": {str(i): _const(0)}, "value": v[0]},
        {"when": {str(i): _const(1)}, "value": v[1]},
    ]]
    a, b = sorted(rng.sample(range(k), 2))
    w = rng.sample(range(10), 3)
    pair = [[
        {"when": {str(a): _const(0), str(b): _const(0)}, "value": w[0]},
        {"when": {str(a): _const(0), str(b): _const(1)}, "value": w[1]},
        {"when": {str(a): _const(1)}, "value": w[2]},
    ]]
    return {"single": single, "pair": pair}


def fsi_doc(k: int, checks: list[str], names: dict, seed: int) -> dict:
    """A finite support iteration of k cohen(1,2) stages as a workdoc:
    full-powerset families, every stage a B coordinate."""
    points = [str(i) for i in range(k)]
    return {
        "template": {
            "points": points,
            "families": {x: _powerset(points[:i]) for i, x in enumerate(points)},
        },
        "models": {"S": {"builtin": "cohen", "length": 1, "alphabet": 2}},
        "iteration": {x: {"kind": "B", "model": "S"} for x in points},
        "names": names,
        "run": {"checks": checks, "max_conditions": 100000, "seed": seed},
    }


def case2_doc(seed: int) -> dict:
    """The workdoc form of the case-two fixture: the top family omits {2}
    and {0,2}, so synthesis must delegate to smaller ambient sets."""
    return {
        "template": {
            "points": ["0", "1", "2", "3"],
            "families": {
                "0": [[]],
                "1": [[], ["0"]],
                "2": [[], ["0"], ["1"], ["0", "1"]],
                "3": [[], ["0"], ["1"], ["0", "1"], ["1", "2"], ["0", "1", "2"]],
            },
        },
        "models": {"S": {"builtin": "cohen", "length": 1, "alphabet": 2}},
        "iteration": {
            "0": {"kind": "B", "model": "S"},
            "1": {"kind": "B", "model": "S"},
            "2": {"kind": "B", "model": "S"},
            "3": {
                "kind": "C", "gamma": 2, "support": ["1"],
                "poset": {"base": [], "table": [
                    {"when": {}, "value": {"size": 2, "leq": [[1, 0]], "blocks": [[0], [1]]}}
                ]},
            },
        },
        "names": {
            "first_bit": [[
                {"when": {"0": _const(0)}, "value": 3},
                {"when": {"0": _const(1)}, "value": 4},
            ]],
            "deep": [[
                {"when": {"2": _const(0), "3": 1}, "value": 0},
                {"when": {"2": _const(1), "3": 1}, "value": 1},
            ]],
        },
        "run": {"checks": list(CHECKS), "max_conditions": 100000, "seed": seed},
    }


def generated_docs(seed: int) -> dict[str, dict]:
    """Every generated document of a seed, by label."""
    rng = random.Random(seed)
    run_seed = rng.randrange(1, 1000)
    return {
        "fsi4": fsi_doc(4, list(CHECKS), fsi_names(4, rng), run_seed),
        "fsi5": fsi_doc(5, ["main_theorem"], fsi_names(5, rng), run_seed),
        "case2": case2_doc(run_seed),
    }


def write_docs(docs: dict[str, dict], directory: str) -> dict[str, str]:
    paths = {}
    for label, doc in docs.items():
        path = os.path.join(directory, f"{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        paths[label] = path
    return paths


# ---------------------------------------------------------------------------
# Known answers


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pack_matrix(rows: list[list[bool]]) -> str:
    bits = "".join("1" if b else "0" for row in rows for b in row)
    return base64.b64encode(zlib.compress(bits.encode(), 9)).decode()


def unpack_matrix(packed: str, n: int) -> list[list[bool]]:
    bits = zlib.decompress(base64.b64decode(packed)).decode()
    if len(bits) != n * n:
        raise ValueError(f"packed matrix holds {len(bits)} bits, expected {n * n}")
    return [[bits[i * n + j] == "1" for j in range(n)] for i in range(n)]


def literal_key(literal: dict) -> str:
    return json.dumps(literal, sort_keys=True)


def name_support(rows: list) -> list[str]:
    return sorted({x for row in rows for case in row for x in case["when"]})


def fsi_expected_reports(k: int, checks: list[str], names: dict, golden: dict) -> list[dict]:
    """Report fields for a k-stage cohen(1,2) FSI, from closed forms.

    Conditions are 4^k (absent, trivial or one of two constants per stage)
    and generics 2^k; the subset lattice has 2^k sets, 3^k nested pairs and
    5^k correct-system quadruples.  The sweeps over histories and codes
    have no closed form here: their name-free counts are recorded from the
    seed commit, and a name supported on S adds one check per superset of
    S (history_invariance) or per proper superset (well_definedness)."""
    supports = [len(name_support(rows)) for rows in names.values()]
    n = len(names)

    def counts(check: str) -> tuple[int, int, int]:
        if check == "main_theorem":
            return 8 ** k, 2 ** k, n
        if check in ("history_invariance", "well_definedness"):
            per_name = 0 if check == "history_invariance" else 1
            base = golden["fsi_base_counts"][str(k)][check]
            return base + sum(2 ** (k - s) - per_name for s in supports), 0, n
        return {"density": 2 ** k, "embeddings": 3 ** k, "nice_and_correct": 5 ** k}[check], 0, 0

    out = []
    for check in checks:
        checked, generics, n_names = counts(check)
        out.append({"check": check, "checked": checked, "generics": generics,
                    "names": n_names, "sampled": False, "failures": []})
    return out


def expected_verdicts(docs: dict[str, dict], golden: dict) -> dict[str, dict]:
    """Expected exit code, diagnostics and report fields per document."""
    out = {label: golden["docs"][label] for label in SHIPPED + ["case2"]}
    for label, k in (("fsi4", 4), ("fsi5", 5)):
        doc = docs[label]
        out[label] = {
            "exit": 0,
            "diagnostics": [],
            "reports": fsi_expected_reports(k, doc["run"]["checks"], doc["names"], golden),
        }
    return out


# ---------------------------------------------------------------------------
# The point-query mix


def query_docs_names(docs: dict[str, dict], golden: dict) -> dict[str, dict]:
    """Names a decide query may ask about, per query document: those whose
    home poset is recorded in the known answers.  The home of a name is
    the least P*|A holding its antichains; on the all-B FSI ladder it is
    the set of stages the name reads."""
    out = {}
    for label in QUERY_DOCS:
        q = golden["queries"][label]
        rows_by_name = docs[label]["names"] if label == "fsi4" else q["names"]
        homes = q.get("homes", {})
        out[label] = {}
        for name, rows in rows_by_name.items():
            support = homes.get(name, name_support(rows))
            if ",".join(support) in q["subposets"]:
                out[label][name] = {
                    "values": [[case["value"] for case in row] for row in rows],
                    "members": [[literal_key(case["when"]) for case in row] for row in rows],
                    "support": support,
                }
    return out


def make_queries(seed: int, batch: int, docs: dict[str, dict], golden: dict) -> list[dict]:
    """A seeded batch of point queries, each with its expected answer.

    The mix is fixed (QUERY_MIX, split evenly over the kinds a document
    takes), so the latency percentiles do not move with the share of slow
    documents.  The seed and the batch number pick the arguments and the
    order."""
    rng = random.Random(seed * 1_000_003 + batch)
    plan = []
    for label, count in QUERY_MIX.items():
        kinds = [k for k in QUERY_KINDS if k != "synth_name" or golden["queries"][label]["synth_name"]]
        plan += [(kind, label) for kind in kinds for _ in range(count // len(kinds))]
    rng.shuffle(plan)
    names = query_docs_names(docs, golden)
    orders: dict[str, list[list[bool]]] = {}
    out = []
    for kind, label in plan:
        q = golden["queries"][label]
        conds = q["conds"]
        if kind == "synth_cond":
            ci = rng.randrange(len(conds))
            out.append({"kind": kind, "doc": label, "cond": conds[ci],
                        "expect": q["synth_cond"][ci]})
        elif kind == "synth_name":
            name = rng.choice(sorted(q["synth_name"]))
            out.append({"kind": kind, "doc": label, "name": name,
                        "expect": q["synth_name"][name]})
        elif kind == "order_leq":
            qi = rng.randrange(len(conds))
            pi = _weaker_or_random(rng, conds, qi)
            if label not in orders:
                orders[label] = unpack_matrix(q["leq"], len(conds))
            out.append({"kind": kind, "doc": label, "q": conds[qi], "p": conds[pi],
                        "expect": orders[label][qi][pi]})
        else:
            name = rng.choice(sorted(names[label]))
            table = names[label][name]
            n = rng.randrange(len(table["values"]))
            sub = q["subposets"][",".join(table["support"])]
            ci = rng.randrange(len(sub["idx"]))
            values = table["values"][n]
            m = rng.choice(sorted(set(values)) + [max(values) + 1])
            out.append({
                "kind": kind, "doc": label, "name": name, "n": n, "m": m,
                "support": table["support"], "cond": conds[sub["idx"][ci]],
                "expect": _decide_oracle(sub, conds, table, ci, n, m),
            })
    return out


def _weaker_or_random(rng: random.Random, conds: list[dict], qi: int) -> int:
    """Half the time a restriction of conds[qi] (usually above it in the
    order), otherwise any condition."""
    if rng.random() < 0.5:
        keep = [x for x in sorted(conds[qi]) if rng.random() < 0.5]
        restricted = literal_key({x: conds[qi][x] for x in keep})
        for j, c in enumerate(conds):
            if literal_key(c) == restricted:
                return j
    return rng.randrange(len(conds))


def _decide_oracle(sub: dict, conds: list, table: dict, ci: int, n: int, m: int) -> str:
    """decide_forces_value's answer recomputed from the recorded order of
    the home poset: the values of the antichain members compatible with
    the condition must all equal m (forces) or all differ (refutes)."""
    idx = sub["idx"]
    leq = unpack_matrix(sub["leq"], len(idx))
    pos = {literal_key(conds[j]): k for k, j in enumerate(idx)}
    seen = []
    for member, value in zip(table["members"][n], table["values"][n]):
        mi = pos[member]
        if any(leq[r][ci] and leq[r][mi] for r in range(len(idx))):
            seen.append(value)
    if all(v == m for v in seen):
        return "forces"
    if all(v != m for v in seen):
        return "refutes"
    return "undecided"
