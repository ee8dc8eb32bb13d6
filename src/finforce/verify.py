"""Brute-force generic semantics and the theorem checks.

Every check enumerates admissible generic sequences, realizes induced
filters directly from the coordinate-wise rule, and compares against the
synthesized codes (or recomputed histories), recording failures with full
witnesses in a machine-readable report.  The main theorem compares two bit
matrices, conditions by generics: where the codes hold (and raise), and
the induced filters.  Checks over distinct sequences
are independent; reports canonicalize witness order so repeated runs are
byte-identical apart from timing.

Every check takes ``(it, names=None, seed=0)``; a check that reads no names
or draws no sample ignores those arguments.  The subsets, nested pairs and
correct systems the checks sweep all come from `templates.lattice`, in the
canonical subset order.  `run_checks` is the one timer: it sets each
report's ``seconds`` around the check it runs, and ``peak_rss_mb``, the
process's peak resident set (``ru_maxrss``) once the check is done; both
are ``timing`` in JSON.
"""

from __future__ import annotations

import random
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .codes import Batch, IllFormedComposition, eval_code, eval_fcode_detailed
from .history import (
    enumerate_points,
    history_of_condition,
    history_of_name,
    restrict_tuple,
    tuple_space,
)
from .iteration import (
    Condition,
    GenericSequence,
    IterationError,
    SimpleIteration,
    realize_filter,
)
from .models import check_nice_subposet
from .names import RealName
from .posets import CorrectGroup, GroupedSystem, check_correct_system
from .synth import case2_contexts, synth_E, synth_F
from .templates import CORRECT_SYSTEMS, NESTED_PAIRS, SUBSETS, Subset, lattice


@dataclass
class Failure:
    kind: str
    condition: str = ""
    name: str = ""
    zbar: str = ""
    expected: str = ""
    actual: str = ""

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "condition": self.condition,
            "name": self.name,
            "zbar": self.zbar,
            "expected": self.expected,
            "actual": self.actual,
        }

    def sort_key(self):
        return (self.kind, self.condition, self.name, self.zbar, self.expected, self.actual)


@dataclass
class Report:
    check: str
    checked: int = 0
    generics: int = 0
    names: int = 0
    failures: list[Failure] = field(default_factory=list)
    seconds: float = 0.0
    peak_rss_mb: float = 0.0
    sampled: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "checked": self.checked,
            "generics": self.generics,
            "names": self.names,
            "sampled": self.sampled,
            "failures": [f.to_json() for f in sorted(self.failures, key=Failure.sort_key)],
            "timing": {"seconds": self.seconds, "peak_rss_mb": self.peak_rss_mb},
        }

    def summary(self) -> str:
        state = "pass" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return (
            f"{self.check}: {state} "
            f"[checked={self.checked} generics={self.generics} names={self.names}]"
        )


def _subsets(it: SimpleIteration) -> list[Subset]:
    return [a for (a,) in lattice(it.template.points, SUBSETS)]


def _supersets(it: SimpleIteration) -> list[tuple[Subset, list[Subset]]]:
    """Each subset K with every A >= K."""
    return [
        (small, [a for _, a in pairs])
        for small, pairs in groupby(lattice(it.template.points, NESTED_PAIRS), key=lambda t: t[0])
    ]


def _batch_per_space(it: SimpleIteration, points_of):
    """``batch_of(h)``: the `Batch` over ``points_of(t)`` for the tuple space
    t of history h, built once per distinct tuple space."""
    batches: dict = {}

    def batch_of(h):
        t = tuple_space(it, h)
        if t not in batches:
            batches[t] = Batch(points_of(t))
        return batches[t]

    return batch_of


def _name_in_pstar(it: SimpleIteration, a: Subset, name: RealName) -> bool:
    """Every antichain member of the name is in P*|A."""
    return all(it.member_pstar(a, q) for ac in name.antichains for q in ac)


def verify_main_theorem(
    it: SimpleIteration,
    names: dict[str, RealName] | None = None,
    seed: int = 0,
    max_generics: int = 4096,
) -> Report:
    """Membership codes must decide induced-filter membership, and name
    evaluation functions must reproduce direct antichain evaluation, for
    every condition and every admissible generic sequence.  A generic whose
    induced filter fails its audit in `realize_filter` (for a template
    that validates but induces a filter that is not directed, say) is an
    "internal-error" failure with that generic as witness.

    Beyond ``max_generics`` sequences the sweep runs on a seeded sample and
    the report is labeled sampled."""
    names = names or {}
    rep = Report(check="main_theorem", names=len(names))
    full = it.template.all_points()
    poset = it.build_poset(full)
    gens = it.enumerate_generics(full)
    if len(gens) > max_generics:
        rng = random.Random(seed)
        gens = tuple(rng.sample(gens, max_generics))
        rep.sampled = True
    rep.generics = len(gens)

    # each generic is projected once per distinct tuple space, and every
    # code of a space is evaluated over that space's projections in one batch
    batch_of = _batch_per_space(it, lambda t: [restrict_tuple(zbar, t) for zbar in gens])
    # per condition, a row of bits over the generics where its code holds and
    # one where its evaluation raises; only the results that raise are kept
    n, width = len(poset.elements), -(-len(gens) // 8)
    holds, raises, raising = bytearray(), bytearray(), {}
    for i, p in enumerate(poset.elements):
        res = eval_code(synth_E(it, full, p), batch_of(history_of_condition(it, full, p)), strict=True)
        err = 0
        for mask, _ in res.errors:
            err |= mask
        if err:
            raising[i] = res
        holds += res.bits.to_bytes(width, "little")
        raises += err.to_bytes(width, "little")
    evaluations = [
        (label, name, eval_fcode_detailed(synth_F(it, full, name),
                                          batch_of(history_of_name(it, full, name)), strict=True))
        for label, name in names.items()
    ]

    # the cells where the code and the induced filter (the generic's column
    # of the filter table) differ, or the code raises: the only failures
    column, table = it.induced_filters(full)
    inside = np.packbits(table[:, [column[z] for z in gens]], axis=1, bitorder="little")
    holds, raises = (np.frombuffer(bytes(m), dtype=np.uint8).reshape(n, width) for m in (holds, raises))
    differ = np.unpackbits((holds ^ inside) | raises, axis=1, count=len(gens), bitorder="little")

    for j, zbar in enumerate(gens):
        try:
            g = realize_filter(it, zbar)
        except IterationError as exc:
            # no filter to compare against: the generic is the witness
            rep.failures.append(Failure("internal-error", "", "", str(zbar), "", str(exc)))
            continue
        rep.checked += n
        for i in np.flatnonzero(differ[:, j]):
            p = poset.elements[i]
            direct = p in g
            try:
                # a code that decided the cell differs from the filter there
                via_code = raising[i][j] if i in raising else not direct
            except IllFormedComposition as exc:
                rep.failures.append(
                    Failure("ill-formed-composition", str(p), "", str(zbar), "", str(exc))
                )
                continue
            rep.failures.append(
                Failure("membership-code", str(p), "", str(zbar), str(direct), str(via_code))
            )
        for label, name, evaluation in evaluations:
            direct_vals = []
            trouble = None
            for i, (antichain, values) in enumerate(zip(name.antichains, name.values)):
                hits = [k for k, q in enumerate(antichain) if q in g]
                if len(hits) != 1:
                    trouble = f"antichain {i} met {len(hits)} times"
                    break
                direct_vals.append(values[hits[0]])
            if trouble:
                rep.failures.append(Failure("antichain-uniqueness", "", label, str(zbar), "1", trouble))
                continue
            got, in_d = evaluation[j]
            if not in_d:
                rep.failures.append(
                    Failure("outside-domain", "", label, str(zbar), "inside D", "outside D")
                )
            if tuple(direct_vals) != got:
                rep.failures.append(
                    Failure("name-evaluation", "", label, str(zbar), str(tuple(direct_vals)), str(got))
                )
    return rep


def verify_history_invariance(
    it: SimpleIteration, names: dict[str, RealName] | None = None, seed: int = 0
) -> Report:
    """Histories computed relative to nested ambient sets must coincide, and
    the A'-choice inside the recursion must be immaterial."""
    names = names or {}
    rep = Report(check="history_invariance", names=len(names))
    supersets = _supersets(it)
    # every P*|A first: the histories over a larger A then read the
    # contexts its table recorded instead of recursing for them
    for a, _ in supersets:
        it.members(a)
    for a_small, bigger in supersets:
        for p in it.members(a_small):
            h_small = history_of_condition(it, a_small, p)
            for a in bigger:
                rep.checked += 1
                h_big = history_of_condition(it, a, p)
                if h_small != h_big:
                    rep.failures.append(
                        Failure(
                            "history-ambient", str(p), "",
                            f"A'={sorted(a_small)} A={sorted(a)}",
                            str(h_small), str(h_big),
                        )
                    )
            if not p.is_empty():
                base = history_of_condition(it, a_small, p)
                for ctx in it.entry_contexts(a_small, p):
                    rep.checked += 1
                    forced = history_of_condition(it, a_small, p, context_override=ctx)
                    if forced != base:
                        rep.failures.append(
                            Failure(
                                "history-choice", str(p), "", f"A'={sorted(ctx)}",
                                str(base), str(forced),
                            )
                        )
    full = it.template.all_points()
    for label, name in names.items():
        h_full = history_of_name(it, full, name)
        for a, _ in supersets:
            if _name_in_pstar(it, a, name):
                rep.checked += 1
                h_a = history_of_name(it, a, name)
                if h_a != h_full:
                    rep.failures.append(
                        Failure("history-name", "", label, f"A={sorted(a)}", str(h_full), str(h_a))
                    )
    return rep


def _compare_with(reference, batch: Batch, evaluate):
    """``first_difference(code)``: the first (point, reference value, code
    value) over the points of ``batch``, in order, at which code and
    ``reference`` evaluate differently, or None.  ``evaluate(code, batch)``
    gives a code's values over the whole batch; the reference is evaluated
    once, when anything else is first compared with it, and never against
    itself: `synth` keeps one object per code value, so a code equal to
    the reference is the reference."""
    seen: list = []

    def first_difference(code):
        if code is reference:
            return None
        if not seen:
            seen.append(evaluate(reference, batch))
        ref, got = seen[0], evaluate(code, batch)
        if ref.agrees(got):
            return None
        for i, pt in enumerate(batch.points):
            r, v = ref[i], got[i]
            if v != r:
                return pt, r, v
        return None

    return first_difference


def verify_well_definedness(
    it: SimpleIteration, names: dict[str, RealName] | None = None, seed: int = 0
) -> Report:
    """Codes synthesized relative to nested ambient sets, and over every
    admissible delegation target, must be semantically equal on the
    condition's whole tuple space."""
    names = names or {}
    rep = Report(check="well_definedness", names=len(names))

    def check(first_difference, code, kind, condition, name, where, *sets):
        """One comparison; the failure's labels are formatted only on a
        difference: ``condition`` by `str`, ``where`` with ``sets`` sorted."""
        rep.checked += 1
        diff = first_difference(code)
        if diff is not None:
            pt, v1, v2 = diff
            where = where.format(*map(sorted, sets))
            rep.failures.append(Failure(kind, str(condition), name, f"{where} at {pt}", str(v1), str(v2)))

    # one batch per distinct tuple space, so a node shared by the codes of
    # several conditions is evaluated once over it
    batch_of = _batch_per_space(it, enumerate_points)
    supersets = _supersets(it)
    for small, bigger in supersets:
        for q in it.members(small):
            first_difference = _compare_with(
                synth_E(it, small, q), batch_of(history_of_condition(it, small, q)),
                lambda c, batch: eval_code(c, batch, strict=False),
            )
            for a in bigger:
                check(first_difference, synth_E(it, a, q), "code-ambient", q, "", "K={} A={}", small, a)
            # delegation-choice independence where the case split offers one:
            # delegating to A' builds the code over A'
            x = it.template.order.max_of(small) if small else None
            if x is not None and it.past_in(small, x) not in it.template.families[x]:
                for choice in case2_contexts(it, small, q):
                    check(first_difference, synth_E(it, choice, q), "code-choice", q, "", "A'={}", choice)
    full = it.template.all_points()
    for label, name in names.items():
        first_difference = _compare_with(
            synth_F(it, full, name), batch_of(history_of_name(it, full, name)),
            lambda f, batch: eval_fcode_detailed(f, batch, strict=False),
        )
        for a, _ in supersets:
            if a != full and _name_in_pstar(it, a, name):
                check(first_difference, synth_F(it, a, name), "fcode-ambient", "", label, "A={}", a)
    return rep


def verify_density(
    it: SimpleIteration, names: dict[str, RealName] | None = None, seed: int = 0
) -> Report:
    """P* must be dense in the widened iteration over every subset."""
    rep = Report(check="density")
    for a in _subsets(it):
        rep.checked += 1
        ok, witness = it.check_density_pstar(a)
        if not ok:
            rep.failures.append(
                Failure("density", str(witness), "", f"A={sorted(a)}", "extension in P*", "none")
            )
    return rep


def verify_embeddings(
    it: SimpleIteration, names: dict[str, RealName] | None = None, seed: int = 0
) -> Report:
    """Complete embeddings along every nested pair of the subset lattice."""
    rep = Report(check="embeddings")
    for small, big in lattice(it.template.points, NESTED_PAIRS):
        rep.checked += 1
        emb = it.check_complete_embedding(small, big)
        if not emb.ok:
            rep.failures.append(
                Failure(
                    "embedding", "", "",
                    f"{sorted(small)} into {sorted(big)}",
                    "complete", str(emb.failures[:3]),
                )
            )
    return rep


def verify_nice_and_correct(
    it: SimpleIteration, names: dict[str, RealName] | None = None, seed: int = 0
) -> Report:
    """Every subposet value of every R-coordinate table must satisfy the
    E-characterization on its restricted generic space, and every four-poset
    system generated from the subset lattice must be correct."""
    rep = Report(check="nice_and_correct")
    for x in it.template.points:
        asg = it.assignments[x]
        if asg.kind != "R":
            continue
        for member, spec in zip(asg.qname.antichain, asg.qname.table):
            rep.checked += 1
            problems = check_nice_subposet(asg.model, spec.elements, spec.z_space)
            for pr in problems:
                rep.failures.append(
                    Failure("nice-subposet", str(member), f"table at {x}", "", "", str(pr))
                )
    built = {a: it.build_poset(a) for a in _subsets(it)}
    # the systems per nested pair A0 <= B1, whose group checks them together
    groups: dict[tuple[Subset, Subset], list[tuple[Subset, Subset]]] = defaultdict(list)
    for a0, a1, b0, b1 in lattice(it.template.points, CORRECT_SYSTEMS):
        groups[a0, b1].append((a1, b0))
    for (a0, b1), systems in groups.items():
        rep.checked += len(systems)
        group = CorrectGroup(built[a0], built[b1], [(built[a1], built[b0]) for a1, b0 in systems])
        for s, (a1, b0) in enumerate(systems):
            res = check_correct_system(GroupedSystem(group, s))
            if not res.ok:
                rep.failures.append(
                    Failure(
                        "correct-system", "", "",
                        f"A0={sorted(a0)} A1={sorted(a1)} B0={sorted(b0)} B1={sorted(b1)}",
                        "correct", str(res.failures[:3]),
                    )
                )
    return rep


CHECKS = {
    "main_theorem": verify_main_theorem,
    "history_invariance": verify_history_invariance,
    "well_definedness": verify_well_definedness,
    "density": verify_density,
    "embeddings": verify_embeddings,
    "nice_and_correct": verify_nice_and_correct,
}

def run_checks(
    it: SimpleIteration,
    names: dict[str, RealName] | None = None,
    which: list[str] | None = None,
    seed: int = 0,
) -> list[Report]:
    reports = []
    for check in CHECKS if which is None else which:
        t0 = time.perf_counter()
        reports.append(CHECKS[check](it, names, seed))
        reports[-1].seconds = time.perf_counter() - t0
        reports[-1].peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return reports
