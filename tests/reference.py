"""Reference implementations that only the tests read: brute-force
antichain and reduction predicates, the semantic forcing oracles over fully
generic filters, the main theorem's membership comparison on sets, and
small accessors.  Nothing under ``src/`` calls them, so they live beside
the tests that compare the library against them."""

from __future__ import annotations

from typing import Hashable, Iterable

from finforce.codes import FCode, IllFormedComposition, eval_code, free_components
from finforce.history import TupleSpace, history_of_condition, restrict_tuple, tuple_space
from finforce.iteration import IterationError, SimpleIteration, realize_filter
from finforce.models import BorelPosetModel
from finforce.names import RealName
from finforce.posets import FinitePoset, admissible_filters_upsets, compatible, memoized
from finforce.templates import Point

Element = Hashable


# ---------------------------------------------------------------------------
# Antichains and reductions


def is_antichain(p: FinitePoset, a: Iterable[Element]) -> bool:
    a = list(a)
    return all(
        not compatible(p, a[i], a[j]) for i in range(len(a)) for j in range(i + 1, len(a))
    )


def is_maximal_antichain(p: FinitePoset, a: Iterable[Element]) -> bool:
    """Pairwise incompatible, and every element is compatible with a member."""
    a = list(a)
    if not is_antichain(p, a):
        return False
    ids = [p.index[e] for e in a]
    covered = p.compat_matrix[:, ids].any(axis=1)
    return bool(covered.all())


def maximal_antichains(p: FinitePoset) -> list[tuple[Element, ...]]:
    """All maximal antichains, by exhaustive search.  Small posets only."""
    n = len(p.elements)
    if n > 20:
        raise ValueError(f"refusing antichain enumeration on {n} elements")
    compat = p.compat_matrix
    result: list[tuple[Element, ...]] = []

    def rec(chosen: list[int], start: int):
        if chosen and compat[:, chosen].any(axis=1).all():
            result.append(tuple(p.elements[i] for i in chosen))
            return
        for i in range(start, n):
            if all(not compat[i, j] for j in chosen):
                rec(chosen + [i], i + 1)

    rec([], 0)
    return sorted(set(result), key=lambda t: (len(t), [p.index[e] for e in t]))


def is_reduction(sub: FinitePoset, sup: FinitePoset, p: Element, q: Element) -> bool:
    """p (in sub) is a reduction of q (in sup): every extension of p inside
    sub is compatible with q in sup."""
    for p2 in sub.downset(p):
        if not compatible(sup, p2, q):
            return False
    return True


# ---------------------------------------------------------------------------
# Names and the semantic oracles over fully generic filters


def validate_name(p: FinitePoset, name: RealName) -> list[str]:
    problems = []
    for n, a in enumerate(name.antichains):
        if not is_maximal_antichain(p, a):
            problems.append(f"antichain {n} is not a maximal antichain")
    return problems


@memoized
def realized_value_rows(
    p: FinitePoset, cond: Element, name: RealName, k: int
) -> frozenset[tuple[int, ...]]:
    """Value tuples realized by fully generic filters containing cond."""
    rows = set()
    for g in admissible_filters_upsets(p):
        if cond not in g:
            continue
        vals = []
        for i in range(k):
            hits = [j for j, q in enumerate(name.antichains[i]) if q in g]
            if len(hits) != 1:
                raise AssertionError("generic filter must meet each antichain once")
            vals.append(name.values[i][hits[0]])
        rows.add(tuple(vals))
    return frozenset(rows)


def semantic_forces_in_tree(
    p: FinitePoset, cond: Element, name: RealName, tree: Iterable[tuple[int, ...]], k: int
) -> bool:
    tree = frozenset(tuple(t) for t in tree)
    return all(t in tree for t in realized_value_rows(p, cond, name, k))


def semantic_decide_value(
    p: FinitePoset, cond: Element, name: RealName, n: int, m: int
) -> str:
    rows = realized_value_rows(p, cond, name, n + 1)
    seen = {r[n] for r in rows}
    if seen == {m}:
        return "forces"
    if m not in seen:
        return "refutes"
    return "undecided"


# ---------------------------------------------------------------------------
# Models, tuple spaces and codes


def filter_of(model: BorelPosetModel, z) -> frozenset:
    """The E-induced filter {p : E(z, p)}."""
    return frozenset(p for p in model.poset.elements if model.E(z, p))


def w_of(space: TupleSpace, x: Point) -> tuple[int, ...]:
    """W_x of a tuple space, for a C component x."""
    return dict(space.w)[x]


def free_components_fcode(f: FCode) -> tuple[frozenset, dict[Point, frozenset]]:
    """The model components and the C bits that an evaluation function's
    codes read, over all its coordinates."""
    s_points: set = set()
    bits: dict[Point, frozenset] = {}
    for table in f.coords:
        for code, _ in table:
            s, b = free_components(code)
            s_points |= s
            for x, xs in b.items():
                bits[x] = bits.get(x, frozenset()) | xs
    return frozenset(s_points), bits


# ---------------------------------------------------------------------------
# The main theorem's membership comparison, one set per generic


def main_theorem_by_sets(it: SimpleIteration, synth_E, gens) -> list[tuple[str, str, str, str, str]]:
    """The membership failures of the main theorem check over ``gens``, as
    (kind, condition, zbar, expected, actual), compared on sets: per
    generic, the conditions whose code holds there and those whose
    evaluation raises there, against the realized filter, in poset order.
    Each code is evaluated over its own list of projected points."""
    full = it.template.all_points()
    poset = it.build_poset(full)
    membership = {}
    for p in poset.elements:
        space = tuple_space(it, history_of_condition(it, full, p))
        membership[p] = eval_code(synth_E(it, full, p), [restrict_tuple(z, space) for z in gens], strict=True)
    holds, raises = [set() for _ in gens], [set() for _ in gens]
    for p, res in membership.items():
        for j, value in enumerate(res.values):
            if value:
                holds[j].add(p)
            if any(mask >> j & 1 for mask, _ in res.errors):
                raises[j].add(p)
    position = {p: i for i, p in enumerate(poset.elements)}
    failures = []
    for j, zbar in enumerate(gens):
        try:
            g = realize_filter(it, zbar)
        except IterationError as exc:
            failures.append(("internal-error", "", str(zbar), "", str(exc)))
            continue
        for p in sorted((g ^ holds[j]) | raises[j], key=position.__getitem__):
            try:
                via_code = membership[p][j]
            except IllFormedComposition as exc:
                failures.append(("ill-formed-composition", str(p), str(zbar), "", str(exc)))
                continue
            failures.append(("membership-code", str(p), str(zbar), str(p in g), str(via_code)))
    return failures
