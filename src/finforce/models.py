"""Desk-scale Borel-poset models: a finite poset with an executable
membership relation E over a finite space of generic values.

A model *declares* its admissible generic filters together with the value
each one realizes; `validate_borel_model` then proves they behave
generically (each is a filter meeting every maximal antichain, and filter
membership is characterized by E).  The filter audit is
`posets.filter_defect`, run once per declared filter and, in
`check_nice_subposet`, once per E-filter.  Declaring-then-validating matters:
truncation breaks the density arguments that make the characterization
automatic in real forcing, and the eventually-different model below is the
documented example.

The built-ins' order matrices are built from small tables, not pair by
pair: a prefix table over stems serves `cohen` as its whole order, and
`ed` joins it with a subset table over function sets and a clash table
(stem pairs against function sets), broadcast to all pairs of conditions.
The admissible filters are read off the same tables, so building a model
never calls its relation E; the validator's E-characterization check then
compares E with a table that was not built from it.  The linked check
reads `compat_matrix` once, at its first block with two members.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .posets import FinitePoset, common_lower_bound_exists, filter_defect, pack_rows

GenericValue = Hashable


@dataclass(frozen=True)
class AdmissibleFilter:
    """A declared generic filter together with the value eta it realizes."""

    members: frozenset
    value: GenericValue


@dataclass(eq=False)
class BorelPosetModel:
    """A finite poset S with top, generic space Z, relation E, and the
    declared admissible filters with their eta values.

    Models compare by identity; each fixture constructs its models once."""

    name: str
    poset: FinitePoset
    generic_space: tuple[GenericValue, ...]
    relation: Callable[[GenericValue, Hashable], bool]
    admissible: tuple[AdmissibleFilter, ...]
    linked_partition: tuple[frozenset, ...]
    centered: bool = False
    # answers kept for this model by `posets.memoized` functions, such as
    # `iteration.model_constant`
    _memo: defaultdict = field(default_factory=lambda: defaultdict(dict), init=False, repr=False)

    def E(self, z: GenericValue, p) -> bool:
        return self.relation(z, p)

    def label(self, element) -> str:
        return element_label(element)

    def parse_label(self, text: str):
        return parse_element_label(text)


def element_label(element) -> str:
    """Stable textual form of a model element (used by code serialization)."""
    if isinstance(element, tuple) and len(element) == 2 and isinstance(element[1], frozenset):
        stem, fns = element
        stem_s = "".join(str(v) for v in stem)
        fns_s = ",".join(sorted("".join(str(v) for v in f) for f in fns))
        return f"{stem_s}|{fns_s}"
    if isinstance(element, tuple):
        return "".join(str(v) for v in element)
    return str(element)


def parse_element_label(text: str):
    if "|" in text:
        stem_s, fns_s = text.split("|", 1)
        stem = tuple(int(c) for c in stem_s)
        fns = frozenset(
            tuple(int(c) for c in f) for f in fns_s.split(",") if f
        )
        return (stem, fns)
    return tuple(int(c) for c in text)


@dataclass(frozen=True)
class ModelViolation:
    check: str
    witness: tuple
    message: str

    def __str__(self):
        return f"{self.check}: {self.message}"


def validate_borel_model(m: BorelPosetModel) -> list[ModelViolation]:
    """Exhaustively check the four model invariants; empty list means pass."""
    violations: list[ModelViolation] = []
    top = m.poset.top

    for z in m.generic_space:
        if not m.E(z, top):
            violations.append(
                ModelViolation("E-top", (z,), f"E({z}, top) is false")
            )

    for f in m.admissible:
        inside = np.zeros(len(m.poset), dtype=bool)
        inside[[m.poset.index[p] for p in f.members]] = True
        defect = filter_defect(m.poset, inside)
        if defect is not None and defect.kind != "not-minimal":
            violations.append(
                ModelViolation("filter", (f.value,), f"declared set for eta={f.value} is not a filter")
            )
            continue
        if defect is not None:
            violations.append(
                ModelViolation(
                    "antichain-coverage", (f.value,),
                    f"filter for eta={f.value} misses a maximal antichain",
                )
            )
        for p, in_g in zip(m.poset.elements, inside.tolist()):
            holds = m.E(f.value, p)
            if in_g != holds:
                violations.append(
                    ModelViolation(
                        "E-characterization", (f.value, p),
                        f"p={element_label(p)} in G is {in_g} but E(eta, p) is {holds}",
                    )
                )

    covered, compat = set(), None
    for block in m.linked_partition:
        covered |= block
        members = sorted(block, key=m.poset.index.__getitem__)
        # singleton blocks (all of cohen's) have no pairs and need no compat_matrix;
        # the first block with pairs reads it, once for the model
        if len(members) > 1:
            ids = [m.poset.index[p] for p in members]
            compat = m.poset.compat_matrix if compat is None else compat
            apart = ~compat[np.ix_(ids, ids)]
            # row-major order of the upper triangle is itertools.combinations order
            for i, j in zip(*np.nonzero(np.triu(apart, 1))):
                a, b = members[i], members[j]
                violations.append(
                    ModelViolation(
                        "linked", (a, b),
                        f"block members {element_label(a)}, {element_label(b)} incompatible",
                    )
                )
        if m.centered and not common_lower_bound_exists(m.poset, members):
            violations.append(
                ModelViolation("centered", tuple(members), "block has no common lower bound")
            )
    if covered != set(m.poset.elements):
        violations.append(
            ModelViolation("linked", (), "partition does not cover the poset")
        )
    return violations


def check_nice_subposet(
    m: BorelPosetModel, subposet: Iterable, z_space: Sequence[GenericValue]
) -> list[ModelViolation]:
    """The checkable consequence of niceness: for every z in the restricted
    generic space, {p in Q : E(z, p)} is a filter on Q meeting every maximal
    antichain of Q."""
    z_space = tuple(z_space)
    if not z_space:
        raise ValueError("Z_Q must be nonempty")
    sub = frozenset(subposet)
    if m.poset.top not in sub:
        raise ValueError("subposet must contain the top element")
    q = m.poset.restrict(sub)
    violations: list[ModelViolation] = []
    for z in z_space:
        defect = filter_defect(q, np.array([bool(m.E(z, p)) for p in q.elements], dtype=bool))
        if defect is not None and defect.kind != "not-minimal":
            violations.append(
                ModelViolation("nice-filter", (z,), f"E-filter for z={z} is not a filter on Q")
            )
        elif defect is not None:
            violations.append(
                ModelViolation(
                    "nice-antichain", (z,),
                    f"E-filter for z={z} misses a maximal antichain of Q",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# Built-in models


def _strings_up_to(k: int, m: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(k):
        frontier = [s + (v,) for s in frontier for v in range(m)]
        out += frontier
    return out


def _stem_table(stems: Sequence[tuple[int, ...]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """The stems as rows of letters, padded with -1 past each stem's end,
    and the stems' lengths."""
    letters = np.full((len(stems), k), -1, dtype=np.int64)
    for i, s in enumerate(stems):
        letters[i, : len(s)] = s
    return letters, np.array([len(s) for s in stems], dtype=np.int64)


def _prefix_table(letters: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """prefix[i, j] iff stem j is a prefix of stem i: at every position
    before j's end, i carries j's letter (padding never matches a letter,
    so i is no shorter than j)."""
    before_end = np.arange(letters.shape[1]) < ends[:, None]
    same = letters[:, None, :] == letters[None, :, :]
    return (same | ~before_end[None, :, :]).all(axis=2)


def cohen(k: int = 2, m: int = 2) -> BorelPosetModel:
    """Cohen forcing truncated to stems of length <= k over an m-letter
    alphabet.  E(z, s) holds when s is a prefix of z; the admissible filters
    are the prefix filters of the length-k strings, read off the prefix
    table's rows."""
    elements = _strings_up_to(k, m)
    prefix = _prefix_table(*_stem_table(elements, k))
    poset = FinitePoset(elements, pack_rows(prefix.T), ())
    # the length-k strings come last, in lexicographic order
    first = len(elements) - m**k
    space = tuple(elements[first:])

    def relation(z, s):
        return z[: len(s)] == s

    admissible = tuple(
        AdmissibleFilter(frozenset(itertools.compress(elements, prefix[first + i])), z)
        for i, z in enumerate(space)
    )
    blocks = tuple(frozenset([s]) for s in elements)
    return BorelPosetModel(
        name=f"cohen({k},{m})",
        poset=poset,
        generic_space=space,
        relation=relation,
        admissible=admissible,
        linked_partition=blocks,
        centered=True,
    )


def _ed_relation(k: int):
    def relation(z, cond) -> bool:
        s, f = cond
        if z[: len(s)] != s:
            return False
        return all(z[i] != x[i] for i in range(len(s), k) for x in f)

    return relation


def _ed_poset(k: int, m: int) -> tuple[FinitePoset, tuple, np.ndarray, tuple]:
    """The order, the generic space, the E table (row i holds E(space[i], p)
    over the elements) and the conditions of each stem.

    (s2, f2) <= (s1, f1) iff s1 is a prefix of s2, f1 is a subset of f2,
    and no function of f1 agrees with s2 at a position in [len(s1), len(s2)).
    Each clause is a table over stems or function sets, and the order is
    their conjunction broadcast to [s2, f2, s1, f1].  The E-filter of a
    generic z is {(s, f) : (z, f) <= (s, f)}, where the subset clause
    holds, so it is the prefix and clash tables at the stem z."""
    stems = _strings_up_to(k, m)
    funcs = sorted(itertools.product(range(m), repeat=k))
    fsets = []
    for r in range(len(funcs) + 1):
        for combo in itertools.combinations(funcs, r):
            fsets.append(frozenset(combo))
    elements = [(s, f) for s in stems for f in fsets]

    letters, ends = _stem_table(stems, k)
    prefix = _prefix_table(letters, ends)
    # holds[f, x]: function x belongs to set f
    holds = np.array([[x in f for x in funcs] for f in fsets], dtype=bool)
    subset = ~(holds[None, :, :] & ~holds[:, None, :]).any(axis=2)
    # agree[s2, s1, x]: x agrees with s2 at a position in [len(s1), len(s2))
    hits = letters[:, :, None] == np.array(funcs, dtype=np.int64).T[None, :, :]
    fresh = np.arange(k) >= ends[:, None]
    agree = (hits[:, None, :, :] & fresh[None, :, :, None]).any(axis=2)
    clash = (agree[:, :, None, :] & holds[None, None, :, :]).any(axis=3)

    leq = (
        prefix[:, None, :, None]
        & subset[None, :, None, :]
        & ~clash[:, None, :, :]
    )
    n = len(elements)
    poset = FinitePoset(elements, pack_rows(leq.reshape(n, n).T), ((), frozenset()))
    # the length-k stems come last, in the order of itertools.product
    first = len(stems) - m**k
    e_table = (prefix[first:, :, None] & ~clash[first:]).reshape(-1, n)
    width = len(fsets)
    blocks = tuple(frozenset(elements[i * width:(i + 1) * width]) for i in range(len(stems)))
    return poset, tuple(stems[first:]), e_table, blocks


def ed(k: int = 2, m: int = 2) -> BorelPosetModel:
    """The eventually-different model truncated at length k: conditions are
    (stem, finite set of length-k functions), with the verbatim order and
    closed relation E.  Admissible filters are the E-induced filters of the
    length-k generic values, read off the order's tables; validation
    compares them with the relation itself."""
    poset, space, e_table, blocks = _ed_poset(k, m)
    admissible = tuple(
        AdmissibleFilter(frozenset(itertools.compress(poset.elements, row)), z)
        for z, row in zip(space, e_table)
    )
    return BorelPosetModel(
        name=f"ed({k},{m})",
        poset=poset,
        generic_space=space,
        relation=_ed_relation(k),
        admissible=admissible,
        linked_partition=blocks,
        centered=True,
    )


def ed_naive(k: int = 2, m: int = 2) -> BorelPosetModel:
    """The eventually-different model with the naive genericity recipe:
    admissible filters taken as the up-sets of *all* minimal elements.

    Truncation makes every (s, F_all) minimal, including premature stems
    whose up-set filters violate the E-characterization.  This model is
    expected to fail `validate_borel_model`; it documents why admissible
    filters must be declared rather than derived."""
    poset, space, _, blocks = _ed_poset(k, m)
    admissible = []
    for q in poset.minimal_elements():
        stem, _ = q
        padded = stem + (0,) * (k - len(stem))
        admissible.append(AdmissibleFilter(poset.upset(q), padded))
    return BorelPosetModel(
        name=f"ed_naive({k},{m})",
        poset=poset,
        generic_space=space,
        relation=_ed_relation(k),
        admissible=tuple(admissible),
        linked_partition=blocks,
        centered=True,
    )
