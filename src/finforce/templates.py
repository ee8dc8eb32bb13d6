"""Finite indexed templates: a linear order with per-point set families.

A template is the recursion skeleton for everything else in this package.
Each point ``x`` of a finite linear order ``L`` carries a family ``I_x`` of
subsets of the strict past ``L_x = {y : y < x}``.  Validation enforces the
family axioms T1-T5; ``depth`` assigns the well-founded rank that grounds
every later recursion (membership, histories, code synthesis).

`lattice` is the one subset-lattice enumerator: every subset, every nested
pair and every correct system <A0, A1, B0, B1> of the theorem checks comes
from it, in the canonical subset order.  It is built on `canonical_subsets`,
the subsets alone in that order, which template validation ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

Point = str
Subset = frozenset


@dataclass(frozen=True)
class LinearOrder:
    """A finite strict total order given by an injective rank map."""

    points: tuple[Point, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError(f"duplicate points in order: {self.points}")

    @cached_property
    def rank(self) -> dict[Point, int]:
        return {x: i for i, x in enumerate(self.points)}

    @cached_property
    def _pasts(self) -> dict[Point, Subset]:
        return {x: frozenset(self.points[:i]) for i, x in enumerate(self.points)}

    def past(self, x: Point) -> Subset:
        """L_x, the strict past of x."""
        return self._pasts[x]

    def max_of(self, a: Iterable[Point]) -> Point:
        r = self.rank
        return max(a, key=r.__getitem__)

    def subset_key(self, a: Iterable[Point]) -> tuple:
        """Canonical sort key for subsets: by size, then rank-lexicographic."""
        r = self.rank
        ranks = tuple(sorted(r[x] for x in a))
        return (len(ranks), ranks)


@dataclass(frozen=True)
class Violation:
    axiom: str
    point: Point | None
    witness: tuple
    message: str

    def __str__(self):
        return f"{self.axiom} violated at x={self.point}: {self.message}"


@dataclass
class IndexedTemplate:
    """A validated indexed template <L, I>.

    ``families[x]`` is the family I_x of subsets of the strict past of x.
    ``depth_cache`` is the memo of `depth`: validation fills it with the
    rank of every subset, and `depth` fills it monotonically on a template
    built without validation.  Templates are immutable apart from that memo.
    """

    order: LinearOrder
    families: dict[Point, frozenset[Subset]]
    depth_cache: dict[Subset, int] = field(default_factory=dict)

    @property
    def points(self) -> tuple[Point, ...]:
        return self.order.points

    def all_points(self) -> Subset:
        return frozenset(self.order.points)

    def sorted_subsets(self, subsets: Iterable[Subset]) -> list[Subset]:
        return sorted(subsets, key=self.order.subset_key)


def _closed_under_union_intersection(family: frozenset[Subset]) -> tuple | None:
    for b1 in family:
        for b2 in family:
            if b1 | b2 not in family:
                return (b1, b2, "union")
            if b1 & b2 not in family:
                return (b1, b2, "intersection")
    return None


def validate_template(
    order: LinearOrder, families: Mapping[Point, Iterable[Iterable[Point]]]
) -> IndexedTemplate | list[Violation]:
    """Check T1-T5 on a raw family map; return a template or all violations.

    T1: the empty set belongs to every I_x.
    T2: each I_x is closed under pairwise union and intersection.
    T3: x < y implies I_x is a subfamily of I_y.
    T4: B in I_y and x <= y implies B intersected with L_x is in I_x.
    T5: the depth recursion terminates on every subset of L.
    """
    violations: list[Violation] = []
    canon: dict[Point, frozenset[Subset]] = {}

    for x in order.points:
        past = order.past(x)
        fam = frozenset(frozenset(b) for b in families.get(x, ()))
        for b in fam:
            if not b <= past:
                violations.append(
                    Violation(
                        "structure", x, (b,),
                        f"family member {sorted(b)} is not a subset of the past of {x}",
                    )
                )
        canon[x] = fam

    if violations:
        return violations

    for x in order.points:
        fam = canon[x]
        if frozenset() not in fam:
            violations.append(Violation("T1", x, (), "empty set missing from family"))
        bad = _closed_under_union_intersection(fam)
        if bad is not None:
            b1, b2, which = bad
            violations.append(
                Violation(
                    "T2", x, (b1, b2),
                    f"{which} of {sorted(b1)} and {sorted(b2)} missing",
                )
            )

    for i, x in enumerate(order.points):
        for y in order.points[i + 1:]:
            missing = canon[x] - canon[y]
            if missing:
                b = next(iter(missing))
                violations.append(
                    Violation(
                        "T3", x, (y, b),
                        f"member {sorted(b)} of I_{x} missing from I_{y}",
                    )
                )

    for j, y in enumerate(order.points):
        for b in canon[y]:
            for x in order.points[: j + 1]:
                t = b & order.past(x)
                if t not in canon[x]:
                    violations.append(
                        Violation(
                            "T4", x, (y, b),
                            f"trace {sorted(t)} of {sorted(b)} (from I_{y}) missing from I_{x}",
                        )
                    )

    if violations:
        return violations

    template = IndexedTemplate(order=order, families=canon)
    # T5: rank every subset of L bottom-up, in the canonical (size) order.
    # Every predecessor shape is a proper subset, so each is ranked before
    # the subset that reads it; one that is not means the recursion would
    # not ground there.  The ranks fill the memo `depth` reads.
    ranks = template.depth_cache
    for a in canonical_subsets(order.points):
        preds = depth_predecessors(template, a)
        unranked = [p for p in preds if p not in ranks]
        if unranked:
            p = min(unranked, key=order.subset_key)
            return [Violation("T5", None, (a, p),
                              f"predecessor {sorted(p)} of {sorted(a)} is not ranked before it")]
        ranks[a] = 1 + max((ranks[p] for p in preds), default=-1)
    return template


# Per-point states for `lattice`: which components of the tuple contain the point.
SUBSETS = ((0,), (1,))
NESTED_PAIRS = ((0, 0), (0, 1), (1, 1))
CORRECT_SYSTEMS = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 1, 1))


def canonical_subsets(points: Sequence[Point]) -> list[Subset]:
    """Every subset of ``points`` (given in the order of L) in the canonical
    subset order: by size, then rank-lexicographic.  `lattice` builds its
    tuples from these objects."""
    # combinations by size come in the canonical subset order
    return [frozenset(c) for r in range(len(points) + 1) for c in combinations(points, r)]


def lattice(points: Sequence[Point], patterns: Sequence[tuple[int, ...]]) -> list[tuple[Subset, ...]]:
    """Every tuple of subsets of ``points`` in which each point lies in the
    components one of ``patterns`` marks with 1.

    `SUBSETS` gives the 2^k subsets, `NESTED_PAIRS` the 3^k pairs K <= A and
    `CORRECT_SYSTEMS` the 5^k systems with A0 <= A1, B0 <= B1, A1 <= B1 and
    A1 & B0 = A0.  ``points`` come in the order of L; the tuples come
    lexicographically by each component's position in the canonical subset
    order (size, then rank-lexicographic), and equal components are one
    frozenset object.
    """
    n = len(points)
    subsets = canonical_subsets(points)
    masks = [sum(c) for r in range(n + 1) for c in combinations([1 << i for i in range(n)], r)]
    position = dict(zip(masks, range(len(masks))))
    # a code packs the masks of a tuple's components side by side, n bits
    # apiece; steps[i] holds the bits each pattern sets for point i
    shifts = [c * n for c in range(len(patterns[0]))]
    steps = [[sum(b << (s + i) for b, s in zip(p, shifts)) for p in patterns] for i in range(n)]
    full = (1 << n) - 1
    rows = sorted([position[code >> s & full] for s in shifts] for code in map(sum, product(*steps)))
    return [tuple(subsets[j] for j in row) for row in rows]


def trace_family(t: IndexedTemplate, x: Point, a: Iterable[Point]) -> frozenset[Subset]:
    """The trace I_x restricted to A: all B & A for B in I_x, deduplicated."""
    a = frozenset(a)
    return frozenset(b & a for b in t.families[x])


class DepthCycleError(Exception):
    def __init__(self, cycle: list[Subset]):
        self.cycle = cycle
        super().__init__(
            "depth recursion revisited " + " -> ".join(str(sorted(c)) for c in cycle)
        )


def depth_predecessors(t: IndexedTemplate, a: Subset) -> set[Subset]:
    """Recursion predecessors of A, unordered: the past A & L_x, every trace
    member, and every B | {x} distinct from A (the shapes used by membership,
    histories and code synthesis)."""
    if not a:
        return set()
    x = t.order.max_of(a)
    preds = {a & t.order.past(x)}
    for b in trace_family(t, x, a):
        preds.add(b)
        ext = b | {x}
        if ext != a:
            preds.add(ext)
    return preds


def depth(t: IndexedTemplate, a: Iterable[Point]) -> int:
    """Well-founded rank of A under the recursion-predecessor relation."""
    a = frozenset(a)
    cache = t.depth_cache
    on_stack: list[Subset] = []

    def rec(s: Subset) -> int:
        if s in cache:
            return cache[s]
        if s in on_stack:
            raise DepthCycleError(on_stack[on_stack.index(s):] + [s])
        if not s:
            cache[s] = 0
            return 0
        on_stack.append(s)
        try:
            d = 1 + max(rec(p) for p in depth_predecessors(t, s))
        finally:
            on_stack.pop()
        cache[s] = d
        return d

    return rec(a)


def restrict_template(t: IndexedTemplate, a: Iterable[Point]) -> IndexedTemplate:
    """The template on A with families given by traces."""
    a = frozenset(a)
    points = tuple(x for x in t.order.points if x in a)
    order = LinearOrder(points)
    families = {x: frozenset(b & a for b in t.families[x]) for x in points}
    return IndexedTemplate(order=order, families=families)


def full_powerset_template(points: Iterable[Point]) -> IndexedTemplate:
    """The finite-support-iteration template: I_x = all subsets of the past."""
    order = LinearOrder(tuple(points))
    families = {
        x: frozenset(a for (a,) in lattice(order.points[:i], SUBSETS))
        for i, x in enumerate(order.points)
    }
    return IndexedTemplate(order=order, families=families)
