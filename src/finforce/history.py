"""Histories and tuple spaces: which coordinates a condition or name
depends on, and the finite product space its membership code lives in.

The history of a condition collects, recursively, the coordinates touched
by its entries; at C coordinates only the ordinal actually used is kept
(as the W-set), never the entry's own history.  Tuple spaces split a
history into model-valued components and characteristic-function
components restricted to the W-sets.

Canonical histories are memoized per (A, p); a member of a built table
cuts to its restriction, the smaller table's own object, so the recursion
finds that restriction's history already memoized.  Every history is made
by `_history`, one object per value per iteration, so the 5^k pairs (A, p)
of a k-stage FSI share the few histories they have.  Tuple spaces are
memoized per history.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .iteration import (
    DUMMY,
    TRIV,
    Condition,
    DecisionTableName,
    Entry,
    GenericSequence,
    MembershipError,
    SimpleIteration,
)
from .names import RealName
from .posets import memoized
from .templates import Point, Subset


@dataclass(frozen=True)
class History:
    """H and the W-sets: points is H, w maps each point of H at a C
    coordinate to the set of ordinals the object depends on there."""

    points: frozenset
    w: tuple[tuple[Point, frozenset], ...]

    def w_map(self) -> dict[Point, frozenset]:
        return dict(self.w)

    def __str__(self):
        pts = ",".join(sorted(self.points))
        ws = " ".join(f"W_{x}={sorted(v)}" for x, v in self.w)
        return f"H={{{pts}}}" + (f" {ws}" if ws else "")


EMPTY_HISTORY = History(frozenset(), ())


@memoized
def _history(it: SimpleIteration, points: frozenset, w: tuple) -> History:
    """The history (points, w): one object per value per iteration."""
    return History(points, w)


def _merge_w(
    rank: Mapping[Point, int], *maps: Iterable[tuple[Point, frozenset]]
) -> tuple[tuple[Point, frozenset], ...]:
    acc: dict[Point, frozenset] = {}
    for m in maps:
        for x, vals in m:
            acc[x] = acc.get(x, frozenset()) | vals
    return tuple(sorted(acc.items(), key=lambda kv: rank[kv[0]]))


def history_of_condition(
    it: SimpleIteration,
    a: Subset,
    p: Condition,
    context_override: Subset | None = None,
) -> History:
    """H and W of a condition, by recursion on the last entry.

    ``context_override`` forces the A'-choice at the top recursion step
    only; the invariance checks use it to confirm the choice is immaterial.
    Without it the history is computed once per (A, p).
    """
    if context_override is not None:
        return _history_of_condition(it, a, p, context_override)
    return _canonical_history(it, a, p)


@memoized
def _canonical_history(it: SimpleIteration, a: Subset, p: Condition) -> History:
    """The history of p over A under canonical A'-choices throughout."""
    return _history_of_condition(it, a, p, None)


def _history_of_condition(
    it: SimpleIteration, a: Subset, p: Condition, context_override: Subset | None
) -> History:
    if p.is_empty():
        return EMPTY_HISTORY
    if not it.member_pstar(a, p):
        raise MembershipError(f"{p} is not a member of P*|{sorted(a)}")
    x, entry = p.entries[-1]
    if context_override is not None:
        if context_override not in it.entry_contexts(a, p):
            raise ValueError(f"{sorted(context_override)} is not a valid context for {p}")
        a2 = context_override
    else:
        a2 = it.canonical_context(a, p)
    h_rest = _canonical_history(it, a2, p.before(x, it.rank))
    if it.assignments[x].kind == "C":
        return _history(it, h_rest.points | {x}, _merge_w(it.rank, h_rest.w, ((x, frozenset({int(entry)})),)))
    h_entry = history_of_entry(it, a2, entry)
    w = _merge_w(it.rank, h_rest.w, h_entry.w) if h_entry.w else h_rest.w
    return _history(it, h_rest.points | h_entry.points | {x}, w)


def history_of_entry(it: SimpleIteration, a: Subset, entry: Entry) -> History:
    """History of a decision-table entry: the union over its antichain."""
    if entry is TRIV or isinstance(entry, int):
        return EMPTY_HISTORY
    if not isinstance(entry, DecisionTableName):
        raise TypeError(f"unexpected entry {entry!r}")
    return _table_name_history(it, a, entry)


@memoized
def _table_name_history(it: SimpleIteration, a: Subset, entry: DecisionTableName) -> History:
    return _history_of_members(it, a, entry.antichain)


def history_of_name(it: SimpleIteration, a: Subset, name: RealName) -> History:
    """Pointwise union of the member histories over all antichains."""
    return _history_of_members(it, a, (q for antichain in name.antichains for q in antichain))


def _history_of_members(it: SimpleIteration, a: Subset, members: Iterable[Condition]) -> History:
    """The union of the histories of ``members``, in their order."""
    points: frozenset = frozenset()
    w: tuple = ()
    for q in members:
        h = _canonical_history(it, a, q)
        points |= h.points
        w = _merge_w(it.rank, w, h.w)
    return _history(it, points, w)


@dataclass(frozen=True)
class TupleSpace:
    """The product space over a history: model generic values at B/R
    components, maps W_a -> {0,1} at C components."""

    s_points: tuple[Point, ...]
    c_points: tuple[Point, ...]
    w: tuple[tuple[Point, tuple[int, ...]], ...]
    s_spaces: tuple[tuple[Any, ...], ...]

    def size(self) -> int:
        n = 1
        for space in self.s_spaces:
            n *= len(space)
        for _, wa in self.w:
            n *= 2 ** len(wa)
        return n

    def __str__(self):
        parts = []
        if self.s_points:
            parts.append("S:{" + ",".join(self.s_points) + "}")
        if self.c_points:
            parts.append("C:{" + ",".join(self.c_points) + "}")
        for x, wa in self.w:
            parts.append(f"W_{x}={{{','.join(str(v) for v in wa)}}}")
        return " ".join(parts) if parts else "(empty)"


@dataclass(frozen=True)
class TuplePoint:
    """A point of a tuple space: one value per component, with C components
    given as restricted characteristic functions (sorted bit maps)."""

    entries: tuple[tuple[Point, Any], ...]

    def value(self, x: Point) -> Any:
        for y, v in self.entries:
            if y == x:
                return v
        raise KeyError(f"missing component {x}")

    def bit(self, x: Point, xi: int) -> int:
        for k, b in self.value(x):
            if k == xi:
                return b
        raise KeyError(f"missing bit {xi} of component {x}")

    def __str__(self):
        parts = []
        for x, v in self.entries:
            if isinstance(v, tuple) and v and isinstance(v[0], tuple):
                parts.append(f"{x}:" + ",".join(f"{k}->{b}" for k, b in v))
            elif v is DUMMY:
                parts.append(f"{x}:DUMMY")
            else:
                parts.append(f"{x}:" + "".join(str(int(b)) for b in v))
        return "<" + "; ".join(parts) + ">"


@memoized
def tuple_space(it: SimpleIteration, h: History) -> TupleSpace:
    """The tuple space of a history, one object per history."""
    s_points, c_points, spaces = [], [], []
    for x in it.points_of(h.points):
        if it.assignments[x].kind == "C":
            c_points.append(x)
        else:
            s_points.append(x)
            spaces.append(tuple(it.assignments[x].model.generic_space))
    wmap = h.w_map()
    w = tuple((x, tuple(sorted(wmap.get(x, frozenset())))) for x in c_points)
    return TupleSpace(tuple(s_points), tuple(c_points), w, tuple(spaces))


def restrict_tuple(zbar: GenericSequence | TuplePoint, t: TupleSpace) -> TuplePoint:
    """Componentwise projection onto the tuple space; C components are
    restricted to the W-sets."""
    entries = []
    for x in t.s_points:
        entries.append((x, zbar.value(x)))
    wmap = dict(t.w)
    for x in t.c_points:
        v = zbar.value(x)
        if isinstance(v, tuple) and v and isinstance(v[0], tuple):
            have = dict(v)
            entries.append((x, tuple((xi, have[xi]) for xi in wmap[x])))
        else:
            entries.append((x, tuple((xi, v[xi]) for xi in wmap[x])))
    return TuplePoint(tuple(entries))


def enumerate_points(t: TupleSpace):
    """All points of the finite tuple space, in deterministic order."""
    s_choices = [[(x, v) for v in space] for x, space in zip(t.s_points, t.s_spaces)]
    c_choices = []
    for x, wa in t.w:
        assignments = [
            (x, tuple(zip(wa, bits)))
            for bits in itertools.product((0, 1), repeat=len(wa))
        ]
        c_choices.append(assignments)
    for combo in itertools.product(*(s_choices + c_choices)):
        yield TuplePoint(tuple(combo))
