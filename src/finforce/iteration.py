"""Simple template iterations built by recursion on depth.

A simple iteration assigns each template point one of three coordinate
kinds: B (a Borel-poset model used outright), R (a decision-table name for
a validated subposet of such a model, activated only when its support set
is available), or C (a decision-table name for a small poset on an ordinal
domain).  Conditions are finite partial maps.

Membership is one relation, that of the widened iteration P, where a C
entry is a literal ordinal or a widened entry (a decision-table name for
one); `entry_contexts` decides it.  The dense subcollection P* is the
ordinal part of P: its conditions are those of P whose C entries are all
literal ordinals (`member_pstar`).

One member table per subset holds P|A, built the way the recursion on
depth defines it, stage by stage: the members whose domain has maximum x
are the members r of each trace set A' of I_x on A, extended by each
palette entry e valid over A'.  The A' that give one (r, e) are its
`entry_contexts`, so the table records them as that function's answers.
`members` reads P*|A off the table as its ordinal part.  `member_p`,
`member_pstar` and `entry_contexts` stay the recursion for a single
condition, which builds no table.

Membership, the order, generic sequences and induced filters are all
decided semantically: a condition enters the filter of a generic sequence
exactly when each of its interpreted entries enters the coordinate filter
determined by that sequence.  This compositional rule is the independent
oracle against which the synthesized membership codes are verified.

Because the rule is compositional, `SimpleIteration.filter_table` decides
each distinct (point, entry) once per generic and joins a condition's
entries with AND; the order matrix and `realize_filter` read their filter
membership from such tables.  The order is joined on packed rows, per
stage one AND of a packed mask per column, and reaches `FinitePoset` as
those columns, its packed down-set rows (`posets.pack_rows`), never as a
dense matrix.

Each recursion step is memoized per iteration with `posets.memoized`, in
the iteration's one ``_memo``; `synth` and `history` keep their memos
there too.  Conditions, table names and generic sequences are the keys of
those memos, so each computes its hash once (`_hash_once`).

What the tables keep exists once per iteration: a condition is one object
in every member table and filter table that holds it (`_extension`), and
its domain is one object per point set (`_domain_with`).  A constant name
is one object per (model, element), kept with the model
(`model_constant`).  A condition read from a literal computes its own
domain, so the single-condition path looks up none of these tables.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .models import BorelPosetModel, element_label
from .posets import (
    EmbeddingReport,
    FinitePoset,
    _reduce_segments,
    admissible_filters_upsets,
    check_complete_embedding_posets,
    filter_defect,
    memoized,
    pack_rows,
    unpack_rows,
)
from .templates import IndexedTemplate, Point, Subset, trace_family


class IterationError(Exception):
    pass


class MembershipError(IterationError):
    pass


class NonGenericFilterError(IterationError):
    """A filter missed the antichain of a decision-table name."""


class NotAFilterError(IterationError):
    """A 'filter' contained two members of one maximal antichain."""


class ResourceCapExceeded(IterationError):
    def __init__(self, what: str, size: int, cap: int):
        self.what, self.size, self.cap = what, size, cap
        super().__init__(f"{what} would need {size} > cap {cap}")


class _Sentinel:
    """A named singleton value that unpickles as the module global of its
    name, so identity tests survive a round trip."""

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name

    def __reduce__(self):
        return self._name


TRIV = _Sentinel("TRIV")  # the literal trivial entry (top condition / ordinal 0 stand-in)
DUMMY = _Sentinel("DUMMY")  # generic value at a deactivated coordinate

Entry = Any  # int | TRIV | DecisionTableName


def _hash_once(cls):
    """Give a frozen dataclass a hash computed once per object, from the
    fields it compares; equality is unchanged.  String hashes differ from
    process to process, so the cached hash, like every cached property, is
    left out of the pickled state."""
    hashed = tuple(f.name for f in dataclasses.fields(cls) if (f.compare if f.hash is None else f.hash))
    stored = tuple(f.name for f in dataclasses.fields(cls))

    def _hash(self) -> int:
        return hash(tuple(getattr(self, n) for n in hashed))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {n: self.__dict__[n] for n in stored}

    cls._hash = cached_property(_hash)
    cls._hash.__set_name__(cls, "_hash")
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_hash_once
@dataclass(frozen=True)
class Condition:
    """A finite partial map from points to entries, kept rank-sorted.  One
    built by `extended` keeps the condition it extends as ``_rest``, its
    restriction below its maximum, and the domain object it was given; like
    the cached hash, neither is pickled."""

    entries: tuple[tuple[Point, Entry], ...]

    @cached_property
    def domain(self) -> frozenset:
        return frozenset(x for x, _ in self.entries)

    def get(self, x: Point) -> Entry:
        for y, e in self.entries:
            if y == x:
                return e
        raise KeyError(x)

    def is_empty(self) -> bool:
        return not self.entries

    def before(self, x: Point, rank: Mapping[Point, int]) -> "Condition":
        """The restriction to the strict past of x: an object along the chain
        of ``_rest`` pointers, else a new one."""
        r = rank[x]
        p = self
        while p.entries:
            if "_rest" not in p.__dict__:
                return Condition(tuple((y, e) for y, e in p.entries if rank[y] < r))
            if rank[p.entries[-1][0]] < r:
                return p
            p = p._rest
        return p

    def extended(self, x: Point, e: Entry, domain: frozenset) -> "Condition":
        """This condition with the entry e at x, a point above its domain;
        ``domain`` is the new condition's domain, this one's with x."""
        p = Condition(self.entries + ((x, e),))
        p.__dict__["_rest"] = self
        p.__dict__["domain"] = domain
        return p

    def __str__(self):
        if not self.entries:
            return "<>"
        return "{" + ", ".join(f"{x}={entry_label(e)}" for x, e in self.entries) + "}"


EMPTY_CONDITION = Condition(())


def make_condition(rank: Mapping[Point, int], assignments: Mapping[Point, Entry]) -> Condition:
    items = sorted(assignments.items(), key=lambda kv: rank[kv[0]])
    return Condition(tuple(items))


@_hash_once
@dataclass(frozen=True)
class DecisionTableName:
    """An antichain-indexed table: the name takes the value paired with
    whichever antichain member the deciding filter contains.

    Constant names have empty base and the empty condition as antichain.
    """

    base: frozenset
    antichain: tuple[Condition, ...]
    table: tuple[Any, ...]
    label: str = field(compare=False, hash=False, default="")

    def __post_init__(self):
        if len(self.antichain) != len(self.table):
            raise ValueError("table must assign a value to every antichain member")

    def is_constant(self) -> bool:
        return self.antichain == (EMPTY_CONDITION,)

    def value_for(self, member: Condition) -> Any:
        return self.table[self.antichain.index(member)]


def const_name(value: Any, label: str = "") -> DecisionTableName:
    return DecisionTableName(
        base=frozenset(),
        antichain=(EMPTY_CONDITION,),
        table=(value,),
        label=label or f"const:{_value_label(value)}",
    )


@memoized
def model_constant(model: BorelPosetModel, v: Any) -> DecisionTableName:
    """The constant name of the element v of a model, one object per
    (model, element), kept with the model: a document's literals and its
    iteration's palettes share it."""
    return const_name(v)


def _value_label(v: Any) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return element_label(v)


def entry_label(e: Entry) -> str:
    if e is TRIV:
        return "TRIV"
    if isinstance(e, (int, np.integer)):
        return str(int(e))
    return e.label or "table"


def entry_sort_key(e: Entry):
    if isinstance(e, (int, np.integer)):
        return (0, int(e), "")
    if e is TRIV:
        return (1, 0, "")
    return (2, 0, e.label)


@dataclass(frozen=True)
class SmallPosetSpec:
    """A poset on {0..size-1} with maximum 0, for C coordinates."""

    size: int
    leq_pairs: tuple[tuple[int, int], ...]

    def build(self) -> FinitePoset:
        pairs = list(self.leq_pairs) + [(i, 0) for i in range(self.size)]
        return FinitePoset.from_relation(tuple(range(self.size)), pairs, top=0)


@dataclass(frozen=True)
class SubposetSpec:
    """A nice-subposet candidate: elements of the ambient model plus the
    generic values it retains."""

    elements: frozenset
    z_space: tuple


@dataclass(frozen=True)
class IterandAssignment:
    """Per-coordinate data."""

    kind: str  # 'B' | 'R' | 'C'
    model: BorelPosetModel | None = None
    support: frozenset = frozenset()
    gamma: int | None = None
    qname: DecisionTableName | None = None
    extra_entries: tuple[DecisionTableName, ...] = ()
    widened_entries: tuple[DecisionTableName, ...] = ()
    include_constants: bool = True

    def __post_init__(self):
        if self.kind not in ("B", "R", "C"):
            raise ValueError(f"unknown coordinate kind {self.kind!r}")
        if self.kind in ("B", "R") and self.model is None:
            raise ValueError(f"{self.kind} coordinate needs a model")
        if self.kind == "C" and (self.gamma is None or self.qname is None):
            raise ValueError("C coordinate needs gamma and a poset name")
        if self.kind == "R" and self.qname is None:
            raise ValueError("R coordinate needs a subposet name")


@_hash_once
@dataclass(frozen=True)
class GenericSequence:
    """One generic value per point: a model value at active B/R coordinates
    (DUMMY at deactivated ones) and a characteristic function of the generic
    filter at C coordinates."""

    entries: tuple[tuple[Point, Any], ...]

    def value(self, x: Point) -> Any:
        for y, v in self.entries:
            if y == x:
                return v
        raise KeyError(x)

    @property
    def points(self) -> frozenset:
        return frozenset(x for x, _ in self.entries)

    def __str__(self):
        return "; ".join(f"{x}={_zvalue_label(v)}" for x, v in self.entries)


def _zvalue_label(v: Any) -> str:
    if v is DUMMY:
        return "DUMMY"
    if isinstance(v, tuple) and all(isinstance(b, (int, np.integer)) for b in v):
        return "".join(str(int(b)) for b in v)
    return str(v)


class SimpleIteration:
    """A validated template plus coordinate assignments, with memoized
    membership, order, generic enumeration and built posets.  ``_memo``
    holds these answers and those of `synth` and `history` (see
    `posets.memoized`)."""

    def __init__(
        self,
        template: IndexedTemplate,
        assignments: Mapping[Point, IterandAssignment],
        max_conditions: int = 100_000,
    ):
        missing = set(template.points) - set(assignments)
        if missing:
            raise ValueError(f"points without assignments: {sorted(missing)}")
        for x, asg in assignments.items():
            if asg.kind in ("R", "C"):
                if asg.support not in template.families[x]:
                    raise ValueError(
                        f"support {sorted(asg.support)} of {x} is not in the family I_{x}"
                    )
        self.template = template
        self.assignments = dict(assignments)
        self.max_conditions = max_conditions
        self.rank = template.order.rank
        self._memo: defaultdict = defaultdict(dict)

    # -- plumbing -----------------------------------------------------------

    def points_of(self, a: Subset) -> tuple[Point, ...]:
        return tuple(x for x in self.template.points if x in a)

    def past_in(self, a: Subset, x: Point) -> Subset:
        return a & self.template.order.past(x)

    @memoized
    def small_poset(self, spec: SmallPosetSpec) -> FinitePoset:
        return spec.build()

    @memoized
    def entry_palette(self, x: Point) -> list[Entry]:
        """The entries the member table tries at x; at a C point, the
        ordinals and the widened entries."""
        asg = self.assignments[x]
        palette: list[Entry]
        if asg.kind == "C":
            palette = list(range(asg.gamma)) + sorted(asg.widened_entries, key=lambda n: n.label)
        else:
            palette = [TRIV]
            if asg.include_constants:
                top = asg.model.poset.top
                palette += [model_constant(asg.model, v) for v in asg.model.poset.elements if v != top]
            palette += sorted(asg.extra_entries, key=lambda n: n.label)
        return palette

    # -- membership ---------------------------------------------------------

    def member_p(self, a: Subset, p: Condition) -> bool:
        """p is a condition of the widened P|A."""
        return p.is_empty() or (p.domain <= a and bool(self.entry_contexts(a, p)))

    @memoized
    def member_pstar(self, a: Subset, p: Condition) -> bool:
        """p is a condition of P*|A: one of the widened P|A whose entries at
        C points are all literal ordinals."""
        return self.member_p(a, p) and all(
            isinstance(e, (int, np.integer)) for x, e in p.entries if self.assignments[x].kind == "C"
        )

    @memoized
    def entry_contexts(self, a: Subset, p: Condition) -> tuple[Subset, ...]:
        """All A' from the trace at max(dom p) over which p is a condition of
        the widened P, in canonical order: the restriction below max(dom p)
        is one over A' and the top entry is valid.  Only a name at a C point
        tells P from P* here, so a member of P*|A has the same contexts in
        either.  This is the single-condition query; `members` fills its
        answers for the members it builds."""
        x = self.template.order.max_of(p.domain)
        rest = p.before(x, self.rank)
        entry = p.get(x)
        return tuple(
            a2
            for a2 in self.template.sorted_subsets(trace_family(self.template, x, a))
            if self.member_p(a2, rest) and self._entry_ok(x, entry, a2)
        )

    def canonical_context(self, a: Subset, p: Condition) -> Subset:
        """The canonical A'-choice: the first of the `entry_contexts`.  In
        their canonical order (size, then rank) nothing before a context is
        a strict subset of it, so the first is inclusion-minimal, the
        inclusion-least one whenever that is unique, and otherwise the
        least minimal one."""
        contexts = self.entry_contexts(a, p)
        if not contexts:
            raise MembershipError(f"{p} is not a member of P*|{sorted(a)}")
        return contexts[0]

    def _entry_ok(self, x: Point, e: Entry, a2: Subset) -> bool:
        asg = self.assignments[x]
        if asg.kind == "C":
            if isinstance(e, (int, np.integer)):
                if not 0 <= e < asg.gamma:
                    return False
                return e == 0 or asg.support <= a2
            if isinstance(e, DecisionTableName):
                return asg.support <= a2 and e.base <= asg.support
            return False
        if e is TRIV:
            return True
        if not isinstance(e, DecisionTableName):
            return False
        if asg.kind == "B":
            return e.base <= a2 and self._table_entry_valid(x, e)
        return asg.support <= a2 and e.base <= asg.support and self._table_entry_valid(x, e)

    @memoized
    def _table_entry_valid(self, x: Point, e: DecisionTableName) -> bool:
        """The values of e are elements of the model at x and its antichain
        lies in P* over its base.  At an R coordinate, each value e takes on
        a generic of the support must also lie in the subposet that generic
        names."""
        asg = self.assignments[x]
        if not (all(v in asg.model.poset.index for v in e.table)
                and all(self.member_pstar(e.base, q) for q in e.antichain)):
            return False
        if asg.kind == "R":
            for zbar in self.enumerate_generics(asg.support):
                v = self.interpret_entry(x, e, zbar)
                if v is not TRIV and v not in self.interpret_subposet_spec(x, zbar).elements:
                    return False
        return True

    # -- generic sequences and induced filters ------------------------------

    @memoized
    def enumerate_generics(self, a: Subset) -> tuple[GenericSequence, ...]:
        seqs: list[tuple[tuple[Point, Any], ...]] = [()]
        for x in self.points_of(a):
            asg = self.assignments[x]
            below = self.past_in(a, x)
            new: list[tuple[tuple[Point, Any], ...]] = []
            for prefix in seqs:
                zprefix = GenericSequence(prefix)
                if asg.kind == "B":
                    values = list(asg.model.generic_space)
                elif asg.kind == "R":
                    if asg.support <= below:
                        sub = self.interpret_subposet_spec(x, zprefix)
                        values = list(sub.z_space)
                    else:
                        values = [DUMMY]
                else:
                    gamma = asg.gamma
                    if asg.support <= below:
                        poset = self.interpret_c_poset(x, zprefix)
                        values = [
                            tuple(1 if v in f else 0 for v in range(gamma))
                            for f in admissible_filters_upsets(poset)
                        ]
                    else:
                        values = [(1,) + (0,) * (gamma - 1)]
                for v in values:
                    new.append(prefix + ((x, v),))
            seqs = new
        return tuple(GenericSequence(s) for s in seqs)

    @memoized
    def member_of_filter(self, zbar: GenericSequence, r: Condition) -> bool:
        """Whether r belongs to the filter induced by the generic sequence:
        each interpreted entry must enter its coordinate filter."""
        for y, e in r.entries:
            asg = self.assignments[y]
            if e is TRIV:
                continue
            if asg.kind == "C":
                v = e if isinstance(e, (int, np.integer)) else self.interpret_entry(y, e, zbar)
                if zbar.value(y)[v] != 1:
                    return False
            else:
                v = self.interpret_entry(y, e, zbar)
                if v is TRIV:
                    continue
                zy = zbar.value(y)
                if zy is DUMMY or not asg.model.E(zy, v):
                    return False
        return True

    def filter_table(self, gens: Sequence[GenericSequence], conds: Sequence[Condition]) -> np.ndarray:
        """inside[i, g] iff conds[i] belongs to the filter induced by gens[g].

        Filter membership is the AND of its entries' memberships, so each
        distinct (point, entry) of ``conds`` is decided once per generic, by
        `member_of_filter` on the one-entry condition (the iteration's one
        object for it, `_extension` of the empty condition), and a condition's
        row is the OR of its entries' packed rows of misses."""
        items: dict[tuple[Point, Entry], int] = {}
        index = [items.setdefault(item, len(items)) for p in conds for item in p.entries]
        singles = [self._extension(EMPTY_CONDITION, *item) for item in items]
        misses = np.array(
            [[not self.member_of_filter(z, single) for z in gens] for single in singles],
            dtype=bool,
        ).reshape(len(items), len(gens))
        missed = _reduce_segments(np.bitwise_or, pack_rows(misses), np.array(index, dtype=np.intp),
                                  np.array([len(p.entries) for p in conds], dtype=np.intp))
        return ~unpack_rows(missed, len(gens))

    @memoized
    def induced_filters(self, a: Subset) -> tuple[dict[GenericSequence, int], np.ndarray]:
        """The filter table of P*|A over the generics of A, and each
        generic's column in it."""
        gens = self.enumerate_generics(a)
        return {z: g for g, z in enumerate(gens)}, self.filter_table(gens, self.build_poset(a).elements)

    def interpret_entry(self, x: Point, e: Entry, zbar: GenericSequence) -> Any:
        """Evaluate a decision-table entry under the filter induced by zbar."""
        if e is TRIV:
            return TRIV
        if isinstance(e, (int, np.integer)):
            return int(e)
        return self._interpret_table(e, tuple((y, v) for y, v in zbar.entries if y in e.base))

    @memoized
    def _interpret_table(self, e: DecisionTableName, zbase: tuple[tuple[Point, Any], ...]) -> Any:
        """The value of a table name under the generics that agree with
        ``zbase``, their projection onto the name's base."""
        outside = {y for q in e.antichain for y in q.domain if y not in e.base}
        if outside:
            raise IterationError(
                f"table name {e.label or '(unlabeled)'} reads {sorted(outside)} "
                f"outside its base {sorted(e.base)}"
            )
        zbar = GenericSequence(zbase)
        hits = [q for q in e.antichain if self.member_of_filter(zbar, q)]
        if not hits:
            raise NonGenericFilterError(
                f"filter misses the antichain of {e.label or 'a table name'}"
            )
        if len(hits) > 1:
            raise NotAFilterError(
                f"two antichain members of {e.label or 'a table name'} in one filter"
            )
        return e.value_for(hits[0])

    def interpret_subposet_spec(self, x: Point, zbar: GenericSequence) -> SubposetSpec:
        asg = self.assignments[x]
        spec = self.interpret_entry(x, asg.qname, zbar)
        if not isinstance(spec, SubposetSpec):
            raise IterationError(f"subposet name at {x} produced {type(spec).__name__}")
        return spec

    def interpret_c_poset(self, x: Point, zbar: GenericSequence) -> FinitePoset:
        asg = self.assignments[x]
        spec = self.interpret_entry(x, asg.qname, zbar)
        if not isinstance(spec, SmallPosetSpec):
            raise IterationError(f"poset name at {x} produced {type(spec).__name__}")
        if spec.size != asg.gamma:
            raise IterationError(f"poset at {x} has domain {spec.size}, expected {asg.gamma}")
        return self.small_poset(spec)

    # -- the order -----------------------------------------------------------

    def order_leq(self, a: Subset, q: Condition, p: Condition) -> bool:
        """q <= p, decided recursively: below the last coordinate of q the
        restrictions must compare, and at that coordinate every admissible
        generic of the lower stages whose filter contains the restriction of
        q must interpret the two entries to comparable instance values."""
        for c in (q, p):
            if not self.member_pstar(a, c):
                raise MembershipError(f"{c} is not a member of P*|{sorted(a)}")
        return self._order_leq(a, q, p)

    def _order_leq(self, a: Subset, q: Condition, p: Condition) -> bool:
        if not p.domain <= q.domain:
            return False
        if q.is_empty():
            return True
        return self._order_step(a, q, p)

    @memoized
    def _order_step(self, a: Subset, q: Condition, p: Condition) -> bool:
        x = self.template.order.max_of(q.domain)
        below = self.past_in(a, x)
        q1 = q.before(x, self.rank)
        p1 = p.before(x, self.rank)
        if not self._order_leq(below, q1, p1):
            return False
        if x in p.domain:
            eq, ep = q.get(x), p.get(x)
            for zbar in self.enumerate_generics(below):
                if self.member_of_filter(zbar, q1) and not self._stage_leq(x, below, zbar, eq, ep):
                    return False
        return True

    def _stage_leq(self, x: Point, below: Subset, zbar: GenericSequence, eq: Entry, ep: Entry) -> bool:
        asg = self.assignments[x]
        vq = self.interpret_entry(x, eq, zbar)
        vp = self.interpret_entry(x, ep, zbar)
        if asg.kind == "C":
            if asg.support <= below:
                return bool(self.interpret_c_poset(x, zbar).leq(vq, vp))
            return vq == 0 and vp == 0
        if vp is TRIV:
            return True
        if vq is TRIV:
            vq = asg.model.poset.top
        return bool(asg.model.poset.leq(vq, vp))

    # -- materialization ------------------------------------------------------

    def _widens(self, a: Subset) -> bool:
        """Some point of A has widened entries, so P|A is more than P*|A."""
        return any(self.assignments[x].kind == "C" and self.assignments[x].widened_entries for x in a)

    def members(self, a: Subset, widened: bool = False) -> list[Condition]:
        """The conditions of P*|A, or with ``widened`` those of P|A, in
        canonical order.  The palette product bounds the size of P|A, the
        table that is built (`_member_table`), and is checked against the
        cap before any work; P*|A is its ordinal part, the table itself
        where A widens nothing."""
        total = 1
        for x in self.points_of(a):
            total *= len(self.entry_palette(x)) + 1
        if total > self.max_conditions:
            raise ResourceCapExceeded(f"conditions over {sorted(a)}", total, self.max_conditions)
        table = self._member_table(a)
        if widened or not self._widens(a):
            return list(table)
        return [p for p in table if self.member_pstar(a, p)]

    @memoized
    def _member_table(self, a: Subset) -> tuple[Condition, ...]:
        """`members` by recursion on depth.  A condition with maximum x is a
        member when, for some A' in the trace of I_x on A, its restriction
        below x is a member over A' and its entry at x is valid over A'.  So
        each point x walks the trace sets A' once, in canonical order, and
        joins the members of A' (this table, one subset down) with the
        palette entries valid over A'; the A' that give a condition are its
        `entry_contexts`, recorded as they are found.  A condition is the
        same object in every table that holds it (`_extension`)."""
        out = [EMPTY_CONDITION]
        for x in self.points_of(a):
            palette = self.entry_palette(x)
            contexts: dict[tuple[Condition, Entry], list[Subset]] = defaultdict(list)
            for a2 in self.template.sorted_subsets(trace_family(self.template, x, a)):
                valid = [e for e in palette if self._entry_ok(x, e, a2)]
                if valid:
                    for r in self._member_table(a2):
                        for e in valid:
                            contexts[r, e].append(a2)
            for (r, e), found in contexts.items():
                p = self._extension(r, x, e)
                SimpleIteration.entry_contexts.record(self, (a, p), tuple(found))
                out.append(p)
        out.sort(key=self._condition_key)
        return tuple(out)

    @memoized
    def _extension(self, r: Condition, x: Point, e: Entry) -> Condition:
        """r with the entry e at x, a point above its domain: one object per
        condition of this iteration, whichever table asks for it, with one
        domain object per point set (`_domain_with`).  It keeps its sort
        key (`_condition_key`), made from r's, beside ``_rest``; neither is
        pickled."""
        p = r.extended(x, e, self._domain_with(r.domain, x))
        size, key = self._condition_key(r)
        p.__dict__["_key"] = (size + 1, key + ((self.rank[x], entry_sort_key(e)),))
        return p

    @memoized
    def _domain_with(self, domain: frozenset, x: Point) -> frozenset:
        """domain with x, a point above it.  A point set has one such
        (domain, x), its maximum and the rest, so it is one object."""
        return domain | {x}

    def _condition_key(self, p: Condition):
        """The canonical order: by size, then rank and entry at each point."""
        key = p.__dict__.get("_key")
        if key is None:
            key = (len(p.entries), tuple((self.rank[x], entry_sort_key(e)) for x, e in p.entries))
        return key

    @memoized
    def build_poset(self, a: Subset) -> FinitePoset:
        """Materialize P*|A with its semantic order.  The widened P|A can be
        a preorder only, so it is never built (see `check_density_pstar`)."""
        elems = self.members(a)
        return FinitePoset(elems, self._order_matrix(a, elems), EMPTY_CONDITION)

    def _order_matrix(self, a: Subset, elems: list[Condition]) -> np.ndarray:
        """The order on ``elems`` as packed down-set rows, the form
        `FinitePoset` takes: bit i of row j is set iff elems[i] <= elems[j],
        so row j is column j of the order.  It is tabulated stage by stage.

        Unrolled, the recursion of `_order_leq` reads: q <= p iff dom p is
        contained in dom q and, at every x in dom p, every generic of
        A & L_x whose filter contains q|<x interprets q(x) below p(x).

        Column j starts as the members whose domain contains dom p_j, one
        AND of the per-point masks of domain holders per distinct domain.  Per x, a stage table
        gives, for each distinct (q|<x, q(x)) and each entry e, whether some
        generic whose filter contains q|<x puts q(x) outside the stage
        order below e; it depends on the column only through its entry, so
        the columns that carry e at x AND in one packed mask of the rows
        not bad against e.

        An entry is interpreted only on generics whose filter contains the
        restriction of a member carrying it, which are the cells the
        recursion visits on reflexive pairs.  A generic on which p(x) goes
        uninterpreted for that reason counts against q <= p; in a sound
        order q|<x <= p|<x fails there already.
        """
        rank = self.rank
        n = len(elems)
        domains: dict[frozenset, int] = {}
        domain_of = [domains.setdefault(p.domain, len(domains)) for p in elems]
        # table[d, y]: the d-th distinct domain holds point y
        table = np.zeros((len(domains), len(rank)), dtype=bool)
        for d, domain in enumerate(domains):
            table[d, [rank[y] for y in domain]] = True
        holds = np.ascontiguousarray(table[domain_of].T)
        # column j: the AND of the rows of holders of each point of dom p_j
        everyone = pack_rows(np.ones((1, n), dtype=bool))
        held = np.where(table[:, :, None], pack_rows(holds)[None], everyone)
        cols = np.bitwise_and.reduce(held, axis=1)[domain_of]
        # per point x, the members holding x with their restrictions below x
        # and entries at x, read off each member's `_rest` chain once (the
        # elements are table members, `_extension`s of the empty condition)
        stages: dict[Point, tuple[list, list, list]] = defaultdict(lambda: ([], [], []))
        for i, q in enumerate(elems):
            while q.entries:
                x, e = q.entries[-1]
                rows, rests, ents = stages[x]
                q = q._rest
                rows.append(i)
                rests.append(q)
                ents.append(e)
        for x in self.points_of(a):
            if x not in stages:
                continue
            has, rests, ents = stages.pop(x)
            below = self.past_in(a, x)
            gens = self.enumerate_generics(below)
            restrictions: dict[Condition, int] = {}
            entries: dict[Entry, int] = {}
            r_idx = [restrictions.setdefault(r, len(restrictions)) for r in rests]
            e_idx = [entries.setdefault(e, len(entries)) for e in ents]
            filt = self.filter_table(gens, list(restrictions))
            carried = np.zeros((len(entries), len(gens)), dtype=bool)
            for r, e in set(zip(r_idx, e_idx)):
                carried[e] |= filt[r]
            palette = list(entries)
            m = len(palette)
            bad = np.ones((len(gens), m, m), dtype=bool)
            for g, z in enumerate(gens):
                live = np.flatnonzero(carried[:, g])
                for e in live:
                    for e2 in live:
                        bad[g, e, e2] = not self._stage_leq(x, below, z, palette[e], palette[e2])
            # stage_bad[r, e, e2]: a generic in the filter of r has e outside e2
            in_filter = np.flatnonzero(filt) % len(gens)
            stage_bad = unpack_rows(
                _reduce_segments(np.bitwise_or, pack_rows(bad.reshape(len(gens), m * m)), in_filter,
                                 filt.sum(axis=1)),
                m * m,
            ).reshape(len(restrictions), m, m)
            fine = np.ones((m, n), dtype=bool)
            fine[:, has] = ~stage_bad[r_idx, e_idx].T
            cols[has] &= pack_rows(fine)[e_idx]
        return cols

    # -- structural checks ----------------------------------------------------

    def check_density_pstar(self, a: Subset) -> tuple[bool, Condition | None]:
        """Every condition of the widened P|A must have a P*|A extension.

        Where no point of A widens its palette, P|A is P*|A and nothing is
        enumerated.  Otherwise the widened members split into P*|A, each of
        which extends itself, and the rest, the only ones that can fail.
        The raw order over P*|A and the rest (the widened P|A, which can be
        a preorder only, so `FinitePoset` would reject it) is read at the
        down-sets of the rest, masked to P*; the first without an
        extension, in widened order, is the witness."""
        if not self._widens(a):
            return True, None
        widened = self.members(a, widened=True)
        star = [p for p in widened if self.member_pstar(a, p)]
        extra = [p for p in widened if not self.member_pstar(a, p)]
        if not extra:
            return True, None
        down = self._order_matrix(a, star + extra)[len(star):]
        in_star = pack_rows((np.arange(len(star) + len(extra)) < len(star))[None])
        extended = (down & in_star).any(axis=1)
        for p, ok in zip(extra, extended):
            if not ok:
                return False, p
        return True, None

    def check_complete_embedding(self, a_small: Subset, a_big: Subset) -> EmbeddingReport:
        if not a_small <= a_big:
            raise ValueError("first subset must be contained in the second")
        return check_complete_embedding_posets(
            self.build_poset(a_small), self.build_poset(a_big)
        )


def interpret_name(it: SimpleIteration, name: DecisionTableName, filt: Iterable[Condition]) -> Any:
    """Evaluate a decision-table name against an explicit filter."""
    filt = frozenset(filt)
    hits = [q for q in name.antichain if q in filt]
    if not hits:
        raise NonGenericFilterError("filter does not meet the name's antichain")
    if len(hits) > 1:
        raise NotAFilterError("filter contains two members of a maximal antichain")
    return name.value_for(hits[0])


def realize_filter(it: SimpleIteration, zbar: GenericSequence, a: Subset | None = None) -> frozenset:
    """The induced filter G(zbar) on P*|A, audited: it must be the up-set of
    a minimal element of the built poset (equivalently, a filter meeting
    every maximal antichain).  For a generic of A this is a column of
    `SimpleIteration.induced_filters`."""
    if a is None:
        a = it.template.all_points()
    poset = it.build_poset(a)
    column, table = it.induced_filters(a)
    if zbar in column:
        inside = table[:, column[zbar]]
    else:
        inside = it.filter_table((zbar,), poset.elements)[:, 0]
    defect = filter_defect(poset, inside)
    if defect is not None:
        raise IterationError({
            "empty": "induced filter is empty",
            "no-least": f"induced filter of [{zbar}] is not directed: no unique bottom",
            "not-upward-closed": f"induced filter of [{zbar}] is not upward closed",
            "not-minimal": f"induced filter of [{zbar}] misses a maximal antichain "
                           f"(bottom {defect.least} not minimal)",
        }[defect.kind])
    return frozenset(itertools.compress(poset.elements, inside))
