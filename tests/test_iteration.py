"""Membership, order, interpretation, materialization and the structural
checks of simple iterations, on the shipped fixtures."""

import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from finforce import fixtures, history
from finforce.iteration import (
    EMPTY_CONDITION,
    TRIV,
    Condition,
    DecisionTableName,
    GenericSequence,
    IterandAssignment,
    IterationError,
    NonGenericFilterError,
    NotAFilterError,
    ResourceCapExceeded,
    SimpleIteration,
    SmallPosetSpec,
    const_name,
    interpret_name,
    make_condition,
    realize_filter,
)
from finforce.models import cohen
from finforce.names import RealName
from finforce.posets import unpack_rows
from finforce.synth import case2_contexts
from finforce.templates import LinearOrder, full_powerset_template, validate_template
from finforce.verify import run_checks, verify_density, verify_main_theorem
from finforce.workdoc import load_doc


def all_subsets(points):
    out = [frozenset()]
    for x in points:
        out += [s | {x} for s in out]
    return out


class TestMembership:
    def test_empty_everywhere(self, i1):
        it = i1.iteration
        for a in all_subsets(it.template.points):
            assert it.member_pstar(a, EMPTY_CONDITION)

    def test_activated_ordinal(self, i1):
        assert i1.iteration.member_pstar(frozenset({"a", "b"}), i1.cond({"b": 2}))

    def test_deactivated_ordinal_needs_zero(self, i1):
        it = i1.iteration
        assert not it.member_pstar(frozenset({"b"}), i1.cond({"b": 1}))
        assert it.member_pstar(frozenset({"b"}), i1.cond({"b": 0}))

    def test_entry_outside_ambient_set(self, i1):
        assert not i1.iteration.member_pstar(frozenset({"b"}), i1.cond({"a": const_name((0,))}))

    def test_membership_monotone(self, i1):
        it = i1.iteration
        subsets = all_subsets(it.template.points)
        for small in subsets:
            for p in it.members(small):
                for big in subsets:
                    if small <= big:
                        assert it.member_pstar(big, p)

    def test_r_entry_must_stay_in_the_subposet(self):
        """An entry at the R coordinate c is a member only when the value it
        takes on each generic of the support lies in the subposet that
        generic names.  t7 takes "0|11" under a=1, where c's subposet keeps
        the stems with empty function set only, so no condition carrying t7
        is a member; t1 stays inside both subposets and is one."""
        raw = fixtures._shipped("i1.json")
        raw["entries"]["t7"] = {"point": "c", "base": ["a"], "table": [
            {"when": {"a": {"const": "0"}}, "value": "|11"},
            {"when": {"a": {"const": "1"}}, "value": "0|11"},
        ]}
        raw["iteration"]["c"]["entries"].append("t7")
        i1 = fixtures.I1(raw)
        it, full = i1.iteration, i1.template.all_points()
        t7 = next(e for e in it.assignments["c"].extra_entries if e.label == "t7")
        p = i1.cond({"c": t7})
        assert not it.member_pstar(full, p)
        members = it.members(full)
        assert not any(e is t7 for q in members for _, e in q.entries)
        assert i1.cond({"c": i1.c_tables[0]}) in members

    def test_member_counts(self, i1):
        it = i1.iteration
        assert len(it.members(frozenset())) == 1
        assert len(it.members(frozenset({"b"}))) == 2
        n_a = len(it.members(frozenset({"a"})))
        n_ab = len(it.members(frozenset({"a", "b"})))
        assert n_ab > n_a


class TestOrder:
    def test_reflexive_and_transitive(self, i1):
        it = i1.iteration
        a = frozenset({"a", "b"})
        members = it.members(a)
        for p in members:
            assert it.order_leq(a, p, p)
        import itertools

        for p, q, r in itertools.islice(itertools.product(members, repeat=3), 4000):
            if it.order_leq(a, p, q) and it.order_leq(a, q, r):
                assert it.order_leq(a, p, r)

    def test_cohen_extension(self, i1):
        it = i1.iteration
        a = frozenset({"a"})
        q = i1.cond({"a": const_name((0, 1))})
        p = i1.cond({"a": const_name((0,))})
        assert it.order_leq(a, q, p)
        assert not it.order_leq(a, p, q)

    def test_incompatible_ordinals(self, i1):
        it = i1.iteration
        a = frozenset({"a", "b"})
        b1, b2 = i1.cond({"b": 1}), i1.cond({"b": 2})
        assert not it.order_leq(a, b1, b2)
        assert not it.order_leq(a, b2, b1)
        poset = it.build_poset(a)
        from finforce.posets import compatible

        assert not compatible(poset, b1, b2)

    def test_restriction_coincides(self, i1):
        """The order computed in a smaller ambient set agrees with the order
        of any larger one on common members."""
        it = i1.iteration
        subsets = all_subsets(it.template.points)
        for small in subsets:
            members = it.members(small)
            for big in subsets:
                if not small <= big or small == big:
                    continue
                for q in members:
                    for p in members:
                        if p.domain <= q.domain:
                            assert it._order_leq(small, q, p) == it._order_leq(big, q, p)

    def test_nonmember_raises(self, i1):
        from finforce.iteration import MembershipError

        it = i1.iteration
        with pytest.raises(MembershipError):
            it.order_leq(frozenset({"b"}), i1.cond({"b": 1}), EMPTY_CONDITION)

    def test_widened_condition_raises(self, i1):
        """order_leq is the order of P*: a condition of the widened P with a
        name at the C point b is refused, though it is a member of P."""
        from finforce.iteration import MembershipError

        it = i1.iteration
        a = frozenset({"a", "b"})
        p = i1.cond({"b": i1.w1})
        assert it.member_p(a, p)
        with pytest.raises(MembershipError):
            it.order_leq(a, p, p)
        with pytest.raises(MembershipError):
            it.order_leq(a, EMPTY_CONDITION, p)


class TestBuild:
    def test_empty_poset(self, i1):
        poset = i1.iteration.build_poset(frozenset())
        assert poset.elements == (EMPTY_CONDITION,)

    def test_b_only_poset(self, i1):
        poset = i1.iteration.build_poset(frozenset({"b"}))
        assert len(poset) == 2

    def test_top_is_empty_condition(self, i1):
        poset = i1.iteration.build_poset(frozenset({"a", "b"}))
        assert poset.top == EMPTY_CONDITION

    def test_resource_guard(self, i1):
        it = i1.iteration
        old = it.max_conditions
        it.max_conditions = 10
        try:
            with pytest.raises(ResourceCapExceeded):
                it.members(frozenset({"a", "b", "c"}))
        finally:
            it.max_conditions = old


class TestInterpretName:
    def test_constant(self, i1):
        name = const_name((0, 1))
        assert interpret_name(i1.iteration, name, [EMPTY_CONDITION]) == (0, 1)

    def test_branch_selection(self, i1):
        it = i1.iteration
        qc = i1.qc
        p0, p1 = i1.branch_antichain
        full = it.build_poset(frozenset({"a"})).upset(i1.cond({"a": const_name((0, 0))}))
        spec = interpret_name(it, qc, full)
        assert spec.elements == frozenset(i1.ed22.poset.elements)

    def test_empty_filter_errors(self, i1):
        with pytest.raises(NonGenericFilterError):
            interpret_name(i1.iteration, i1.qc, [])

    def test_two_members_errors(self, i1):
        p0, p1 = i1.branch_antichain
        with pytest.raises(NotAFilterError):
            interpret_name(i1.iteration, i1.qc, [p0, p1])

    def test_name_reading_outside_its_base(self):
        """A table name whose antichain reads a point outside its base is an
        IterationError naming the label and the points, not a KeyError."""
        it, _ = fixtures.fsi2_cohen_c()
        c = it.assignments["1"]
        qname = dataclasses.replace(c.qname, base=frozenset())
        bad = SimpleIteration(it.template, {**it.assignments, "1": dataclasses.replace(c, qname=qname)})
        with pytest.raises(IterationError, match=r"table name Q_1 reads \['0'\] outside its base \[\]"):
            verify_main_theorem(bad)


class TestGenerics:
    def test_empty_set(self, i1):
        assert len(i1.iteration.enumerate_generics(frozenset())) == 1

    def test_i1_count(self, i1):
        # |Z_a| x (filters of the V poset) x (per-branch generic count)
        assert len(i1.iteration.enumerate_generics(frozenset(i1.template.points))) == 32

    def test_fsi2_count(self, fsi2_cc):
        it, _ = fsi2_cc
        assert len(it.enumerate_generics(it.template.all_points())) == 16

    def test_c_values_are_characteristic_functions(self, i1):
        it = i1.iteration
        for z in it.enumerate_generics(frozenset(i1.template.points)):
            zb = z.value("b")
            assert len(zb) == 3 and zb[0] == 1 and set(zb) <= {0, 1}


class TestRealizeFilter:
    def test_top_always_in(self, i1):
        it = i1.iteration
        for z in it.enumerate_generics(frozenset(i1.template.points)):
            assert EMPTY_CONDITION in realize_filter(it, z)

    def test_b_coordinate_membership(self, i1):
        it = i1.iteration
        b1, b2 = i1.cond({"b": 1}), i1.cond({"b": 2})
        for z in it.enumerate_generics(frozenset(i1.template.points)):
            g = realize_filter(it, z)
            zb = z.value("b")
            assert (b2 in g) == (zb[2] == 1)
            assert (b1 in g) == (zb[1] == 1)
            # a filter meets a maximal antichain exactly once
            assert len({b1, b2} & g) == 1

    def test_filters_are_audited(self, i1):
        """realize_filter returns only sets that pass the filter audit."""
        it = i1.iteration
        for z in it.enumerate_generics(frozenset(i1.template.points)):
            g = realize_filter(it, z)
            poset = it.build_poset(frozenset(i1.template.points))
            ids = [poset.index[p] for p in g]
            up = poset.leq_matrix[ids].any(axis=0)
            assert frozenset(e for e, o in zip(poset.elements, up) if o) == g


def _non_minimal(poset):
    minimals = set(poset.minimal_elements())
    return next(e for e in poset.elements if e not in minimals and e != poset.top)


# each mutated filter column, with the message realize_filter raises for it
FILTER_DEFECTS = {
    "empty": (
        lambda poset: frozenset(),
        lambda poset, z: "induced filter is empty",
    ),
    "two-bottoms": (
        lambda poset: poset.upset(poset.minimal_elements()[0]) | poset.upset(poset.minimal_elements()[1]),
        lambda poset, z: f"induced filter of [{z}] is not directed: no unique bottom",
    ),
    "hole-above-bottom": (
        lambda poset: poset.upset(poset.minimal_elements()[0]) - {poset.top},
        lambda poset, z: f"induced filter of [{z}] is not upward closed",
    ),
    "non-minimal-upset": (
        lambda poset: poset.upset(_non_minimal(poset)),
        lambda poset, z: (
            f"induced filter of [{z}] misses a maximal antichain "
            f"(bottom {_non_minimal(poset)} not minimal)"
        ),
    ),
}


class TestRealizeFilterAudit:
    """Each defect of an induced-filter column raises its own message; the
    column is mutated by shadowing `induced_filters` on a fresh i1."""

    @pytest.mark.parametrize("defect", list(FILTER_DEFECTS))
    def test_defect_raises(self, defect):
        mutate, message = FILTER_DEFECTS[defect]
        it = fixtures.i1().iteration
        full = it.template.all_points()
        poset = it.build_poset(full)
        zbar = it.enumerate_generics(full)[0]
        g = mutate(poset)
        inside = np.array([e in g for e in poset.elements], dtype=bool)
        it.induced_filters = lambda a: ({zbar: 0}, inside[:, None])
        with pytest.raises(IterationError) as err:
            realize_filter(it, zbar)
        assert str(err.value) == message(poset, zbar)


class TestDensity:
    def test_spec_extension_found(self, i1):
        """A widened condition using the ordinal-valued name at b extends to
        a member of P* below it."""
        it = i1.iteration
        a = frozenset({"a", "b"})
        p = i1.cond({"b": i1.w1})
        assert it.entry_contexts(a, p)
        assert not it.member_pstar(a, p)
        q = i1.cond({"a": const_name((0,)), "b": 1})
        assert it._order_leq(a, q, p)

    def test_exhaustive_density(self, i1):
        it = i1.iteration
        for a in all_subsets(it.template.points):
            ok, witness = it.check_density_pstar(a)
            assert ok, witness

    def test_failure_witness(self):
        """fsi2_cohen_c without constants at stage 0, and a widened entry w
        at 1 worth 1 under const 0 and 2 under const 1.  No member of P*
        decides the Cohen branch, and each ordinal fails below w on one
        branch: 1 is above 2 in the chain of const 1, 2 is not below 1 in
        the V of const 0, and 0 is the top.  So {1=w} has no extension over
        {0, 1}; the other subsets add no widened condition."""
        raw = fixtures._shipped("fsi2_cohen_c.json")
        raw["iteration"]["0"]["constants"] = False
        raw["widened_entries"] = {"w": {"point": "1", "base": ["0"], "table": [
            {"when": {"0": {"const": "0"}}, "value": 1},
            {"when": {"0": {"const": "1"}}, "value": 2},
        ]}}
        raw["iteration"]["1"]["widened"] = ["w"]
        it = fixtures._parse(raw).iteration
        w = it.assignments["1"].widened_entries[0]
        witness = Condition((("1", w),))
        for a in all_subsets(it.template.points):
            expected = (False, witness) if a == {"0", "1"} else (True, None)
            assert it.check_density_pstar(a) == expected

    def test_trivial_when_no_widened_entries(self, fsi2_cc):
        it, _ = fsi2_cc
        for a in all_subsets(it.template.points):
            ok, _ = it.check_density_pstar(a)
            assert ok

    @pytest.mark.parametrize("make", [
        lambda: fixtures.fsi2_cohen_cohen()[0],
        lambda: fixtures.fsi3_cohen()[0],
    ], ids=["fsi2_cc", "fsi3"])
    def test_no_widened_entries_enumerate_nothing(self, make):
        """With no widened entry at any point, P|A is P*|A on every subset,
        so the density check passes without filling a memo."""
        it = make()
        it.build_poset(it.template.all_points())
        before = sum(map(len, it._memo.values()))
        rep = verify_density(it)
        assert rep.passed and rep.checked == 2 ** len(it.template.points)
        assert sum(map(len, it._memo.values())) == before


def _pairwise_order(it, a, elems):
    """The order matrix by the recursion, pair by pair: the reference for
    the stage-by-stage tabulation."""
    n = len(elems)
    leq = np.zeros((n, n), dtype=bool)
    for i, q in enumerate(elems):
        for j, p in enumerate(elems):
            if p.domain <= q.domain:
                leq[i, j] = it._order_leq(a, q, p)
    return leq


def _shipped_iteration(name):
    return load_doc(str(resources.files("finforce").joinpath("workdocs", name))).iteration


# the iterations the tabulated order and filter tables are checked on; the
# doc_* entries read the shipped workdocs from disk with load_doc, the way
# `finforce verify --doc` does
ITERATIONS = {
    "i1": lambda: fixtures.i1().iteration,
    "fsi2_cohen_cohen": lambda: fixtures.fsi2_cohen_cohen()[0],
    "fsi2_cohen_c": lambda: fixtures.fsi2_cohen_c()[0],
    "fsi3_cohen": lambda: fixtures.fsi3_cohen()[0],
    "case2": lambda: fixtures.case2_fixture()[0],
    "doc_i1": lambda: _shipped_iteration("i1.json"),
    "doc_fsi2_cc": lambda: _shipped_iteration("fsi2_cc.json"),
    "doc_fsi2_cohen_c": lambda: _shipped_iteration("fsi2_cohen_c.json"),
}
over_iterations = pytest.mark.parametrize("make", list(ITERATIONS.values()), ids=list(ITERATIONS))


class TestOneRelation:
    @over_iterations
    def test_pstar_is_the_ordinal_part_of_p(self, make):
        """P*|A is P|A cut to the conditions that member_pstar accepts, in
        the same canonical order."""
        it = make()
        for a in all_subsets(it.template.points):
            assert it.members(a) == [p for p in it.members(a, widened=True) if it.member_pstar(a, p)]


def _palette_members(it, a, widened):
    """P|A, or without ``widened`` P*|A, by the palette product, each
    combination asked of the recursion, in canonical order: the reference
    for the stage-by-stage table."""
    points = it.points_of(a)
    choices = [[None] + it.entry_palette(x) for x in points]
    combos = (
        Condition(tuple((x, e) for x, e in zip(points, combo) if e is not None))
        for combo in itertools.product(*choices)
    )
    member = it.member_p if widened else it.member_pstar
    return sorted((p for p in combos if member(a, p)), key=it._condition_key)


class TestMemberTable:
    @over_iterations
    def test_table_matches_palette_product(self, make):
        """The table equals the filtered palette product on every subset,
        widened and not; the single-condition queries of the reference build
        no table."""
        it, ref = make(), make()
        for a in all_subsets(it.template.points):
            for widened in (False, True):
                assert it.members(a, widened) == _palette_members(ref, a, widened), (sorted(a), widened)
        assert not ref._memo.get(SimpleIteration._member_table)

    @over_iterations
    def test_recorded_contexts_match_recursion(self, make, monkeypatch):
        """Every context tuple the table records is the one the recursion
        gives on an iteration that built no table."""
        it, fresh = make(), make()
        recorded = []
        record = SimpleIteration.entry_contexts.record

        def spy(owner, args, answer):
            recorded.append((args, answer))
            record(owner, args, answer)

        monkeypatch.setattr(SimpleIteration.entry_contexts, "record", spy)
        for a in all_subsets(it.template.points):
            for widened in (False, True):
                it.members(a, widened)
        assert recorded
        for (a, p), contexts in recorded:
            assert contexts == SimpleIteration.entry_contexts.__wrapped__(fresh, a, p), (sorted(a), str(p))
            assert it.entry_contexts(a, p) == contexts

    @over_iterations
    def test_queries_before_the_table(self, make):
        """Answers asked of the recursion before a table is built leave the
        table's lists, and the answers, as they are."""
        it, ref = make(), make()
        subsets = all_subsets(it.template.points)
        asked = {}
        for a in reversed(subsets):
            for widened in (False, True):
                for p in ref.members(a, widened)[1::2]:
                    asked[a, p] = (it.member_pstar(a, p), it.entry_contexts(a, p))
        for a in subsets:
            for widened in (False, True):
                assert it.members(a, widened) == ref.members(a, widened)
        for (a, p), answers in asked.items():
            assert (it.member_pstar(a, p), it.entry_contexts(a, p)) == answers
            assert answers == (ref.member_pstar(a, p), ref.entry_contexts(a, p))

    @over_iterations
    def test_restrictions_are_the_tables_objects(self, make):
        """A member's restriction below its maximum is the object of the
        table of its first context, and every cut along its domain is an
        object some table holds, equal to the cut made afresh."""
        it = make()
        subsets = all_subsets(it.template.points)
        held = {id(q) for a in subsets for widened in (False, True) for q in it.members(a, widened)}
        for a in subsets:
            for p in it.members(a)[1:]:
                x = p.entries[-1][0]
                first = it.entry_contexts(a, p)[0]
                assert any(p.before(x, it.rank) is q for q in it.members(first)), (sorted(a), str(p))
                for y, _ in p.entries:
                    cut = p.before(y, it.rank)
                    assert id(cut) in held
                    assert cut == Condition(tuple((z, e) for z, e in p.entries if it.rank[z] < it.rank[y]))

    @over_iterations
    def test_histories_through_table_objects_match_fresh_cuts(self, make):
        """The history of every member, whose cuts are the tables' own
        objects, equals the recursion's on another iteration over a copy of
        the member that cuts afresh."""
        it, fresh = make(), make()
        for a in all_subsets(it.template.points):
            for p in it.members(a):
                copy = Condition(p.entries)
                assert "_rest" not in vars(copy)
                h = history.history_of_condition(it, a, p)
                assert h == history._history_of_condition(fresh, a, copy, None), (sorted(a), str(p))

    @over_iterations
    def test_history_steps_read_through_canonical_contexts(self, make, monkeypatch):
        """Each step of a member's history reads its entry and its
        restriction through the canonical context of the step above.  Every
        entry history is tagged with the context it was taken over, so a
        step read through another context shows even where histories are
        ambient-free."""
        monkeypatch.setattr(history, "history_of_entry",
                            lambda it, a, entry: history.History(frozenset({a}), ()))
        it = make()
        for a in all_subsets(it.template.points):
            for p in it.members(a):
                expected, b, q = set(), a, p
                while q.entries:
                    x = q.entries[-1][0]
                    b = it.canonical_context(b, q)
                    if it.assignments[x].kind != "C":
                        expected.add(b)
                    q = q.before(x, it.rank)
                h = history.history_of_condition(it, a, p)
                assert {s for s in h.points if isinstance(s, frozenset)} == expected, (sorted(a), str(p))

    @over_iterations
    def test_canonical_choice_is_the_first_candidate(self, make):
        """The canonical context, and the canonical case-two delegation
        target, are the first candidate in canonical order; the rule they
        implement, the inclusion-least candidate if unique, else the least
        minimal one, is kept here as the reference."""
        def reference(it, candidates):
            minimal = [c for c in candidates if not any(d < c for d in candidates)]
            return minimal[0] if len(minimal) == 1 else min(minimal, key=it.template.order.subset_key)

        it = make()
        for a in all_subsets(it.template.points):
            for p in it.members(a):
                if p.is_empty():
                    continue
                assert it.canonical_context(a, p) == reference(it, it.entry_contexts(a, p)), (sorted(a), str(p))
                candidates = case2_contexts(it, a, p)
                if candidates:
                    assert candidates[0] == reference(it, candidates), (sorted(a), str(p))

    def test_one_table_per_subset(self):
        """P|A and P*|A are read off one table per subset: after every check
        on i1, whose point b has a widened entry, the memo holds one table
        for each of its 8 subsets."""
        i1 = fixtures.i1()
        assert all(r.passed for r in run_checks(i1.iteration, i1.registered_names()))
        assert len(i1.iteration._memo[SimpleIteration._member_table]) == 8

    def test_cap_counts_the_widened_table(self):
        """The cap bounds the table that is built, so it is checked against
        the widened palette product (8 * 5 * 8 = 320 on i1) even where only
        the 256 members of P* are asked for."""
        it = fixtures.i1().iteration
        full = it.template.all_points()
        it.max_conditions = 319
        with pytest.raises(ResourceCapExceeded) as err:
            it.members(full)
        assert err.value.size == 320
        it.max_conditions = 320
        assert len(it.members(full)) == 256

    @pytest.mark.parametrize("widened", [False, True])
    def test_over_the_cap_does_no_work(self, widened):
        """Over the cap, members raises before it tabulates anything: no
        table and no recorded context is left in the memo."""
        it, _ = fixtures.fsi3_cohen()
        it.max_conditions = 4**3 - 1
        with pytest.raises(ResourceCapExceeded):
            it.members(it.template.all_points(), widened)
        assert not it._memo.get(SimpleIteration._member_table)
        assert not it._memo.get(SimpleIteration.entry_contexts)
        it.max_conditions = 4**3
        assert len(it.members(it.template.all_points(), widened)) == 4**3


class TestOrderMatrix:
    @over_iterations
    def test_tabulation_matches_recursion(self, make):
        it = make()
        for a in all_subsets(it.template.points):
            for widened in (False, True):
                elems = it.members(a, widened)
                expect = _pairwise_order(it, a, elems)
                got = unpack_rows(it._order_matrix(a, elems), len(elems)).T
                assert (got == expect).all(), (sorted(a), widened, np.argwhere(got != expect)[:4])

    def test_fsi_closed_form(self, cohen_fsi):
        k = 5
        it = cohen_fsi(k)
        poset = it.build_poset(it.template.all_points())
        assert len(poset.elements) == 4**k
        assert int(poset.leq_matrix.sum()) == 9**k


def _pointwise_member(it, z, p):
    """Filter membership of the whole condition, uncached: the reference for
    the entry-wise filter table."""
    return SimpleIteration.member_of_filter.__wrapped__(it, z, p)


class TestFilterTable:
    @over_iterations
    def test_table_matches_pointwise_membership(self, make):
        it = make()
        for a in all_subsets(it.template.points):
            gens = it.enumerate_generics(a)
            for widened in (False, True):
                elems = it.members(a, widened)
                got = it.filter_table(gens, elems)
                expect = np.array(
                    [[_pointwise_member(it, z, p) for z in gens] for p in elems], dtype=bool
                ).reshape(len(elems), len(gens))
                assert got.shape == expect.shape
                assert (got == expect).all(), (sorted(a), widened, np.argwhere(got != expect)[:4])

    @over_iterations
    def test_realize_filter_matches_brute_force(self, make):
        it = make()
        full = it.template.all_points()
        poset = it.build_poset(full)
        for z in it.enumerate_generics(full):
            assert realize_filter(it, z) == frozenset(
                p for p in poset.elements if _pointwise_member(it, z, p)
            )

    def test_generic_outside_the_table(self, i1):
        """A generic over a larger set still realizes its filter on P*|A."""
        it = i1.iteration
        a = frozenset({"a", "b"})
        poset = it.build_poset(a)
        for z in it.enumerate_generics(it.template.all_points()):
            assert realize_filter(it, z, a) == frozenset(
                p for p in poset.elements if _pointwise_member(it, z, p)
            )


def _hashed_objects():
    """Equal objects built afresh on every call: a condition carrying nested
    table names and TRIV, a table name and a generic sequence."""
    fx = fixtures.i1()
    it = fx.iteration
    cond = fx.cond({"a": const_name((0, 1)), "b": 2, "c": TRIV})
    zbar = it.enumerate_generics(it.template.all_points())[5]
    return cond, fx.qc, GenericSequence(tuple(zbar.entries))


class TestCachedHashes:
    def test_equal_objects_hash_equal(self):
        first, second = _hashed_objects(), _hashed_objects()
        assert [type(o) for o in first] == [Condition, DecisionTableName, GenericSequence]
        for a, b in zip(first, second):
            assert a is not b and a == b
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1

    def test_hash_stays_out_of_pickled_state(self):
        """Neither the cached hash and domain nor a table member's
        restriction pointer and sort key is pickled; an unpickled member
        cuts afresh and computes its key."""
        cond, _, _ = objs = _hashed_objects()
        it = fixtures.i1().iteration
        member = it.members(it.template.all_points())[-1]
        assert "_rest" in vars(member) and len(member.entries) == 3
        assert vars(member)["_key"] == it._condition_key(Condition(member.entries))
        for c in (cond, member):
            assert c.domain == {"a", "b", "c"} and "domain" in vars(c)
        for obj in objs + (member,):
            hash(obj)
            assert "_hash" in vars(obj)
            state = obj.__reduce_ex__(2)[2]
            assert not {"_hash", "domain", "_rest", "_key"} & set(state)
            copy = pickle.loads(pickle.dumps(obj))
            assert copy == obj and hash(copy) == hash(obj)
        copy = pickle.loads(pickle.dumps(member))
        assert "_rest" not in vars(copy) and "_key" not in vars(copy)
        assert copy.before("c", it.rank) == member.before("c", it.rank)
        assert it._condition_key(copy) == it._condition_key(member)

    def test_unpickled_in_another_process_hash_as_built_here(self):
        """String hashes differ between processes; an object pickled by a
        process with another hash seed must hash like its equal built here."""
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        code = (
            "import pickle, sys\n"
            "sys.path.insert(0, 'tests')\n"
            "from test_iteration import _hashed_objects\n"
            "objs = _hashed_objects()\n"
            "[hash(o) for o in objs]\n"
            "sys.stdout.buffer.write(pickle.dumps(objs))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, check=True)
        for theirs, ours in zip(pickle.loads(out.stdout), _hashed_objects()):
            assert theirs == ours
            assert hash(theirs) == hash(ours)
            assert {ours: 1}[theirs] == 1


class TestEmbeddings:
    @pytest.mark.parametrize(
        "small,big",
        [
            ({"a"}, {"a", "b"}),
            ({"a"}, {"a", "b", "c"}),
            ({"a", "b"}, {"a", "b", "c"}),
            ({"b"}, {"a", "b", "c"}),
        ],
    )
    def test_i1_pairs(self, i1, small, big):
        rep = i1.iteration.check_complete_embedding(frozenset(small), frozenset(big))
        assert rep.ok, rep.failures[:3]

    def test_identity(self, i1):
        a = frozenset({"a", "b"})
        assert i1.iteration.check_complete_embedding(a, a).ok


def _const_cond(it, bits: dict, **ordinals):
    """The condition with constant entries (b,) at the points of bits and
    the given ordinals."""
    return make_condition(it.rank, {**{x: const_name((b,)) for x, b in bits.items()}, **ordinals})


def _hand_built_fsi3():
    """fsi3.json's iteration and names, built without the parser."""
    c12 = cohen(1, 2)
    template = full_powerset_template(("0", "1", "2"))
    it = SimpleIteration(template, {x: IterandAssignment(kind="B", model=c12) for x in template.points})
    last_bit = RealName(((_const_cond(it, {"2": 0}), _const_cond(it, {"2": 1})),), ((0, 1),))
    ends = RealName(((_const_cond(it, {"0": 0, "2": 0}), _const_cond(it, {"0": 0, "2": 1}),
                      _const_cond(it, {"0": 1})),), ((0, 1, 2),))
    return it, {"last_bit": last_bit, "ends": ends}


def _hand_built_case2():
    """case2.json's iteration and names, built without the parser."""
    c12 = cohen(1, 2)
    template = validate_template(LinearOrder(("0", "1", "2", "3")), {
        "0": [[]],
        "1": [[], ["0"]],
        "2": [[], ["0"], ["1"], ["0", "1"]],
        "3": [[], ["0"], ["1"], ["0", "1"], ["1", "2"], ["0", "1", "2"]],
    })
    q3 = const_name(SmallPosetSpec(size=2, leq_pairs=((1, 0),)))
    it = SimpleIteration(template, {
        **{x: IterandAssignment(kind="B", model=c12) for x in ("0", "1", "2")},
        "3": IterandAssignment(kind="C", gamma=2, support=frozenset({"1"}), qname=q3),
    })
    first = RealName(((_const_cond(it, {"0": 0}), _const_cond(it, {"0": 1})),), ((3, 4),))
    deep = RealName(((_const_cond(it, {"2": 0}, **{"3": 1}), _const_cond(it, {"2": 1}, **{"3": 1})),),
                    ((0, 1),))
    return it, {"first_bit": first, "deep": deep}


class TestShippedFixtures:
    @pytest.mark.parametrize("parsed, hand_built", [
        (fixtures.fsi3_cohen, _hand_built_fsi3),
        (fixtures.case2_fixture, _hand_built_case2),
    ], ids=["fsi3", "case2"])
    def test_parsed_as_built_by_hand(self, parsed, hand_built):
        """The workdoc gives the iteration built from the objects directly:
        the same template, the same assignments apart from model identity,
        the same names, and the same members on every subset."""
        (it, names), (ref, ref_names) = parsed(), hand_built()
        assert names == ref_names
        assert it.template.points == ref.template.points
        assert it.template.families == ref.template.families
        for x, asg in it.assignments.items():
            other = ref.assignments[x]
            assert dataclasses.replace(asg, model=other.model) == other
            assert (asg.model is None) == (other.model is None)
            if asg.model is not None:
                assert asg.model.poset.elements == other.model.poset.elements
        for a in all_subsets(it.template.points):
            for widened in (False, True):
                assert it.members(a, widened) == ref.members(a, widened)
