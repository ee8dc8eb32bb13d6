"""Histories, W-sets, tuple spaces and restrictions."""

import pytest

from finforce import fixtures
from finforce.history import (
    EMPTY_HISTORY,
    History,
    _canonical_history,
    enumerate_points,
    history_of_condition,
    history_of_name,
    restrict_tuple,
    tuple_space,
)
from finforce.iteration import EMPTY_CONDITION, MembershipError, const_name
from finforce.names import RealName


class TestConditionHistory:
    def test_empty(self, i1):
        it = i1.iteration
        h = history_of_condition(it, frozenset(), EMPTY_CONDITION)
        assert h == EMPTY_HISTORY

    def test_c_entry_ignores_entry_history_keeps_w(self, i1):
        it = i1.iteration
        h = history_of_condition(it, frozenset({"a", "b"}), i1.cond({"b": 2}))
        assert h.points == {"b"}
        assert h.w_map() == {"b": {2}}

    def test_table_entry_pulls_base_history(self, i1):
        it = i1.iteration
        t1 = i1.c_tables[0]
        p = i1.cond({"a": const_name((0,)), "c": t1})
        h = history_of_condition(it, frozenset(i1.template.points), p)
        assert h.points == {"a", "c"}
        assert h.w == ()

    def test_nonmember_raises(self, i1):
        with pytest.raises(MembershipError):
            history_of_condition(i1.iteration, frozenset({"b"}), i1.cond({"b": 1}))


class TestNameHistory:
    def test_constant_member(self, i1):
        name = RealName(antichains=((EMPTY_CONDITION,),), values=((9,),))
        h = history_of_name(i1.iteration, frozenset(i1.template.points), name)
        assert h == EMPTY_HISTORY

    def test_w_union_over_members(self, i1):
        it = i1.iteration
        name = i1.registered_names()["n2"]
        h = history_of_name(it, frozenset(i1.template.points), name)
        assert h.points == {"b"}
        assert h.w_map() == {"b": {1, 2}}

    def test_s_components_only(self, i1):
        name = i1.registered_names()["n1"]
        h = history_of_name(i1.iteration, frozenset(i1.template.points), name)
        assert h.points == {"a"}
        assert h.w == ()


class TestTupleSpace:
    def test_empty_space_is_singleton(self, i1):
        t = tuple_space(i1.iteration, EMPTY_HISTORY)
        points = list(enumerate_points(t))
        assert len(points) == 1
        assert points[0].entries == ()

    def test_c_component_counts_maps(self, i1):
        h = History(points=frozenset({"b"}), w=(("b", frozenset({2})),))
        t = tuple_space(i1.iteration, h)
        assert t.s_points == () and t.c_points == ("b",)
        assert t.size() == 2
        assert len(list(enumerate_points(t))) == 2

    def test_one_space_per_history(self):
        """Equal histories share one space; histories with the same points
        and other W-sets get their own, each the one built afresh."""
        it = fixtures.i1().iteration
        full = it.template.all_points()
        histories = [history_of_condition(it, full, p) for p in it.members(full)]
        spaces = {}
        for h in histories:
            t = tuple_space(it, h)
            assert t == tuple_space.__wrapped__(it, h)
            assert spaces.setdefault(h, t) is t
        assert len({h.points for h in spaces}) < len(spaces)

    def test_s_component_uses_full_generic_space(self, i1):
        h = History(points=frozenset({"a"}), w=())
        t = tuple_space(i1.iteration, h)
        assert t.s_points == ("a",)
        assert t.size() == 4


class TestRestrictTuple:
    def test_restrict_to_empty(self, i1):
        it = i1.iteration
        t = tuple_space(it, EMPTY_HISTORY)
        z = it.enumerate_generics(frozenset(i1.template.points))[0]
        assert restrict_tuple(z, t).entries == ()

    def test_characteristic_restriction(self, i1):
        it = i1.iteration
        h = History(points=frozenset({"b"}), w=(("b", frozenset({2})),))
        t = tuple_space(it, h)
        z = next(
            z for z in it.enumerate_generics(frozenset(i1.template.points))
            if z.value("b") == (1, 1, 0)
        )
        pt = restrict_tuple(z, t)
        assert pt.value("b") == ((2, 0),)
        assert pt.bit("b", 2) == 0

    def test_projection_composes(self, i1):
        it = i1.iteration
        big = History(points=frozenset({"a", "b"}), w=(("b", frozenset({1, 2})),))
        small = History(points=frozenset({"b"}), w=(("b", frozenset({2})),))
        tb, ts = tuple_space(it, big), tuple_space(it, small)
        for z in it.enumerate_generics(frozenset(i1.template.points)):
            once = restrict_tuple(z, ts)
            twice = restrict_tuple(restrict_tuple(z, tb), ts)
            assert once == twice

    def test_missing_component(self, i1):
        it = i1.iteration
        h = History(points=frozenset({"c"}), w=())
        t = tuple_space(it, h)
        z = it.enumerate_generics(frozenset({"a"}))[0]
        with pytest.raises(KeyError):
            restrict_tuple(z, t)


class TestInvariance:
    def test_condition_histories_ambient_free(self, i1):
        """Histories agree across nested ambient sets (the invariance the
        verification harness sweeps exhaustively)."""
        it = i1.iteration
        full = frozenset(i1.template.points)
        a = frozenset({"a", "b"})
        for p in it.members(a):
            assert history_of_condition(it, a, p) == history_of_condition(it, full, p)

    def test_choice_override_immaterial(self, i1):
        it = i1.iteration
        full = frozenset(i1.template.points)
        p = i1.cond({"b": 1})
        base = history_of_condition(it, full, p)
        for ctx in it.entry_contexts(full, p):
            assert history_of_condition(it, full, p, context_override=ctx) == base

    def test_bad_override_rejected(self, i1):
        it = i1.iteration
        p = i1.cond({"b": 1})
        with pytest.raises(ValueError):
            history_of_condition(
                it, frozenset(i1.template.points), p,
                context_override=frozenset({"b"}),
            )


class TestMemo:
    def test_memo_matches_cold_computation(self):
        """After a full invariance sweep on the delegating fixture, every
        memoized history equals the one a fresh iteration computes first."""
        from finforce.verify import verify_history_invariance

        it, names = fixtures.case2_fixture()
        assert verify_history_invariance(it, names).passed
        memo = it._memo[_canonical_history]
        assert memo
        for (a, p), h in memo.items():
            assert history_of_condition(fixtures.case2_fixture()[0], a, p) == h

    def test_forced_top_step_is_not_memoized(self):
        i1 = fixtures.i1()
        it = i1.iteration
        full = frozenset(i1.template.points)
        p = i1.cond({"b": 1})
        for ctx in it.entry_contexts(full, p):
            history_of_condition(it, full, p, context_override=ctx)
        memo = it._memo[_canonical_history]
        assert (full, p) not in memo
        h = history_of_condition(it, full, p)
        assert memo[(full, p)] is h
        assert history_of_condition(it, full, p) is h
