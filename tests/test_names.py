"""Forcing decision procedures for names: the antichain-compatibility
criteria against brute-force semantics over fully generic filters."""

import gc
import random
import weakref

import pytest

from finforce.models import cohen
from finforce.names import (
    RealName,
    _selector_tuples,
    decide_forces_in_tree,
    decide_forces_value,
)
from reference import (
    maximal_antichains,
    realized_value_rows,
    semantic_decide_value,
    semantic_forces_in_tree,
    validate_name,
)


def cohen_name_57(cohen22):
    return RealName(antichains=(((0,), (1,)),), values=((5, 7),))


class TestDecideValue:
    def test_forces(self, cohen22):
        name = cohen_name_57(cohen22)
        assert decide_forces_value(cohen22.poset, (0,), name, 0, 5) == "forces"

    def test_undecided_at_top(self, cohen22):
        name = cohen_name_57(cohen22)
        assert decide_forces_value(cohen22.poset, (), name, 0, 5) == "undecided"

    def test_refutes(self, cohen22):
        name = cohen_name_57(cohen22)
        assert decide_forces_value(cohen22.poset, (0,), name, 0, 7) == "refutes"

    def test_out_of_range(self, cohen22):
        name = cohen_name_57(cohen22)
        with pytest.raises(IndexError):
            decide_forces_value(cohen22.poset, (0,), name, 3, 5)

    def test_forces_matches_filter_semantics(self, cohen22):
        """forces(p, n, m) and p in an admissible G imply the unique member
        of the antichain inside G carries value m."""
        name = cohen_name_57(cohen22)
        p = cohen22.poset
        for cond in p.elements:
            for m in (5, 7):
                verdict = decide_forces_value(p, cond, name, 0, m)
                rows = realized_value_rows(p, cond, name, 1)
                if verdict == "forces":
                    assert {r[0] for r in rows} == {m}


class TestDecideInTree:
    def test_vacuous_tree(self, cohen22):
        name = cohen_name_57(cohen22)
        tree = [(), (5,), (7,)]
        assert decide_forces_in_tree(cohen22.poset, (), name, tree, 1)

    def test_branch_decided(self, cohen22):
        name = cohen_name_57(cohen22)
        tree = [(), (5,)]
        assert decide_forces_in_tree(cohen22.poset, (0,), name, tree, 1)

    def test_top_does_not_force(self, cohen22):
        name = cohen_name_57(cohen22)
        tree = [(), (5,)]
        assert not decide_forces_in_tree(cohen22.poset, (), name, tree, 1)

    def test_prefix_length_guard(self, cohen22):
        name = cohen_name_57(cohen22)
        with pytest.raises(IndexError):
            decide_forces_in_tree(cohen22.poset, (), name, [()], 2)


def registered_names(model, kind):
    """The name families the agreement sweeps run over."""

    if kind == "cohen":
        antichains = maximal_antichains(model.poset)
    else:
        f_all = frozenset((a, b) for a in (0, 1) for b in (0, 1))
        none = frozenset()
        antichains = [
            (model.poset.top,),
            (((0,), none), ((1,), none), ((), f_all)),
            tuple(model.poset.minimal_elements()),
        ]
    names = []
    for a in antichains:
        names.append(RealName((tuple(a),), (tuple(i % 10 for i in range(len(a))),)))
        names.append(RealName((tuple(a),), (tuple((3 * i + 1) % 10 for i in range(len(a))),)))
    for a in antichains:
        for b in antichains:
            names.append(
                RealName(
                    (tuple(a), tuple(b)),
                    (
                        tuple(i % 10 for i in range(len(a))),
                        tuple((2 * i + 5) % 10 for i in range(len(b))),
                    ),
                )
            )
    return names


def sample_trees(rng, count):
    """Prefix-closed trees over values 0..9, depth at most two."""
    trees = []
    for _ in range(count):
        level1 = rng.sample(range(10), rng.randint(0, 6))
        tree = {()}
        for v in level1:
            tree.add((v,))
            for w in rng.sample(range(10), rng.randint(0, 4)):
                tree.add((v, w))
        trees.append(frozenset(tree))
    return trees


@pytest.mark.parametrize("kind", ["cohen", "ed"])
def test_name_antichains_are_maximal(kind, cohen22, ed22):
    model = cohen22 if kind == "cohen" else ed22
    for name in registered_names(model, kind):
        assert validate_name(model.poset, name) == []


@pytest.mark.parametrize("kind", ["cohen", "ed"])
def test_tree_criterion_agrees_with_semantics(kind, cohen22, ed22):
    model = cohen22 if kind == "cohen" else ed22
    names = registered_names(model, kind)
    rng = random.Random(417)
    trees = sample_trees(rng, 60)
    for name in names[:8]:
        for cond in model.poset.elements[:: max(1, len(model.poset.elements) // 20)]:
            for k in range(1, name.length + 1):
                for tree in trees[:20]:
                    got = decide_forces_in_tree(model.poset, cond, name, tree, k)
                    want = semantic_forces_in_tree(model.poset, cond, name, tree, k)
                    assert got == want


@pytest.mark.parametrize("kind", ["cohen", "ed"])
def test_value_criterion_agrees_with_semantics(kind, cohen22, ed22):
    model = cohen22 if kind == "cohen" else ed22
    names = registered_names(model, kind)
    for name in names[:6]:
        for cond in model.poset.elements[:: max(1, len(model.poset.elements) // 15)]:
            for m in range(10):
                got = decide_forces_value(model.poset, cond, name, 0, m)
                want = semantic_decide_value(model.poset, cond, name, 0, m)
                assert got == want, (cond, m, got, want)


def test_dead_condition_agreement(ed22):
    """Truncation creates conditions, like ((), F_all), that no E-induced
    filter contains; the decision procedures still agree with semantics over
    the fully generic (up-set) filters, which do reach them."""
    f_all = frozenset((a, b) for a in (0, 1) for b in (0, 1))
    dead = ((), f_all)
    name = RealName(
        antichains=(((((0,), frozenset())), (((1,), frozenset())), dead),),
        values=((5, 7, 9),),
    )
    got = decide_forces_value(ed22.poset, dead, name, 0, 9)
    want = semantic_decide_value(ed22.poset, dead, name, 0, 9)
    assert got == want == "forces"
    tree = frozenset({(), (5,), (7,)})
    got = decide_forces_in_tree(ed22.poset, dead, name, tree, 1)
    want = semantic_forces_in_tree(ed22.poset, dead, name, tree, 1)
    assert got == want is False


def test_answers_are_cached_on_the_poset_and_die_with_it():
    """The forcing memos live on the poset: answers match the uncached
    computation, repeat unchanged, and a dropped poset can be collected."""
    poset = cohen(2, 2).poset
    name = RealName((((0,), (1,)), ((0, 0), (0, 1), (1,))), ((5, 7), (1, 2, 3)))
    for fn in (_selector_tuples, realized_value_rows):
        for cond in poset.elements:
            for k in (1, 2):
                want = fn.__wrapped__(poset, cond, name, k)
                assert fn(poset, cond, name, k) == want
                assert fn(poset, cond, name, k) == want
    assert len(poset._memo) == 2
    for fn in (_selector_tuples, realized_value_rows):
        assert len(poset._memo[fn]) == 2 * len(poset.elements)
    ref = weakref.ref(poset)
    del poset
    gc.collect()
    assert ref() is None
