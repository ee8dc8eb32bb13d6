"""Finite poset primitives: compatibility, antichains, generic filters,
complete embeddings and correct systems."""

import gc
import weakref
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finforce.models import cohen, ed
from finforce.posets import (
    CorrectSystem,
    FinitePoset,
    _bool_product,
    _embedding,
    admissible_filters_upsets,
    check_complete_embedding_posets,
    check_correct_system,
    compatible,
    filter_defect,
    is_maximal_antichain,
    is_reduction,
    maximal_antichains,
    memoized,
)


class TestBoolProduct:
    @pytest.mark.parametrize("shape", [(5, 7, 3), (0, 4, 6), (6, 4, 0), (3, 0, 2), (40, 40, 40)])
    def test_matches_integer_reference(self, shape):
        rows, inner, cols = shape
        rng = np.random.default_rng(rows * 100 + inner * 10 + cols)
        a = rng.random((rows, inner)) < 0.3
        b = rng.random((inner, cols)) < 0.3
        expect = (a.astype(np.int64) @ b.astype(np.int64)) > 0
        got = _bool_product(a, b)
        assert got.dtype == bool and got.shape == (rows, cols)
        assert (got == expect).all()

    def test_refuses_inner_dimension_of_two_to_the_24(self):
        inner = 1 << 24
        a = np.broadcast_to(np.zeros(1, dtype=bool), (1, inner))
        b = np.broadcast_to(np.zeros((1, 1), dtype=bool), (inner, 1))
        with pytest.raises(ValueError, match=r"2\*\*24"):
            _bool_product(a, b)


def vee_poset():
    # 0 on top, 1 and 2 incomparable below
    return FinitePoset.from_relation((0, 1, 2), [(1, 0), (2, 0)], top=0)


class TestBasics:
    def test_reflexivity_gives_compat(self):
        p = vee_poset()
        for e in p.elements:
            assert compatible(p, e, e)

    def test_cohen_incompatible_stems(self):
        c = cohen(2, 2).poset
        assert not compatible(c, (0,), (1,))
        assert compatible(c, (0,), (0, 1))

    def test_ed_compatible_example(self):
        # (<>, {11}) and (<0>, {}) share the extension (<00>, {11})
        e = ed(2, 2).poset
        f11 = frozenset({(1, 1)})
        assert compatible(e, ((), f11), ((0,), frozenset()))
        assert e.leq(((0, 0), f11), ((), f11))
        assert e.leq(((0, 0), f11), ((0,), frozenset()))

    def test_invalid_orders_rejected(self):
        bad = np.array([[True, True], [True, True]])
        with pytest.raises(ValueError):
            FinitePoset(("a", "b"), bad, "a")


class TestAntichains:
    def test_cohen_two_stems_maximal(self):
        c = cohen(2, 2).poset
        assert is_maximal_antichain(c, [(0,), (1,)])

    def test_single_stem_not_maximal(self):
        c = cohen(2, 2).poset
        assert not is_maximal_antichain(c, [(0,)])

    def test_top_is_maximal_antichain(self):
        for p in (cohen(2, 2).poset, vee_poset()):
            assert is_maximal_antichain(p, [p.top])

    def test_enumeration_on_cohen(self):
        c = cohen(2, 2).poset
        antichains = maximal_antichains(c)
        # the bars of the binary tree of depth two
        assert len(antichains) == 5
        for a in antichains:
            assert is_maximal_antichain(c, a)


def _mask(p, g):
    return np.array([e in g for e in p.elements], dtype=bool)


class TestGenericFilters:
    def test_vee_filters(self):
        p = vee_poset()
        filters = admissible_filters_upsets(p)
        assert sorted(map(sorted, filters)) == [[0, 1], [0, 2]]

    def test_singleton_poset(self):
        p = FinitePoset.from_relation(("t",), [], top="t")
        assert admissible_filters_upsets(p) == [frozenset({"t"})]

    def test_cohen_filters_are_prefix_filters(self):
        c = cohen(2, 2).poset
        filters = admissible_filters_upsets(c)
        assert len(filters) == 4
        for g in filters:
            full = [s for s in g if len(s) == 2]
            assert len(full) == 1
            assert g == frozenset(full[0][:k] for k in range(3))

    def test_filters_meet_every_maximal_antichain(self):
        c = cohen(2, 2).poset
        for g in admissible_filters_upsets(c):
            assert filter_defect(c, _mask(c, g)) is None
            for a in maximal_antichains(c):
                assert len(g & set(a)) == 1

    def test_non_minimal_upset_misses_an_antichain(self):
        c = cohen(2, 2).poset
        g = c.upset((0,))
        assert filter_defect(c, _mask(c, g)).kind == "not-minimal"


def random_poset_strategy():
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=6))
        leq = np.eye(n, dtype=bool)
        for i in range(1, n):
            for j in range(i):
                if draw(st.booleans()):
                    leq[i, j] = True  # i below j
        for _ in range(n):
            leq = leq | (leq @ leq)
        leq[:, 0] = True  # 0 is the top
        return FinitePoset(tuple(range(n)), leq, 0)

    return build()


@settings(max_examples=40, deadline=None)
@given(random_poset_strategy())
def test_upsets_of_minimals_are_exactly_the_generic_filters(p):
    """A filter meets every maximal antichain iff it is the up-set of a
    minimal element; checked by exhaustive enumeration of all up-sets."""
    minimals = set(p.minimal_elements())
    for e in p.elements:
        g = p.upset(e)
        assert (filter_defect(p, _mask(p, g)) is None) == (e in minimals)


@settings(max_examples=60, deadline=None)
@given(random_poset_strategy())
def test_filter_audit_matches_brute_force_on_every_subset(p):
    """The audit accepts exactly the nonempty, upward closed, pairwise
    bounded-below subsets that meet every maximal antichain once, and it
    reports a non-minimal least element exactly for the filters that miss
    the antichain condition."""
    leq = p.leq_matrix
    n = len(p)
    antichains = [{p.index[e] for e in a} for a in maximal_antichains(p)]
    for bits in range(1 << n):
        g = {i for i in range(n) if bits >> i & 1}
        upward_closed = all(j in g for i in g for j in range(n) if leq[i, j])
        directed = all(any(leq[c, a] and leq[c, b] for c in g) for a in g for b in g)
        is_filter = bool(g) and upward_closed and directed
        meets_once = all(len(g & a) == 1 for a in antichains)
        defect = filter_defect(p, np.array([i in g for i in range(n)], dtype=bool))
        assert (defect is None) == (is_filter and meets_once), (sorted(g), defect)
        assert (defect is not None and defect.kind == "not-minimal") == (is_filter and not meets_once)


class _Owner:
    def __init__(self):
        self._memo = defaultdict(dict)
        self.calls = []

    @memoized
    def f(self, x, flag=False):
        self.calls.append(("f", x, flag))
        return (x, flag)

    @memoized
    def g(self, x, flag=False):
        self.calls.append(("g", x, flag))
        return [x, flag]


class TestMemoized:
    """`memoized`, the one memo layer: one dict per function on the owner."""

    def test_defaults_share_an_entry(self):
        o = _Owner()
        assert o.f(1) == o.f(1, False) == o.f(1, flag=False) == o.f(x=1) == (1, False)
        assert o.calls == [("f", 1, False)]
        assert o.f(1, True) == (1, True)
        assert o._memo[_Owner.f] == {(1, False): (1, False), (1, True): (1, True)}

    def test_functions_and_owners_do_not_share_entries(self):
        o, other = _Owner(), _Owner()
        assert o.f(1) == (1, False)
        assert o.g(1) == [1, False]
        assert o.calls == [("f", 1, False), ("g", 1, False)]
        assert dict(o._memo) == {_Owner.f: {(1, False): (1, False)}, _Owner.g: {(1, False): [1, False]}}
        other.f(1)
        assert other.calls == [("f", 1, False)]

    def test_wrapped_is_the_uncached_body(self):
        o = _Owner()
        first = o.g(2)
        assert o.g(2) is first
        again = _Owner.g.__wrapped__(o, 2)
        assert again == first and again is not first
        assert o.calls == [("g", 2, False)] * 2
        assert len(o._memo[_Owner.g]) == 1

    def test_bad_calls_raise_and_store_nothing(self):
        o = _Owner()
        for call in (lambda: o.f(), lambda: o.f(1, True, 3), lambda: o.f(1, bogus=2)):
            with pytest.raises(TypeError):
                call()
        assert not o._memo[_Owner.f] and not o.calls


class TestEmbeddingsAndSystems:
    def test_identity_embedding(self):
        c = cohen(2, 2).poset
        assert check_complete_embedding_posets(c, c).ok

    def test_degenerate_system(self):
        c = cohen(1, 2).poset
        assert check_correct_system(CorrectSystem(c, c, c, c)).ok

    def test_broken_completeness_detected(self):
        # sub has two incompatible elements; sup adds a common lower bound,
        # so incompatibility is lost and the embedding is not complete
        sub = FinitePoset.from_relation((0, 1, 2), [(1, 0), (2, 0)], top=0)
        sup = FinitePoset.from_relation(
            (0, 1, 2, 3), [(1, 0), (2, 0), (3, 1), (3, 2)], top=0
        )
        rep = check_complete_embedding_posets(sub, sup)
        assert not rep.ok
        assert any(f[0] == "incompatibility-lost" for f in rep.failures)

    def test_broken_system_reports_witness(self):
        sub = FinitePoset.from_relation((0, 1, 2), [(1, 0), (2, 0)], top=0)
        sup = FinitePoset.from_relation(
            (0, 1, 2, 3), [(1, 0), (2, 0), (3, 1), (3, 2)], top=0
        )
        rep = check_correct_system(CorrectSystem(sub, sub, sup, sup))
        assert not rep.ok

    def test_reduction_definition(self):
        sub = vee_poset()
        sup = FinitePoset.from_relation(
            (0, 1, 2, 3), [(1, 0), (2, 0), (3, 2)], top=0
        )
        # 2 reduces 3 (its only sub-extension is itself, compatible with 3);
        # 1 does not (1 is incompatible with 3 in sup)
        assert is_reduction(sub, sup, 2, 3)
        assert not is_reduction(sub, sup, 1, 3)


def persistence_system() -> CorrectSystem:
    """Q1 on {0..4}: 1 <= 4, 2 <= 3, 0 on top.  P0 = {0}, P1 = {0,1,2} and
    Q0 = {0,3,4}.  All four inclusions are complete, but 0 reduces 3 and 4
    within <P0, Q0> and not within <P1, Q1>: P1 adds 1 and 2, which are
    incompatible with 3 and 4 in Q1."""
    q1 = FinitePoset.from_relation(range(5), [(1, 4), (2, 3)] + [(e, 0) for e in range(5)], top=0)
    return CorrectSystem(q1.restrict({0}), q1.restrict({0, 1, 2}), q1.restrict({0, 3, 4}), q1)


class TestSharedEmbeddings:
    EXPECTED = [("reduction-not-persistent", 0, 3), ("reduction-not-persistent", 0, 4)]

    def test_reduction_not_persistent_cold(self):
        s = persistence_system()
        for sub, sup in ((s.p0, s.p1), (s.p0, s.q0), (s.p1, s.q1), (s.q0, s.q1)):
            assert check_complete_embedding_posets(sub, sup).ok
        s = persistence_system()
        rep = check_correct_system(s)
        assert not rep.ok and rep.failures == self.EXPECTED

    def test_reduction_not_persistent_with_cached_pair(self):
        s = persistence_system()
        first = check_complete_embedding_posets(s.p0, s.q0)
        assert first.ok and s.p0 in s.q0._embeddings
        rep = check_correct_system(s)
        assert not rep.ok and rep.failures == self.EXPECTED
        assert check_complete_embedding_posets(s.p0, s.q0) == first

    def test_repeat_report_is_equal(self):
        sub = FinitePoset.from_relation((0, 1, 2), [(1, 0), (2, 0)], top=0)
        sup = FinitePoset.from_relation(
            (0, 1, 2, 3), [(1, 0), (2, 0), (3, 1), (3, 2)], top=0
        )
        first = check_complete_embedding_posets(sub, sup)
        assert not first.ok
        assert check_complete_embedding_posets(sub, sup) == first
        assert check_correct_system(CorrectSystem(sub, sub, sup, sup)).failures[0][0] == "P0<Q0"

    def test_cached_index_maps(self):
        """The cache entry holds the position in sup of each element of sub."""
        s = persistence_system()
        assert check_correct_system(s).failures == self.EXPECTED
        for sub, sup in ((s.p0, s.p1), (s.p0, s.q0), (s.p1, s.q1), (s.q0, s.q1)):
            ids = _embedding(sub, sup)[1]
            assert [sup.elements[i] for i in ids] == list(sub.elements)

    def test_persistence_reads_the_q0_map(self):
        """Q1: 3 and 4 lie below 2, and 2 below 1.  Every element of P1 =
        {0, 3, 4} is compatible with every element of Q0 = {0, 1, 2}, so
        the reductions of <P0, Q0> persist, though 3 and 4 are incompatible
        with each other."""
        q1 = FinitePoset.from_relation(
            range(5), [(2, 1), (3, 2), (4, 2)] + [(e, 0) for e in range(5)], top=0
        )
        s = CorrectSystem(q1.restrict({0}), q1.restrict({0, 3, 4}), q1.restrict({0, 1, 2}), q1)
        assert check_correct_system(s).ok

    def test_cache_does_not_keep_sub_alive(self):
        sup = cohen(2, 2).poset
        sub = sup.restrict(sup.elements[:1])
        assert check_complete_embedding_posets(sub, sup).ok
        ref = weakref.ref(sub)
        del sub
        gc.collect()
        assert ref() is None and not len(sup._embeddings)


@st.composite
def system_strategy(draw):
    """A random poset Q1 and its restrictions P1, Q0 and P0, a subset of
    P1 & Q0, each holding the top 0.  P0 keeps an element of P1 & Q0 with
    chance 1/4: a small P0 reduces more of Q0, so more reductions can fail
    to persist."""
    q1 = draw(random_poset_strategy())
    flags = [(True, True, True)] + [
        draw(st.tuples(st.booleans(), st.booleans(), st.integers(0, 3).map(lambda k: k == 0)))
        for _ in q1.elements[1:]
    ]
    p1 = [e for e, (in_p1, _, _) in zip(q1.elements, flags) if in_p1]
    q0 = [e for e, (_, in_q0, _) in zip(q1.elements, flags) if in_q0]
    p0 = [e for e, (in_p1, in_q0, in_p0) in zip(q1.elements, flags) if in_p1 and in_q0 and in_p0]
    return CorrectSystem(q1.restrict(p0), q1.restrict(p1), q1.restrict(q0), q1)


@settings(max_examples=150, deadline=None)
@given(system_strategy())
@example(persistence_system())
def test_persistence_matches_is_reduction(s):
    """Once the four inclusions are complete embeddings, the persistence
    failures are exactly the pairs (p, q) of P0 x Q0, in row-major order
    and at most 8, where p reduces q within <P0, Q0> but not within
    <P1, Q1>.  Random systems rarely fail, so `persistence_system`, which
    does, is always among the examples."""
    rep = check_correct_system(s)
    pairs = ((s.p0, s.p1), (s.p0, s.q0), (s.p1, s.q1), (s.q0, s.q1))
    assume(all(check_complete_embedding_posets(sub, sup).ok for sub, sup in pairs))
    expected = [
        ("reduction-not-persistent", p, q)
        for p in s.p0.elements for q in s.q0.elements
        if is_reduction(s.p0, s.q0, p, q) and not is_reduction(s.p1, s.q1, p, q)
    ]
    assert rep.failures == expected[:8]
