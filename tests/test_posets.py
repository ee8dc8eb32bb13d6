"""Finite poset primitives: compatibility, antichains, generic filters,
complete embeddings and correct systems."""

import gc
import tracemalloc
import weakref
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finforce import fixtures, posets
from finforce.iteration import EMPTY_CONDITION
from finforce.models import cohen, ed
from finforce.posets import (
    CorrectGroup,
    CorrectSystem,
    FinitePoset,
    GroupedSystem,
    _embedding,
    admissible_filters_upsets,
    check_complete_embedding_posets,
    check_correct_system,
    compatible,
    filter_defect,
    memoized,
    _transpose,
    pack_rows,
    unpack_rows,
)
from finforce.templates import SUBSETS, lattice
from finforce.verify import run_checks
from reference import is_maximal_antichain, is_reduction, maximal_antichains


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
            FinitePoset(("a", "b"), pack_rows(bad), "a")


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


def random_order_strategy():
    """The closed order relation of a random poset on range(n) with top 0."""
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
        return leq

    return build()


def random_poset_strategy():
    return random_order_strategy().map(lambda leq: FinitePoset(tuple(range(len(leq))), pack_rows(leq.T), 0))


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


@settings(max_examples=60, deadline=None)
@given(random_poset_strategy(), st.data())
def test_lower_bounds_and_restrictions_match_the_order(p, data):
    """A set has a common lower bound exactly when some element lies below
    each member, and a restriction keeps the order between the kept
    elements, both read from the up rows alone."""
    items = data.draw(st.lists(st.sampled_from(p.elements), unique=True))
    bounded = any(all(p.leq_matrix[r, p.index[e]] for e in items) for r in range(len(p)))
    assert posets.common_lower_bound_exists(p, items) == bounded
    q = p.restrict(set(items) | {p.top})
    assert q.elements == tuple(e for e in p.elements if e in items or e == p.top)
    for a in q.elements:
        for b in q.elements:
            assert q.leq(a, b) == p.leq(a, b)


@pytest.mark.parametrize("n", [65, 200])
def test_restriction_matches_the_order_on_multiword_rows(n):
    p = FinitePoset(tuple(range(n)), pack_rows(_random_order(n, n).T), 0)
    rng = np.random.default_rng(n)
    keep = [e for e in range(n) if e == 0 or rng.random() < 0.6]
    ids = np.array(keep)
    assert (p.restrict(keep).leq_matrix == p.leq_matrix[np.ix_(ids, ids)]).all()


class _Owner:
    def __init__(self):
        self._memo = defaultdict(dict)
        self.calls = []

    @memoized
    def f(self, x, flag):
        self.calls.append(("f", x, flag))
        return (x, flag)

    @memoized
    def g(self, x, flag):
        self.calls.append(("g", x, flag))
        return [x, flag]


class TestMemoized:
    """`memoized`, the one memo layer: one dict per function on the owner."""

    def test_functions_and_owners_do_not_share_entries(self):
        o, other = _Owner(), _Owner()
        assert o.f(1, False) == (1, False)
        assert o.g(1, False) == [1, False]
        assert o.calls == [("f", 1, False), ("g", 1, False)]
        assert dict(o._memo) == {_Owner.f: {(1, False): (1, False)}, _Owner.g: {(1, False): [1, False]}}
        other.f(1, False)
        assert other.calls == [("f", 1, False)]

    def test_wrapped_is_the_uncached_body(self):
        o = _Owner()
        first = o.g(2, False)
        assert o.g(2, False) is first
        again = _Owner.g.__wrapped__(o, 2, False)
        assert again == first and again is not first
        assert o.calls == [("g", 2, False)] * 2
        assert len(o._memo[_Owner.g]) == 1

    def test_record_fills_the_entry_a_call_reads(self):
        o = _Owner()
        _Owner.f.record(o, (1, False), "recorded")
        _Owner.f.record(o, (1, False), "later")
        assert o.f(1, False) == "recorded"
        assert not o.calls

    def test_bad_calls_raise_and_store_nothing(self):
        o = _Owner()
        for call in (lambda: o.f(1), lambda: o.f(1, True, 3), lambda: o.f(1, flag=True)):
            with pytest.raises(TypeError):
                call()
        assert not o._memo[_Owner.f] and not o.calls

    def test_defaults_are_refused(self):
        """The key is the positional arguments, so a default, which would
        give one call two keys, is refused when the function is decorated."""
        with pytest.raises(TypeError, match="has defaults"):
            memoized(lambda owner, x, flag=False: x)
        with pytest.raises(TypeError, match="has defaults"):
            memoized(lambda owner, x, *, flag=False: x)


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
    assert rep.failures == _brute_force_failures(s)


def _brute_force_failures(s: CorrectSystem) -> list[tuple]:
    """The failures of one system: those of its four embeddings, tagged,
    else the first 8 pairs (p, q) of P0 x Q0, in row-major order, where p
    reduces q within <P0, Q0> but not within <P1, Q1> (`is_reduction`)."""
    pairs = {"P0<P1": (s.p0, s.p1), "P0<Q0": (s.p0, s.q0), "P1<Q1": (s.p1, s.q1), "Q0<Q1": (s.q0, s.q1)}
    failures = [(tag,) + f for tag, (a, b) in pairs.items() for f in check_complete_embedding_posets(a, b).failures]
    if failures:
        return failures
    return [
        ("reduction-not-persistent", p, q)
        for p in s.p0.elements for q in s.q0.elements
        if is_reduction(s.p0, s.q0, p, q) and not is_reduction(s.p1, s.q1, p, q)
    ][:8]


@st.composite
def group_strategy(draw):
    """A random Q1 with several P1 and several Q0 over one P0: the P1 and
    Q0 of a drawn system (`system_strategy`) and up to two more of each,
    restrictions of Q1 that hold P0, paired every way in a drawn order."""
    s = draw(system_strategy())

    def more():
        keep = draw(st.lists(st.booleans(), min_size=len(s.q1), max_size=len(s.q1)))
        return s.q1.restrict([e for e, k in zip(s.q1.elements, keep) if k or e in s.p0])

    p1s = [s.p1] + [more() for _ in range(draw(st.integers(0, 2)))]
    q0s = [s.q0] + [more() for _ in range(draw(st.integers(0, 2)))]
    return CorrectGroup(s.p0, s.q1, draw(st.permutations([(p1, q0) for p1 in p1s for q0 in q0s])))


def persistence_group() -> CorrectGroup:
    """`persistence_system` among systems that pass: its P1 and its Q0
    each paired with P0 as well, and P0 with P0."""
    s = persistence_system()
    return CorrectGroup(s.p0, s.q1, [(p1, q0) for p1 in (s.p0, s.p1) for q0 in (s.q0, s.p0)])


def two_p1_group() -> CorrectGroup:
    """Q1 on {0..4}: 0 on top, 1 below it, 2 and 3 below 1, 4 below 3, and
    P0 = {0}.  0 reduces 2 and 3 within <P0, Q0> for Q0 = {0, 2, 3}.
    With P1 = {0, 2, 3} both are lost, since 2 and 3 both extend 0 in P1
    and are incompatible; with P1 = {0, 1} neither is.  The broken P1
    comes first, so a P1 that read another's lost reductions would fail
    the second system too."""
    q1 = FinitePoset.from_relation(range(5), [(2, 1), (3, 1), (4, 1), (4, 3)] + [(e, 0) for e in range(5)], top=0)
    q0 = q1.restrict({0, 2, 3})
    return CorrectGroup(q1.restrict({0}), q1, [(q1.restrict({0, 2, 3}), q0), (q1.restrict({0, 1}), q0)])


def _reports_of(group: CorrectGroup) -> list:
    return [check_correct_system(GroupedSystem(group, s)) for s in range(len(group.systems))]


def test_one_broken_system_among_passing_ones():
    reports = _reports_of(persistence_group())
    assert [r.ok for r in reports] == [True, True, False, True]
    assert reports[2].failures == TestSharedEmbeddings.EXPECTED
    assert [r.ok for r in _reports_of(two_p1_group())] == [False, True]


@settings(max_examples=100, deadline=None)
@given(group_strategy())
@example(persistence_group())
@example(two_p1_group())
def test_group_matches_one_system_brute_force(group):
    """The systems of a group get the verdict and failures of each system
    alone, by the brute force of `_brute_force_failures`."""
    expected = [_brute_force_failures(CorrectSystem(group.p0, p1, q0, group.q1)) for p1, q0 in group.systems]
    reports = _reports_of(group)
    assert [r.failures for r in reports] == expected
    assert [r.ok for r in reports] == [not e for e in expected]


# ---------------------------------------------------------------------------
# Packed order kernels against the dense definitions, with integer products
# as the reference


def _int_product(a, b):
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


def _dense_rejection(leq):
    """The message `FinitePoset` must raise for ``leq`` (top 0), by the
    dense definitions, or None."""
    n = len(leq)
    if not np.diag(leq).all():
        return "not reflexive"
    if (_int_product(leq, leq) & ~leq).any():
        return "not transitive"
    if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
        return "not antisymmetric"
    if not leq[:, 0].all():
        return "top is not the maximum"
    return None


def _closure(leq):
    while True:
        new = leq | _int_product(leq, leq)
        if (new == leq).all():
            return leq
        leq = new


@st.composite
def relation_strategy(draw):
    """A random relation on up to 7 elements, made reflexive, transitive
    and topped (column 0 full) each with chance 3/4, so that every
    rejection and acceptance occurs."""
    n = draw(st.integers(min_value=1, max_value=7))
    leq = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), dtype=bool).reshape(n, n)
    leq &= np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), dtype=bool).reshape(n, n)
    if draw(st.integers(0, 3)):
        leq |= np.eye(n, dtype=bool)
    if draw(st.integers(0, 3)):
        leq = _closure(leq)
    if draw(st.integers(0, 3)):
        leq[:, 0] = True
    return leq


def _random_order(n, seed, density=0.05):
    """A random poset on range(n) with top 0: a closed random DAG."""
    rng = np.random.default_rng(seed)
    leq = np.triu(rng.random((n, n)) < density, 1).T | np.eye(n, dtype=bool)
    leq = _closure(leq)
    leq[:, 0] = True
    return leq


# each transitivity kernel forced, and the one the popcounts choose
TRANSITIVITY = [posets._closed_rows, posets._chains_hold, posets._transitive]


def _assert_rejection_matches(leq):
    expected = _dense_rejection(leq)
    for kernel in TRANSITIVITY:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(posets, "_transitive", kernel)
            if expected is None:
                p = FinitePoset(tuple(range(len(leq))), pack_rows(leq.T), 0)
                assert (p.leq_matrix == leq).all()
            else:
                with pytest.raises(ValueError, match=expected):
                    FinitePoset(tuple(range(len(leq))), pack_rows(leq.T), 0)


@settings(max_examples=200, deadline=None)
@given(relation_strategy())
def test_poset_rejects_exactly_the_dense_violations(leq):
    """The packed transitivity and antisymmetry checks, with either
    transitivity kernel, reject exactly the matrices the dense definitions
    reject, with the same first message."""
    _assert_rejection_matches(leq)


@pytest.mark.parametrize("n", [63, 64, 65, 130, 200])
def test_poset_rejection_on_multiword_rows(n):
    """Rows of more than one word: a valid order, the same order with one
    transitive cell removed, and with one cell mirrored."""
    leq = _random_order(n, n)
    _assert_rejection_matches(leq)
    i, j = next((i, j) for i, j in np.argwhere(leq) if i != j and (leq[i] & leq[:, j]).sum() > 2)
    broken = leq.copy()
    broken[i, j] = False
    assert _dense_rejection(broken) == "not transitive"
    _assert_rejection_matches(broken)
    mirrored = leq.copy()
    mirrored[j, i] = True
    assert _dense_rejection(mirrored) in ("not transitive", "not antisymmetric")
    _assert_rejection_matches(mirrored)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.data())
def test_from_relation_is_the_closure(n, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    leq = np.eye(n, dtype=bool)
    for a, b in pairs:
        leq[a, b] = True
    leq[:, 0] = True
    closed = _closure(leq)
    expected = _dense_rejection(closed)
    relation = pairs + [(e, 0) for e in range(n)]
    if expected is None:
        p = FinitePoset.from_relation(range(n), relation, top=0)
        assert (p._up == pack_rows(closed)).all()
        assert (p.leq_matrix == closed).all()
    else:
        with pytest.raises(ValueError, match=expected):
            FinitePoset.from_relation(range(n), relation, top=0)


@pytest.mark.parametrize("n", [3, 64, 65])
def test_poset_rejects_malformed_rows(n):
    """The constructor takes packed rows only: a dense matrix, rows of the
    wrong width or count, and rows with a padding bit set are refused."""
    leq = _random_order(n, n)
    FinitePoset(tuple(range(n)), pack_rows(leq.T), 0)
    words = pack_rows(leq.T)
    for bad in (leq, words.astype(np.int64), words[:, :0], np.hstack([words, words]), words[:-1]):
        with pytest.raises(ValueError, match="do not pack"):
            FinitePoset(tuple(range(n)), bad, 0)
    if n % 64:
        padded = words.copy()
        padded[1, -1] |= np.uint64(1) << np.uint64(63)
        with pytest.raises(ValueError, match="padding bits"):
            FinitePoset(tuple(range(n)), padded, 0)


def test_pack_round_trip():
    rng = np.random.default_rng(3)
    for shape in [(1, 1), (3, 64), (5, 65), (70, 130), (2, 0)]:
        m = rng.random(shape) < 0.4
        words = pack_rows(m)
        assert words.dtype == np.uint64 and words.shape == (shape[0], -(-shape[1] // 64))
        assert (unpack_rows(words, shape[1]) == m).all()
        assert not unpack_rows(words)[:, shape[1]:].any()  # zero padding
        assert (_transpose(words, shape[1]) == pack_rows(np.ascontiguousarray(m.T))).all()


def _compat_reference(p):
    return _int_product(p.leq_matrix.T, p.leq_matrix)


def _assert_cells_match(p, leq):
    """Every order and compatibility query of p agrees with the closed
    relation ``leq`` and its integer product."""
    compat = _int_product(leq.T, leq)
    assert (p.leq_matrix == leq).all() and (p.compat_matrix == compat).all()
    for i, a in enumerate(p.elements):
        assert p.upset(a) == {p.elements[j] for j in np.flatnonzero(leq[i])}
        assert p.downset(a) == {p.elements[j] for j in np.flatnonzero(leq[:, i])}
        for j, b in enumerate(p.elements):
            assert p.leq(a, b) == leq[i, j] and compatible(p, a, b) == compat[i, j]


@settings(max_examples=80, deadline=None)
@given(random_order_strategy())
def test_compat_matches_integer_product(leq):
    _assert_cells_match(FinitePoset(tuple(range(len(leq))), pack_rows(leq.T), 0), leq)


@pytest.mark.parametrize("n", [64, 65, 200])
def test_compat_matches_integer_product_on_multiword_rows(n, monkeypatch):
    leq = _random_order(n, n + 1)
    p = FinitePoset(tuple(range(n)), pack_rows(leq.T), 0)
    monkeypatch.setattr(posets, "_BLOCK_WORDS", 7)  # many gather blocks
    _assert_cells_match(p, leq)


def _assert_reductions_match(sub, sup):
    red = _embedding(sub, sup)[2]
    if red is None:
        return False
    got = unpack_rows(red, len(sup))
    expected = np.array([[is_reduction(sub, sup, r, q) for q in sup.elements] for r in sub.elements])
    assert (got == expected).all()
    return True


@settings(max_examples=150, deadline=None)
@given(system_strategy())
def test_reduction_matrix_matches_is_reduction(s):
    """Every cell of every cached reduction matrix of the four pairs (and of
    P0 < Q1) is `is_reduction` of that cell."""
    for sub, sup in ((s.p0, s.p1), (s.p0, s.q0), (s.p1, s.q1), (s.q0, s.q1), (s.p0, s.q1)):
        _assert_reductions_match(sub, sup)


def test_reduction_matrix_on_multiword_rows():
    n = 150
    sup = FinitePoset(tuple(range(n)), pack_rows(_random_order(n, 9, density=0.03).T), 0)
    rng = np.random.default_rng(5)
    minimal = set(sup.minimal_elements())  # kept, so compatibility is too
    sub = sup.restrict([e for e in range(n) if e == 0 or e in minimal or rng.random() < 0.5])
    assert _assert_reductions_match(sub, sup)


def _dense_system_failures(s):
    """Correct-system failures by the dense definition: reduction matrices
    as integer products, and persistence as the P1 < Q1 matrix gathered at
    the rows of P0 and the columns of Q0."""
    def reductions(sub, sup):
        ids = [sup.index[e] for e in sub.elements]
        return ~_int_product(sub.leq_matrix.T, ~_compat_reference(sup)[ids]), ids

    pairs = {"P0<P1": (s.p0, s.p1), "P0<Q0": (s.p0, s.q0), "P1<Q1": (s.p1, s.q1), "Q0<Q1": (s.q0, s.q1)}
    failures = [(tag,) + f for tag, (a, b) in pairs.items() for f in check_complete_embedding_posets(a, b).failures]
    if failures:
        return failures
    red0, _ = reductions(s.p0, s.q0)
    red1, _ = reductions(s.p1, s.q1)
    p_ids = [s.p1.index[e] for e in s.p0.elements]
    q_ids = [s.q1.index[e] for e in s.q0.elements]
    broken = np.argwhere(red0 & ~red1[np.ix_(p_ids, q_ids)])
    return [("reduction-not-persistent", s.p0.elements[i], s.q0.elements[j]) for i, j in broken[:8]]


@settings(max_examples=150, deadline=None)
@given(system_strategy())
@example(persistence_system())
def test_correct_system_verdicts_match_dense_definition(s):
    rep = check_correct_system(s)
    expected = _dense_system_failures(s)
    assert rep.failures == expected and rep.ok == (not expected)


def test_correct_system_verdicts_on_multiword_rows():
    n = 140
    q1 = FinitePoset(tuple(range(n)), pack_rows(_random_order(n, 21, density=0.04).T), 0)
    rng = np.random.default_rng(8)
    minimal = q1.minimal_elements()
    outcomes = set()
    for keep, p0_share in ((0.0, 0.5), (0.5, 0.5), (1.0, 0.5), (1.0, 1.0), (1.0, 0.0), (1.0, 0.0)):
        # keeping the minimal elements keeps compatibility, so the four
        # embeddings pass and persistence is compared; a P0 of the top
        # alone reduces everything within <P0, Q0>, so persistence fails
        flags = rng.random((n, 3)) < (0.8, 0.8, p0_share / 2)
        flags[0] = True
        flags[minimal, :2] |= rng.random((len(minimal), 2)) < keep
        flags[minimal, 2] |= rng.random(len(minimal)) < p0_share
        p1 = [e for e in range(n) if flags[e, 0]]
        q0 = [e for e in range(n) if flags[e, 1]]
        p0 = [e for e in range(n) if flags[e].all()]
        s = CorrectSystem(q1.restrict(p0), q1.restrict(p1), q1.restrict(q0), q1)
        failures = check_correct_system(s).failures
        assert failures == _dense_system_failures(s)
        outcomes.add(failures[0][0] if failures else "ok")
    assert outcomes >= {"P0<P1", "reduction-not-persistent", "ok"}


# ---------------------------------------------------------------------------
# Order kernels on the subset lattice of finite support iterations


def _lattice(it):
    """P*|A for every subset A of the iteration's points."""
    return [it.build_poset(a) for (a,) in lattice(it.template.points, SUBSETS)]


def test_kernels_agree_on_single_deletions_from_the_fsi_order(cohen_fsi):
    """Deleting one cell a <= c that some third element lies between breaks
    transitivity: both kernels, with whole blocks and with blocks of a few
    rows, accept the k = 4 FSI order and reject each of 30 such deletions,
    a third of them at the first and a third at the last bit of a word."""
    it = cohen_fsi(4)
    p = it.build_poset(it.template.all_points())
    leq = p.leq_matrix
    between = (leq.astype(np.int64) @ leq.astype(np.int64)) > 2  # a <= b <= c with b not a, c
    cells = np.argwhere(leq & between)
    rng = np.random.default_rng(4)
    # a third of them clear the first, a third the last bit of a word
    picked = np.concatenate([rng.permutation(cells[cells[:, 0] % 64 == bit])[:10] for bit in (0, 63)]
                            + [rng.permutation(cells)[:10]])
    assert len(picked) == 30
    for kernel in (posets._closed_rows, posets._chains_hold):
        for cap in (posets._BLOCK_WORDS, 8):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(posets, "_transitive", kernel)
                mp.setattr(posets, "_BLOCK_WORDS", cap)
                FinitePoset(p.elements, pack_rows(leq.T), p.top)
                for a, c in picked:
                    broken = leq.copy()
                    broken[a, c] = False
                    assert _dense_rejection(broken) == "not transitive"
                    with pytest.raises(ValueError, match="not transitive"):
                        FinitePoset(p.elements, pack_rows(broken.T), p.top)


def test_popcounts_choose_chains_from_k6_on_the_fsi_ladder(cohen_fsi, monkeypatch):
    """The predicted costs keep the packed kernel for the FSI orders of
    k <= 5 and test chains from k = 6 on: 16^k tests against
    9^k * 4^k / 64 words."""
    chosen = {}
    for name in ("_closed_rows", "_chains_hold"):
        real = getattr(posets, name)
        monkeypatch.setattr(posets, name, lambda up, down, real=real, name=name: chosen.setdefault(len(down), name)
                            and real(up, down))
    for k in (4, 5, 6):
        it = cohen_fsi(k)
        it.build_poset(it.template.all_points())
    assert [chosen[4**k] for k in (4, 5, 6)] == ["_closed_rows", "_closed_rows", "_chains_hold"]


def _kernel_rows(lattice):
    """The compat rows of each poset of a lattice and the reduction matrix
    of each nested pair, every pair embedding completely."""
    out = []
    for sup in lattice:
        out.append(pack_rows(sup.compat_matrix))
        for sub in lattice:
            if set(sub.elements) <= set(sup.elements):
                assert check_complete_embedding_posets(sub, sup).ok
                out.append(_embedding(sub, sup)[2])
    return out


@pytest.mark.parametrize("cap", [None, 1 << 12, 16])
def test_gathered_blocks_stay_within_the_table_and_the_cap(cap, cohen_fsi, monkeypatch):
    """No block gathers more than `posets._budget`: min(the table's words,
    the cap), or 1/32 of the cap when the table is smaller, across
    validation, compat rows and the reduction matrices of every nested pair
    of the k = 4 FSI lattice.  A cap of 4096 words makes the table the
    bound of its largest posets, and one of a few rows splits the widest
    rows into pieces; both give the same rows as the default blocks."""
    expected = _kernel_rows(_lattice(cohen_fsi(4)))
    if cap is not None:
        monkeypatch.setattr(posets, "_BLOCK_WORDS", cap)
    gathered = []
    real = posets._reduce_segments

    def spy(op, table, index, counts):
        bound = min(max(table.size, posets._BLOCK_WORDS // 32), posets._BLOCK_WORDS)
        gathered.append((len(index) * table.shape[1], bound, table.size))
        return real(op, table, index, counts)

    monkeypatch.setattr(posets, "_reduce_segments", spy)
    got = _kernel_rows(_lattice(cohen_fsi(4)))
    assert len(got) == len(expected) and all((a == b).all() for a, b in zip(got, expected))
    assert gathered and all(words <= bound for words, bound, _ in gathered)
    if cap == 1 << 12:
        assert any(bound == size < cap for _, bound, size in gathered)
    if cap == 16:
        assert any(words == bound for words, bound, _ in gathered)


def test_validating_the_k5_order_allocates_at_most_twice_its_rows(cohen_fsi):
    """Validation of the k = 5 P*|L (1024 conditions) allocates at most
    twice its packed up and down rows, four times the up rows it keeps: no
    kernel gathers more than the table it reads."""
    it = cohen_fsi(5)
    a = it.template.all_points()
    elements = it.members(a)
    down = it._order_matrix(a, elements)
    tracemalloc.start()
    try:
        p = FinitePoset(elements, down, EMPTY_CONDITION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * p._up.nbytes


def test_building_the_k6_order_holds_its_rows_and_a_block_of_cells(cohen_fsi, monkeypatch):
    """Validation of the k = 6 P*|L (4096 conditions, 2 MiB of up rows),
    in blocks of 4096 words, stays under 1.75 times the up rows it keeps:
    the antisymmetry count, like the transitivity kernels, reads the up and
    down rows a block at a time instead of forming a third table."""
    it = cohen_fsi(6)
    a = it.template.all_points()
    elements = it.members(a)
    down = it._order_matrix(a, elements)
    monkeypatch.setattr(posets, "_BLOCK_WORDS", 1 << 12)
    tracemalloc.start()
    try:
        p = FinitePoset(elements, down, EMPTY_CONDITION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * p._up.nbytes


@pytest.mark.parametrize("doc", ["fsi4", "case2"])
def test_identical_pair_matches_a_copy(doc, cohen_fsi, monkeypatch):
    """A poset checked against itself reads no cells, yet gives what a
    distinct poset with the same rows gives: the report, the index array
    and the reduction matrix."""
    compared = []
    real = posets._compare_cells
    monkeypatch.setattr(posets, "_compare_cells", lambda sub, sup, *rest: compared.append((sub, sup)) or real(sub, sup, *rest))
    for p in _lattice(cohen_fsi(4) if doc == "fsi4" else fixtures.case2_fixture()[0]):
        q = FinitePoset(p.elements, _transpose(p._up, len(p)), p.top)
        same, copy = _embedding(p, p), _embedding(p, q)
        assert same[0] == copy[0] and same[0].ok
        assert (same[1] == copy[1]).all() and (same[2] == copy[2]).all()
        assert compared[-1] == (p, q)
    assert all(sub is not sup for sub, sup in compared)


@pytest.mark.parametrize("doc", ["fsi4", "case2"])
def test_a_poset_keeps_one_order_table(doc, cohen_fsi, monkeypatch):
    """After all six checks, every poset built, model posets whose `leq`
    the stage orders read included, holds no down rows, no compat rows and
    no dense n x n matrix: its only packed tables are its up rows and its
    minimal-below rows, which take a word per 64 minimal elements, not per
    64 elements."""
    built = []
    init = FinitePoset.__init__
    monkeypatch.setattr(FinitePoset, "__init__", lambda self, *args: init(self, *args) or built.append(self))
    it, names = (cohen_fsi(4), None) if doc == "fsi4" else fixtures.case2_fixture()
    assert all(r.passed for r in run_checks(it, names))
    narrow = 0
    for p in built:
        n, m = len(p), int(p._minimal.sum())
        arrays = {name: v for name, v in vars(p).items() if isinstance(v, np.ndarray)}
        tables = {name: v.shape for name, v in arrays.items() if v.dtype == np.uint64}
        assert tables.keys() <= {"_up", "_minimal_below"} and tables["_up"] == (n, -(-n // 64))
        assert tables.get("_minimal_below", (n, -(-m // 64))) == (n, -(-m // 64))
        assert not any(v.dtype == bool and v.shape == (n, n) for v in arrays.values())
        narrow += "_minimal_below" in tables and -(-m // 64) < -(-n // 64)
    assert narrow
