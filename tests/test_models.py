"""Borel-poset model validation: the built-ins, the documented truncation
pathology, nice subposets and the linked/centered checks."""

import dataclasses
import itertools

import numpy as np
import pytest

from finforce.models import (
    AdmissibleFilter,
    ModelViolation,
    check_nice_subposet,
    cohen,
    ed,
    ed_naive,
    element_label,
    parse_element_label,
    validate_borel_model,
)
from reference import filter_of


class TestCohen:
    def test_validates(self, cohen22):
        assert validate_borel_model(cohen22) == []

    def test_shape(self, cohen22):
        assert len(cohen22.poset.elements) == 7
        assert len(cohen22.generic_space) == 4
        assert cohen22.poset.top == ()

    def test_e_is_prefix(self, cohen22):
        assert cohen22.E((0, 1), (0,))
        assert not cohen22.E((0, 1), (1,))
        assert cohen22.E((0, 1), ())

    def test_admissible_are_upsets_of_full_strings(self, cohen22):
        for f in cohen22.admissible:
            assert f.members == cohen22.poset.upset(f.value)

    def test_centered_partition(self, cohen22):
        assert cohen22.centered


class TestEd:
    def test_validates(self, ed22):
        assert validate_borel_model(ed22) == []

    def test_shape(self, ed22):
        # stems up to length two times all sets of length-two functions
        assert len(ed22.poset.elements) == 7 * 16
        assert len(ed22.generic_space) == 4

    def test_order_clause(self, ed22):
        f11 = frozenset({(1, 1)})
        # growing the stem must avoid every function in F on new positions
        assert ed22.poset.leq(((0, 0), f11), ((), f11))
        assert not ed22.poset.leq(((0, 1), f11), ((), f11))
        # F only grows
        assert not ed22.poset.leq(((0, 0), frozenset()), ((), f11))

    def test_e_clause(self, ed22):
        f11 = frozenset({(1, 1)})
        assert ed22.E((0, 0), ((), f11))
        assert not ed22.E((1, 1), ((), f11))
        assert not ed22.E((0, 1), ((), f11))

    def test_admissible_filters_are_e_filters(self, ed22):
        for f in ed22.admissible:
            assert f.members == filter_of(ed22, f.value)

    def test_building_calls_no_relation(self, monkeypatch):
        """ed is built from its tables alone; only validation calls E."""
        from finforce import models

        calls = []
        real = models._ed_relation

        def counted(k):
            relation = real(k)
            return lambda z, cond: calls.append(z) or relation(z, cond)

        monkeypatch.setattr(models, "_ed_relation", counted)
        model = models.ed(2, 2)
        assert calls == []
        assert validate_borel_model(model) == []
        assert len(calls) == 4 + 4 * 112

    def test_minimal_elements_include_premature_stems(self, ed22):
        f_all = frozenset((a, b) for a in (0, 1) for b in (0, 1))
        minimals = set(ed22.poset.minimal_elements())
        assert ((), f_all) in minimals
        assert ((0,), f_all) in minimals
        assert len(minimals) == 7

    def test_centered_blocks_by_stem(self, ed22):
        for block in ed22.linked_partition:
            stems = {p[0] for p in block}
            assert len(stems) == 1


def _ed_leq(strong, weak) -> bool:
    """The paper's ed order, pair by pair: (s2, f2) <= (s1, f1) iff s2
    extends s1, f2 contains f1, and on the positions s2 adds no function of
    f1 agrees with s2."""
    (s2, f2), (s1, f1) = strong, weak
    if s2[: len(s1)] != s1 or not (f1 <= f2):
        return False
    return all(s2[i] != x[i] for i in range(len(s1), len(s2)) for x in f1)


def _cohen_leq(s, t) -> bool:
    return s[: len(t)] == t


def _strings(k, m):
    return [s for n in range(k + 1) for s in itertools.product(range(m), repeat=n)]


def _ed_elements(k, m):
    funcs = sorted(itertools.product(range(m), repeat=k))
    fsets = [frozenset(c) for r in range(len(funcs) + 1)
             for c in itertools.combinations(funcs, r)]
    return [(s, f) for s in _strings(k, m) for f in fsets]


def _oracle_matrix(elements, leq):
    return np.array([[leq(a, b) for b in elements] for a in elements], dtype=bool)


ED_SIZES = [(1, 2), (2, 2), (1, 3)]
COHEN_SIZES = [(k, m) for k in (1, 2, 3) for m in (2, 3)]


class TestOrderOracle:
    """The built orders equal the per-pair definitions, cell for cell and in
    element order."""

    @pytest.mark.parametrize("build", [ed, ed_naive], ids=["ed", "ed_naive"])
    @pytest.mark.parametrize("k, m", ED_SIZES)
    def test_ed(self, build, k, m):
        poset = build(k, m).poset
        elements = _ed_elements(k, m)
        assert list(poset.elements) == elements
        assert np.array_equal(poset.leq_matrix, _oracle_matrix(elements, _ed_leq))

    @pytest.mark.parametrize("k, m", COHEN_SIZES)
    def test_cohen(self, k, m):
        poset = cohen(k, m).poset
        elements = _strings(k, m)
        assert list(poset.elements) == elements
        assert np.array_equal(poset.leq_matrix, _oracle_matrix(elements, _cohen_leq))

    @pytest.mark.parametrize("k, m", ED_SIZES)
    def test_ed_validates(self, k, m):
        assert validate_borel_model(ed(k, m)) == []

    @pytest.mark.parametrize("k, m", COHEN_SIZES)
    def test_cohen_validates(self, k, m):
        assert validate_borel_model(cohen(k, m)) == []


class TestEdNaivePathology:
    """The naive genericity recipe (up-sets of all minimal elements) fails
    the E-characterization under truncation; the first witness is pinned."""

    def test_fails_validation(self):
        violations = validate_borel_model(ed_naive(2, 2))
        assert violations
        kinds = {v.check for v in violations}
        assert "E-characterization" in kinds

    def test_pinned_witness(self):
        violations = [
            v for v in validate_borel_model(ed_naive(2, 2))
            if v.check == "E-characterization"
        ]
        first = violations[0]
        eta, p = first.witness
        # the up-set of ((), F_all) with padded eta (0,0) contains ((), {00})
        # even though E((0,0), ((), {00})) is false
        assert eta == (0, 0)
        assert p == ((), frozenset({(0, 0)}))

    def test_good_ed_differs_only_in_admissible(self, ed22):
        naive = ed_naive(2, 2)
        assert len(naive.admissible) == 7
        assert len(ed22.admissible) == 4


class TestNiceSubposet:
    def test_full_poset_is_nice(self, ed22):
        assert check_nice_subposet(ed22, ed22.poset.elements, ed22.generic_space) == []

    def test_top_alone_is_nice(self, ed22):
        assert check_nice_subposet(ed22, [ed22.poset.top], ed22.generic_space) == []

    def test_cohen_halftree_subposet(self, cohen22):
        q = [(), (0,), (0, 0), (0, 1)]
        assert check_nice_subposet(cohen22, q, [(0, 0), (0, 1)]) == []

    def test_cohen_like_subposet_of_ed(self, ed22):
        q = [e for e in ed22.poset.elements if not e[1]]
        assert check_nice_subposet(ed22, q, ed22.generic_space) == []

    def test_missing_branch_reported(self, ed22):
        q = [((), frozenset()), ((0,), frozenset())]
        problems = check_nice_subposet(ed22, q, ed22.generic_space)
        assert any(p.check == "nice-antichain" for p in problems)

    def test_empty_z_rejected(self, ed22):
        with pytest.raises(ValueError):
            check_nice_subposet(ed22, ed22.poset.elements, [])


class TestFilterAudit:
    """Each filter defect maps to its violation kind: a declared set that is
    not a filter, or a declared filter above a non-minimal element; an
    E-filter of a subposet likewise."""

    @pytest.mark.parametrize("members, expect", [
        (set(), ["filter"]),
        ({(), (0,), (1,), (0, 0), (1, 1)}, ["filter"]),
        ({(0,), (0, 0)}, ["filter"]),
        ({(), (0,)}, ["antichain-coverage", "E-characterization"]),
    ], ids=["empty", "two-bottoms", "top-missing", "non-minimal-upset"])
    def test_declared_filter(self, cohen22, members, expect):
        declared = (AdmissibleFilter(frozenset(members), (0, 0)),)
        model = dataclasses.replace(cohen22, admissible=declared)
        assert [v.check for v in validate_borel_model(model)] == expect

    @pytest.mark.parametrize("relation, expect", [
        (lambda z, s: False, "nice-filter"),
        (lambda z, s: s != (), "nice-filter"),
        (lambda z, s: z[: len(s)] == s and len(s) < 2, "nice-antichain"),
    ], ids=["empty", "top-missing", "non-minimal-upset"])
    def test_e_filter_of_subposet(self, cohen22, relation, expect):
        model = dataclasses.replace(cohen22, relation=relation)
        problems = check_nice_subposet(model, model.poset.elements, [(0, 0)])
        assert [(v.check, v.witness) for v in problems] == [(expect, ((0, 0),))]


class TestLinkedValidation:
    def test_bad_block_reported(self, cohen22):
        import finforce.models as m

        bad = m.BorelPosetModel(
            name="bad",
            poset=cohen22.poset,
            generic_space=cohen22.generic_space,
            relation=cohen22.relation,
            admissible=cohen22.admissible,
            linked_partition=(frozenset(cohen22.poset.elements),),
            centered=False,
        )
        violations = validate_borel_model(bad)
        assert any(v.check == "linked" for v in violations)

    def test_witness_order(self, cohen22):
        """Each incompatible pair of a block is one violation, members in
        poset order and pairs in combinations order."""
        block = frozenset({(0, 0), (1,), (0,)})
        rest = tuple(frozenset([p]) for p in cohen22.poset.elements if p not in block)
        model = dataclasses.replace(
            cohen22, linked_partition=(block,) + rest, centered=False
        )
        assert validate_borel_model(model) == [
            ModelViolation("linked", ((0,), (1,)), "block members 0, 1 incompatible"),
            ModelViolation("linked", ((1,), (0, 0)), "block members 1, 00 incompatible"),
        ]

    def test_centered_block_needs_a_common_lower_bound(self, cohen22):
        """Two incompatible stems in one block of a centered model have no
        common lower bound: the block is neither linked nor centered."""
        block = frozenset({(0,), (1,)})
        rest = tuple(frozenset([p]) for p in cohen22.poset.elements if p not in block)
        model = dataclasses.replace(cohen22, linked_partition=(block,) + rest, centered=True)
        assert validate_borel_model(model) == [
            ModelViolation("linked", ((0,), (1,)), "block members 0, 1 incompatible"),
            ModelViolation("centered", ((0,), (1,)), "block has no common lower bound"),
        ]

    def test_partition_must_cover(self, cohen22):
        import finforce.models as m

        bad = m.BorelPosetModel(
            name="bad",
            poset=cohen22.poset,
            generic_space=cohen22.generic_space,
            relation=cohen22.relation,
            admissible=cohen22.admissible,
            linked_partition=(frozenset({()}),),
            centered=True,
        )
        violations = validate_borel_model(bad)
        assert any("cover" in v.message for v in violations)


class TestLabels:
    @pytest.mark.parametrize(
        "element",
        [
            (),
            (0, 1),
            ((), frozenset()),
            ((0, 1), frozenset({(1, 1), (0, 0)})),
        ],
    )
    def test_round_trip(self, element):
        assert parse_element_label(element_label(element)) == element


@pytest.mark.parametrize("build", [cohen, ed])
@pytest.mark.parametrize("k, m", [(1, 2), (1, 3), (2, 3), (3, 2)])
def test_filters_from_the_tables_are_e_filters(build, k, m):
    """The admissible filters read off the order's tables are the E-filters
    of the length-k generics, one per generic, in order."""
    model = build(k, m)
    assert [f.value for f in model.admissible] == list(model.generic_space)
    assert model.generic_space == tuple(itertools.product(range(m), repeat=k))
    for f in model.admissible:
        assert f.members == filter_of(model, f.value)
