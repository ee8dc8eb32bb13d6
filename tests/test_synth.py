"""The synthesizer: case structure, canonical choices, entry tables, the
finite-support pathway, and fault-injection sanity."""

import pytest

from finforce.codes import (
    TRUE,
    AndNode,
    BitAtom,
    EAtom,
    NotNode,
    OrNode,
    eval_code,
    eval_fcode_detailed,
    fold_true,
    free_components,
)
from finforce.history import (
    enumerate_points,
    history_of_condition,
    history_of_name,
    restrict_tuple,
    tuple_space,
)
from finforce.iteration import EMPTY_CONDITION, SimpleIteration, const_name, realize_filter
from finforce.names import RealName
from finforce.synth import case2_contexts, synth_E, synth_F
from finforce import verify
from finforce.templates import SUBSETS, full_powerset_template, lattice
from reference import free_components_fcode, w_of


def node_objects(code, into: dict, tables: bool = True) -> dict:
    """Every node object reachable from a code, by id; ``tables`` also
    enters the evaluation tables of E-atoms."""
    into[id(code)] = code
    if isinstance(code, (AndNode, OrNode)):
        for child in code.children:
            node_objects(child, into, tables)
    elif isinstance(code, NotNode):
        node_objects(code.child, into, tables)
    elif isinstance(code, EAtom) and tables:
        for table in code.cond.coords:
            for member, _ in table:
                node_objects(member, into, tables)
    return into


class TestCaseStructure:
    def test_empty_condition_empty_set(self, i1):
        assert synth_E(i1.iteration, frozenset(), EMPTY_CONDITION) == TRUE

    def test_c_coordinate_bit(self, i1):
        code = synth_E(i1.iteration, frozenset({"a", "b"}), i1.cond({"b": 2}))
        assert code == AndNode((TRUE, BitAtom("b", 2)))
        assert fold_true(code) == BitAtom("b", 2)

    def test_b_coordinate_e_atom(self, i1):
        code = synth_E(i1.iteration, frozenset({"a"}), i1.cond({"a": const_name((0,))}))
        assert isinstance(code, AndNode)
        sub, atom = code.children
        assert sub == TRUE
        assert isinstance(atom, EAtom) and atom.point == "a"
        (table,) = atom.cond.coords
        assert table == ((TRUE, (0,)),)

    def test_trivial_entry_yields_true_conjunct(self, i1):
        from finforce.iteration import TRIV

        code = synth_E(
            i1.iteration, frozenset(i1.template.points), i1.cond({"c": TRIV})
        )
        assert fold_true(code) == TRUE

    def test_skips_absent_maximum(self, i1):
        # a condition not mentioning c synthesizes identically over {a,b,c}
        # and {a,b}
        it = i1.iteration
        p = i1.cond({"b": 1})
        big = synth_E(it, frozenset(i1.template.points), p)
        small = synth_E(it, frozenset({"a", "b"}), p)
        assert big == small


class TestCase2:
    def test_contexts_listed(self, case2):
        it, _ = case2
        a = frozenset({"0", "2", "3"})
        q = it.members(frozenset({"0"}))[1]
        ctxs = case2_contexts(it, a, q)
        assert frozenset({"0"}) in ctxs
        assert frozenset({"0", "2"}) in ctxs
        assert frozenset({"0", "3"}) in ctxs
        assert a not in ctxs

    def test_all_choices_semantically_equal(self, case2):
        it, _ = case2
        a = frozenset({"0", "2", "3"})
        for q in it.members(a):
            space = tuple_space(it, history_of_condition(it, a, q))
            points = list(enumerate_points(space))
            base = synth_E(it, a, q)
            for choice in case2_contexts(it, a, q):
                forced = synth_E(it, choice, q)
                for pt in points:
                    assert eval_code(base, pt, strict=False) == eval_code(
                        forced, pt, strict=False
                    )

    def test_delegates_to_the_first_candidate(self, case2):
        """Where the case split delegates, the code is the memoized code over
        the first candidate, the same object."""
        it, _ = case2
        delegated = 0
        for (a,) in lattice(it.template.points, SUBSETS):
            x = it.template.order.max_of(a) if a else None
            if x is None or it.past_in(a, x) in it.template.families[x]:
                continue
            for q in it.members(a):
                candidates = case2_contexts(it, a, q)
                if candidates:
                    assert synth_E(it, a, q) is synth_E(it, candidates[0], q), (sorted(a), str(q))
                    delegated += 1
        assert delegated

    def test_fallback_on_full_domain(self, case2):
        """Conditions covering the whole deficient set have no strict
        delegation target; the factorization fallback still verifies against
        the induced filters."""
        it, _ = case2
        a = frozenset({"0", "2", "3"})
        full_dom = [q for q in it.members(a) if q.domain == a]
        assert full_dom
        for q in full_dom:
            assert case2_contexts(it, a, q) == []
            code = synth_E(it, a, q)
            space = tuple_space(it, history_of_condition(it, a, q))
            for z in it.enumerate_generics(a):
                assert it.member_of_filter(z, q) == eval_code(
                    code, restrict_tuple(z, space), strict=True
                )


class TestSharing:
    def test_canonical_codes_share_sub_codes(self, cohen_fsi):
        """The codes of P*|L at k = 5 reuse the memoized codes of their
        restrictions: 11,264 tree nodes in 1,706 objects (6,401 when each
        restriction's code was rebuilt)."""
        it = cohen_fsi(5)
        full = it.template.all_points()
        members = it.members(full)
        nodes: dict = {}
        for p in members:
            node_objects(synth_E(it, full, p), nodes)
        assert len(members) == 1024
        assert len(nodes) <= 1706


    @pytest.mark.parametrize("fixture", ["case2", "fsi3"])
    def test_equal_codes_are_one_object(self, fixture, request, monkeypatch):
        """The codes of one condition over different A that are equal are
        one object, as are equal evaluation functions of a name, so
        well_definedness evaluates no code that equals its reference: the
        identity test of `verify._compare_with` skips it."""
        it, names = request.getfixturevalue(fixture)
        for small, bigger in verify._supersets(it):
            for q in it.members(small):
                codes = [synth_E(it, a, q) for a in bigger]
                assert len({id(code) for code in codes}) == len(set(codes))
        equal_copies = []
        compare_with = verify._compare_with

        def spy(reference, batch, evaluate):
            first_difference = compare_with(reference, batch, evaluate)

            def compare(code):
                equal_copies.append(code == reference and code is not reference)
                return first_difference(code)

            return compare

        monkeypatch.setattr(verify, "_compare_with", spy)
        assert verify.verify_well_definedness(it, names).passed
        assert equal_copies and not any(equal_copies)


class TestSynthF:
    def test_constant_name(self, i1):
        name = RealName(antichains=((EMPTY_CONDITION,),), values=((9,),))
        f = synth_F(i1.iteration, frozenset(i1.template.points), name)
        pt = next(iter(enumerate_points(tuple_space(
            i1.iteration, history_of_name(i1.iteration, frozenset(i1.template.points), name)
        ))))
        vals, in_d = eval_fcode_detailed(f, pt)
        assert vals == (9,) and in_d

    def test_branch_name(self, i1):
        it = i1.iteration
        name = i1.registered_names()["n1"]
        f = synth_F(it, frozenset(i1.template.points), name)
        space = tuple_space(it, history_of_name(it, frozenset(i1.template.points), name))
        for pt in enumerate_points(space):
            vals, in_d = eval_fcode_detailed(f, pt)
            assert in_d
            assert vals == ((5,) if pt.value("a")[0] == 0 else (7,))

    def test_bit_reading_name(self, i1):
        it = i1.iteration
        name = i1.registered_names()["n2"]
        f = synth_F(it, frozenset(i1.template.points), name)
        s, bits = free_components_fcode(f)
        assert s == frozenset()
        assert bits == {"b": frozenset({1, 2})}


class TestEncodeFsi:
    def test_empty_iteration(self):
        it = SimpleIteration(full_powerset_template(()), {})
        assert it.template.points == ()
        name = RealName(antichains=((EMPTY_CONDITION,),), values=((3,),))
        f = synth_F(it, frozenset(), name)
        pt = next(iter(enumerate_points(tuple_space(it, history_of_name(it, frozenset(), name)))))
        assert eval_fcode_detailed(f, pt) == ((3,), True)

    def test_cohen_cohen_free_components(self, fsi2_cc):
        """The name reading only the second stage synthesizes to a function
        of that stage's generic real alone."""
        it, names = fsi2_cc
        f = synth_F(it, it.template.all_points(), names["stage1_bit"])
        s, bits = free_components_fcode(f)
        assert s == {"1"} and bits == {}

    def test_c_stage_w_matches_history(self, fsi2_cohen_c):
        """The characteristic-function component of the synthesized F is
        restricted to exactly the W-set the history recursion computes."""
        it, names = fsi2_cohen_c
        full = it.template.all_points()
        name = names["mixed"]
        f = synth_F(it, full, name)
        s, bits = free_components_fcode(f)
        h = history_of_name(it, full, name)
        assert bits["1"] <= h.w_map()["1"]
        t = tuple_space(it, h)
        assert frozenset(w_of(t, "1")) == h.w_map()["1"] == {1, 2}
        assert s == {"0"}
        # B stages contribute generic reals, C stages characteristic maps
        assert set(t.s_points) == {"0"} and set(t.c_points) == {"1"}


class TestFaultInjection:
    def test_flipped_bit_atom_detected(self, i1):
        """Mutating a synthesized code must surface as a mismatch against the
        induced-filter semantics."""
        it = i1.iteration
        full = frozenset(i1.template.points)
        p = i1.cond({"b": 1})
        good = synth_E(it, full, p)
        bad = AndNode((TRUE, BitAtom("b", 2)))
        space = tuple_space(it, history_of_condition(it, full, p))
        saw_divergence = False
        for z in it.enumerate_generics(full):
            direct = it.member_of_filter(z, p)
            pt_good = restrict_tuple(z, space)
            assert eval_code(good, pt_good, strict=True) == direct
            zb = z.value("b")
            flipped = eval_code(BitAtom("b", 2), restrict_tuple(
                z, tuple_space(it, history_of_condition(it, full, i1.cond({"b": 2})))
            ))
            if flipped != direct:
                saw_divergence = True
        assert saw_divergence
