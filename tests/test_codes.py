"""Code evaluation, folding, free components and serialization round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finforce.codes import (
    TRUE,
    AndNode,
    Batch,
    BitAtom,
    EAtom,
    FCode,
    IllFormedComposition,
    MissingComponent,
    NotNode,
    OrNode,
    TrueNode,
    eval_code,
    eval_fcode_detailed,
    fold_fcode,
    fold_true,
    free_components,
    parse_code,
    parse_fcode,
    print_code,
    print_fcode,
)
from finforce.history import TuplePoint
from finforce.models import cohen
from reference import w_of


def bit_point(point, assignments):
    return TuplePoint(((point, tuple(assignments)),))


class TestEval:
    def test_true(self):
        assert eval_code(TRUE, TuplePoint(()))

    def test_bit_atom(self):
        assert eval_code(BitAtom("b", 2), bit_point("b", [(2, 1)]))
        assert not eval_code(BitAtom("b", 2), bit_point("b", [(2, 0)]))

    def test_connectives(self):
        pt = bit_point("b", [(0, 1), (1, 0)])
        one, zero = BitAtom("b", 0), BitAtom("b", 1)
        assert eval_code(AndNode((one, TRUE)), pt)
        assert not eval_code(AndNode((one, zero)), pt)
        assert eval_code(OrNode((zero, one)), pt)
        assert eval_code(NotNode(zero), pt)

    def test_missing_component(self):
        with pytest.raises(MissingComponent):
            eval_code(BitAtom("b", 2), TuplePoint(()))

    def test_e_atom_prefix(self, i1):
        from finforce.synth import synth_E
        from finforce.iteration import const_name

        it = i1.iteration
        code = synth_E(it, frozenset({"a"}), i1.cond({"a": const_name((0,))}))
        yes = TuplePoint((("a", (0, 1)),))
        no = TuplePoint((("a", (1, 0)),))
        assert eval_code(code, yes)
        assert not eval_code(code, no)

    def test_undecided_entry_strict_raises(self, i1):
        model = i1.cohen22
        empty = FCode(target="value", coords=((),), default=model.poset.top)
        atom = EAtom("a", model, empty)
        pt = TuplePoint((("a", (0, 0)),))
        with pytest.raises(IllFormedComposition):
            eval_code(atom, pt, strict=True)
        # lenient evaluation defaults to the top condition, and E(z, top)
        assert eval_code(atom, pt, strict=False)


class TestFCode:
    def test_constant(self):
        f = FCode(target="real", coords=(((TRUE, 9),),), default=0)
        vals, in_d = eval_fcode_detailed(f, TuplePoint(()))
        assert vals == (9,) and in_d

    def test_outside_domain_flag(self):
        pt = bit_point("b", [(0, 1)])
        f = FCode(
            target="real",
            coords=(((BitAtom("b", 0), 3), (TRUE, 4)),),
            default=0,
        )
        vals, in_d = eval_fcode_detailed(f, pt)
        assert vals == (0,) and not in_d


class TestFold:
    def test_fold_removes_true_conjuncts(self):
        code = AndNode((TRUE, AndNode((TRUE, BitAtom("b", 2)))))
        assert fold_true(code) == BitAtom("b", 2)

    def test_fold_empty_and(self):
        assert fold_true(AndNode((TRUE, TRUE))) == TRUE

    def test_fold_preserves_semantics(self, i1):
        from finforce.history import (
            enumerate_points, history_of_condition, tuple_space,
        )
        from finforce.synth import synth_E

        it = i1.iteration
        full = frozenset(i1.template.points)
        for p in it.members(full)[:40]:
            code = synth_E(it, full, p)
            folded = fold_true(code)
            space = tuple_space(it, history_of_condition(it, full, p))
            for pt in enumerate_points(space):
                assert eval_code(code, pt, strict=False) == eval_code(
                    folded, pt, strict=False
                )


class TestFreeComponents:
    def test_bits(self):
        s, bits = free_components(AndNode((BitAtom("b", 2), BitAtom("b", 1))))
        assert s == frozenset()
        assert bits == {"b": {1, 2}}

    def test_e_atom_collects_nested(self, i1):
        from finforce.synth import synth_E

        it = i1.iteration
        t1 = i1.c_tables[0]
        p = i1.cond({"c": t1})
        code = synth_E(it, frozenset(i1.template.points), p)
        s, bits = free_components(code)
        assert s == {"a", "c"}

    def test_soundness_against_tuple_space(self, i1):
        """Free components of a synthesized code lie inside the tuple space
        of its condition."""
        from finforce.history import history_of_condition, tuple_space
        from finforce.synth import synth_E

        it = i1.iteration
        full = frozenset(i1.template.points)
        for p in it.members(full):
            code = synth_E(it, full, p)
            space = tuple_space(it, history_of_condition(it, full, p))
            s, bits = free_components(code)
            assert s <= frozenset(space.s_points)
            for x, xs in bits.items():
                assert x in space.c_points
                assert xs <= frozenset(w_of(space, x))


class TestSerialization:
    def test_print_examples(self):
        assert print_code(BitAtom("b", 2)) == "(bit b 2)"
        assert print_code(AndNode((TRUE, BitAtom("b", 2)))) == "(and (true) (bit b 2))"

    def test_round_trip_plain(self):
        code = AndNode((TRUE, OrNode((BitAtom("b", 2), NotNode(BitAtom("b", 1))))))
        text = print_code(code)
        assert parse_code(text, {}) == code
        assert print_code(parse_code(text, {})) == text

    def test_round_trip_with_models(self, i1):
        from finforce.synth import synth_E

        it = i1.iteration
        full = frozenset(i1.template.points)
        models = {"a": i1.cohen22, "c": i1.ed22}
        for p in it.members(full)[:60]:
            code = synth_E(it, full, p)
            text = print_code(code)
            back = parse_code(text, models)
            assert back == code
            assert print_code(back) == text

    def test_round_trip_fcode(self, i1):
        from finforce.synth import synth_F

        it = i1.iteration
        full = frozenset(i1.template.points)
        models = {"a": i1.cohen22, "c": i1.ed22}
        for name in i1.registered_names().values():
            f = synth_F(it, full, name)
            text = print_fcode(f)
            back = parse_fcode(text, models)
            assert back == f
            assert print_fcode(back) == text

    def test_parse_error_on_garbage(self):
        from finforce.codes import ParseError

        with pytest.raises(ParseError):
            parse_code("(unknown x)", {})
        with pytest.raises(ParseError):
            parse_code('(bit b 2) trailing', {})


code_strategy = st.deferred(
    lambda: st.one_of(
        st.just(TRUE),
        st.builds(BitAtom, st.sampled_from(["b", "q"]), st.integers(0, 5)),
        st.builds(NotNode, code_strategy),
        st.lists(code_strategy, min_size=1, max_size=3).map(tuple).map(AndNode),
        st.lists(code_strategy, min_size=1, max_size=3).map(tuple).map(OrNode),
    )
)


@settings(max_examples=80, deadline=None)
@given(code_strategy)
def test_round_trip_random_codes(code):
    text = print_code(code)
    assert parse_code(text, {}) == code


# ---------------------------------------------------------------------------
# Batch evaluation against the pointwise definition

S = cohen(1, 2)


def pointwise(code, point, strict):
    """The defining semantics, one point at a time, short-circuiting as
    all/any do; the batch evaluator must agree with it point by point."""
    if isinstance(code, TrueNode):
        return True
    if isinstance(code, AndNode):
        return all(pointwise(c, point, strict) for c in code.children)
    if isinstance(code, OrNode):
        return any(pointwise(c, point, strict) for c in code.children)
    if isinstance(code, NotNode):
        return not pointwise(code.child, point, strict)
    if isinstance(code, BitAtom):
        try:
            return point.bit(code.point, code.xi) == 1
        except KeyError as exc:
            raise MissingComponent(str(exc)) from None
    (table,) = code.cond.coords
    hits = [v for c, v in table if pointwise(c, point, strict)]
    if len(hits) == 1:
        v = hits[0]
    elif strict:
        raise IllFormedComposition(f"evaluation table at {code.point} undecided")
    else:
        v = code.model.poset.top
    return bool(code.model.E(point.value(code.point), v))


def outcome(thunk):
    try:
        return "value", thunk()
    except Exception as exc:
        return type(exc), str(exc)


def e_atom(cases):
    return EAtom("a", S, FCode("value", (tuple(cases),), S.poset.top))


eval_strategy = st.deferred(
    lambda: st.one_of(
        code_strategy,
        st.builds(NotNode, eval_strategy),
        st.lists(eval_strategy, min_size=1, max_size=3).map(tuple).map(AndNode),
        st.lists(eval_strategy, min_size=1, max_size=3).map(tuple).map(OrNode),
        st.lists(st.tuples(eval_strategy, st.sampled_from(S.poset.elements)), max_size=3).map(e_atom),
    )
)

bits_strategy = st.dictionaries(st.integers(0, 5), st.integers(0, 1)).map(
    lambda d: tuple(sorted(d.items()))
)
point_strategy = st.builds(
    lambda a, b, q: TuplePoint(tuple((x, v) for x, v in (("a", a), ("b", b), ("q", q)) if v is not None)),
    st.one_of(st.none(), st.sampled_from(S.generic_space)),
    st.one_of(st.none(), bits_strategy),
    st.one_of(st.none(), bits_strategy),
)


@settings(max_examples=200, deadline=None)
@given(eval_strategy, st.lists(point_strategy, max_size=8), st.booleans())
def test_batch_matches_pointwise(code, points, strict):
    """Over a batch, each point gets the value the pointwise definition
    gives, or raises the same exception with the same message; a single
    point evaluates the same way."""
    got = eval_code(code, points, strict)
    assert len(got) == len(points)
    for i, pt in enumerate(points):
        want = outcome(lambda: pointwise(code, pt, strict))
        assert outcome(lambda: got[i]) == want
        assert outcome(lambda: eval_code(code, pt, strict)) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(eval_strategy, st.integers(0, 3)), max_size=3), max_size=3),
       st.lists(point_strategy, max_size=6))
def test_fcode_batch_matches_pointwise(tables, points):
    f = FCode("real", tuple(tuple(t) for t in tables), default=9)

    def detailed(pt):
        decided = []
        for table in f.coords:
            hits = [v for c, v in table if pointwise(c, pt, True)]
            decided.append((hits[0], True) if len(hits) == 1 else (f.default, False))
        return tuple(v for v, _ in decided), all(ok for _, ok in decided)

    got = eval_fcode_detailed(f, points)
    for i, pt in enumerate(points):
        assert outcome(lambda: got[i]) == outcome(lambda: detailed(pt))


class TestBatch:
    def test_fresh_nodes_on_one_batch(self):
        """Codes built afresh and dropped between evaluations on one batch,
        as a tampered synthesizer builds them: the memo holds every node it
        has seen, so a new node never takes the value of a dead one whose id
        it reuses."""
        points = [bit_point("b", [(0, v)]) for v in (0, 1, 1, 0)]
        batch = Batch(points)
        for i in range(200):
            code = NotNode(BitAtom("b", 0)) if i % 2 else AndNode((TRUE, BitAtom("b", 0)))
            assert list(eval_code(code, batch)) == [pointwise(code, pt, True) for pt in points]
            del code

    def test_each_node_evaluated_once(self, monkeypatch):
        """A node shared by several codes is evaluated once per batch and
        strictness."""
        shared = OrNode((BitAtom("b", 0), BitAtom("b", 1)))
        batch = Batch([bit_point("b", [(0, 0), (1, v)]) for v in (0, 1)])
        seen = []
        real = Batch._eval
        monkeypatch.setattr(Batch, "_eval", lambda self, c, strict: seen.append(c) or real(self, c, strict))
        for code in (shared, NotNode(shared), AndNode((shared, TRUE))):
            eval_code(code, batch)
        assert sum(c is shared for c in seen) == 1
        eval_code(shared, batch, strict=False)
        assert sum(c is shared for c in seen) == 2

    def test_short_circuit_hides_missing_component(self):
        """A point raises only where the pointwise evaluation reaches the
        failing atom."""
        code = AndNode((BitAtom("b", 0), BitAtom("q", 0)))
        points = [bit_point("b", [(0, 0)]), bit_point("b", [(0, 1)])]
        got = eval_code(code, points)
        assert got[0] is False
        with pytest.raises(MissingComponent, match="missing component q"):
            got[1]
