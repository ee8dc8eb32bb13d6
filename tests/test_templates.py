"""Template validation, traces, depth and restriction.

Derived expectations are recomputed here by direct enumeration (the
independent oracle) and then compared against the library."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finforce.templates import (
    CORRECT_SYSTEMS,
    NESTED_PAIRS,
    SUBSETS,
    IndexedTemplate,
    LinearOrder,
    Violation,
    depth,
    depth_predecessors,
    full_powerset_template,
    lattice,
    restrict_template,
    trace_family,
    validate_template,
)


def all_subsets(points):
    out = [frozenset()]
    for x in sorted(points):
        out += [s | {x} for s in out]
    return out


def fsi3():
    return full_powerset_template(("0", "1", "2"))


def fsi3_families_raw():
    order = LinearOrder(("0", "1", "2"))
    return order, {x: list(all_subsets(order.past(x))) for x in order.points}


class TestValidate:
    def test_fsi3_valid(self):
        order, fams = fsi3_families_raw()
        t = validate_template(order, fams)
        assert isinstance(t, IndexedTemplate)
        # oracle: check T1-T4 by direct enumeration over the families
        for x in order.points:
            past = order.past(x)
            fam = t.families[x]
            assert frozenset() in fam
            for b1 in fam:
                assert b1 <= past
                for b2 in fam:
                    assert b1 | b2 in fam and b1 & b2 in fam
        for i, x in enumerate(order.points):
            for y in order.points[i + 1:]:
                assert t.families[x] <= t.families[y]
                for b in t.families[y]:
                    assert b & order.past(x) in t.families[x]

    def test_t1_violation(self):
        order, fams = fsi3_families_raw()
        fams["1"] = [s for s in fams["1"] if s]
        out = validate_template(order, fams)
        assert isinstance(out, list)
        assert any(v.axiom == "T1" and v.point == "1" for v in out)

    def test_t2_violation_with_witness(self):
        order = LinearOrder(("0", "1", "2"))
        fams = {
            "0": [[]],
            "1": [[], ["0"]],
            "2": [[], ["0"], ["1"]],
        }
        out = validate_template(order, fams)
        assert isinstance(out, list)
        t2 = [v for v in out if v.axiom == "T2" and v.point == "2"]
        assert t2
        witness = set(map(frozenset, t2[0].witness))
        assert witness == {frozenset({"0"}), frozenset({"1"})}

    def test_member_outside_past_is_structural(self):
        order = LinearOrder(("0", "1"))
        out = validate_template(order, {"0": [[], ["1"]], "1": [[]]})
        assert isinstance(out, list)
        assert out[0].axiom == "structure"

    def test_full_powerset_accepted_for_chains(self):
        for n in range(1, 5):
            t = full_powerset_template(tuple(str(i) for i in range(n)))
            assert isinstance(t, IndexedTemplate)


class TestTrace:
    def test_fsi3_trace_example(self):
        t = fsi3()
        # oracle: enumerate B in I_2 and intersect
        a = frozenset({"0", "2"})
        expected = {b & a for b in t.families["2"]}
        got = trace_family(t, "2", a)
        assert got == expected == {frozenset(), frozenset({"0"})}

    def test_trivial_family_trace(self):
        t = fsi3()
        assert trace_family(t, "0", {"0", "1", "2"}) == {frozenset()}

    def test_empty_restriction(self):
        t = fsi3()
        assert trace_family(t, "1", frozenset()) == {frozenset()}

    def test_trace_compositional_exhaustive(self):
        # I_x restricted to A then to A' equals I_x restricted to A'
        t = full_powerset_template(("0", "1", "2", "3"))
        full = frozenset(t.points)
        for a in all_subsets(full):
            for a2 in all_subsets(a):
                for x in t.points:
                    once = trace_family(t, x, a2)
                    twice = frozenset(b & a2 for b in trace_family(t, x, a))
                    assert once == twice


class TestLattice:
    """The enumerator against the nested loops it replaces: every subset in
    the canonical order, then filtered loops over it."""

    @staticmethod
    def canonical_subsets(points):
        order = LinearOrder(points)
        return sorted(all_subsets(points), key=order.subset_key)

    @pytest.mark.parametrize("k", range(6))
    def test_subsets(self, k):
        points = tuple(f"p{i}" for i in range(k))
        got = [a for (a,) in lattice(points, SUBSETS)]
        assert got == self.canonical_subsets(points)
        assert len(got) == 2 ** k

    @pytest.mark.parametrize("k", range(6))
    def test_nested_pairs(self, k):
        points = tuple(f"p{i}" for i in range(k))
        subsets = self.canonical_subsets(points)
        want = [(small, big) for small in subsets for big in subsets if small <= big]
        assert lattice(points, NESTED_PAIRS) == want
        assert len(want) == 3 ** k

    @pytest.mark.parametrize("k", range(6))
    def test_correct_systems(self, k):
        points = tuple(f"p{i}" for i in range(k))
        subsets = self.canonical_subsets(points)
        want = [
            (a0, a1, b0, b1)
            for a0 in subsets
            for a1 in subsets if a0 <= a1
            for b0 in subsets if a0 <= b0 and a1 & b0 == a0
            for b1 in subsets if b0 <= b1 and a1 <= b1
        ]
        assert lattice(points, CORRECT_SYSTEMS) == want
        assert len(want) == 5 ** k

    def test_follows_the_given_order(self):
        """Ranks come from the order of ``points``, not from the names."""
        got = [a for (a,) in lattice(("b", "a"), SUBSETS)]
        assert got == [frozenset(), {"b"}, {"a"}, {"a", "b"}]

    def test_equal_components_are_one_object(self):
        systems = lattice(("0", "1", "2"), CORRECT_SYSTEMS)
        assert len({id(c) for system in systems for c in system}) == 8


class TestDepth:
    def test_base_case(self):
        assert depth(fsi3(), frozenset()) == 0

    def test_singleton(self):
        assert depth(fsi3(), frozenset({"2"})) == 1

    def test_full_set(self):
        assert depth(fsi3(), frozenset({"0", "1", "2"})) == 3

    def test_unranked_predecessor_is_a_t5_violation(self, monkeypatch):
        """Validation ranks the subsets bottom-up; a predecessor that is not
        ranked before the subset reading it is reported under T5."""
        from finforce import templates

        real = templates.depth_predecessors
        full = frozenset({"0", "1", "2"})
        monkeypatch.setattr(templates, "depth_predecessors",
                            lambda t, a: real(t, a) | ({full} if a == {"1"} else set()))
        order, fams = fsi3_families_raw()
        assert validate_template(order, fams) == [Violation(
            "T5", None, (frozenset({"1"}), full),
            "predecessor ['0', '1', '2'] of ['1'] is not ranked before it",
        )]

    def test_predecessors_strictly_smaller(self):
        t = fsi3()
        full = frozenset(t.points)
        for a in all_subsets(full):
            for p in depth_predecessors(t, a):
                assert p < a
                assert depth(t, p) < depth(t, a)


class TestRestrict:
    def test_restrict_to_prefix_is_fsi2(self):
        t = fsi3()
        r = restrict_template(t, {"0", "1"})
        expected = full_powerset_template(("0", "1"))
        assert r.order.points == expected.order.points
        assert r.families == expected.families

    def test_restrict_to_empty(self):
        r = restrict_template(fsi3(), frozenset())
        assert r.order.points == ()

    def test_restrict_skip_point(self):
        r = restrict_template(fsi3(), {"0", "2"})
        assert r.families["2"] == {frozenset(), frozenset({"0"})}

    def test_restrict_to_all_is_identity(self):
        t = fsi3()
        r = restrict_template(t, frozenset(t.points))
        assert r.families == t.families


def close_families(order, seed_families):
    """Close seed families to a fixpoint of T1-T4: union/intersection
    closure, monotonicity along the order, and downward traces."""
    points = order.points
    fams = {x: set(seed_families.get(x, set())) | {frozenset()} for x in points}
    changed = True
    while changed:
        changed = False
        for i, x in enumerate(points):
            for y in points[i + 1:]:
                if not fams[x] <= fams[y]:
                    fams[y] |= fams[x]
                    changed = True
        for j, y in enumerate(points):
            for x in points[: j + 1]:
                past = order.past(x)
                traces = {b & past for b in fams[y]}
                if not traces <= fams[x]:
                    fams[x] |= traces
                    changed = True
        for x in points:
            fam = fams[x]
            extra = set()
            for b1 in fam:
                for b2 in fam:
                    extra.add(b1 | b2)
                    extra.add(b1 & b2)
            if not extra <= fam:
                fams[x] |= extra
                changed = True
    return {x: frozenset(f) for x, f in fams.items()}


def template_strategy():
    """Random valid templates: close random seed families under the axioms."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=4))
        points = tuple(str(i) for i in range(n))
        order = LinearOrder(points)
        seeds = {}
        for x in points:
            past = sorted(order.past(x))
            if past:
                raw = draw(st.lists(st.sets(st.sampled_from(past)), max_size=3))
                seeds[x] = {frozenset(s) for s in raw}
        return order, close_families(order, seeds)

    return build()


@settings(max_examples=30, deadline=None)
@given(template_strategy())
def test_generated_templates_validate(ow):
    order, families = ow
    t = validate_template(order, {x: list(f) for x, f in families.items()})
    assert isinstance(t, IndexedTemplate), t
    full = frozenset(order.points)
    assert depth(t, full) >= 0
    r = restrict_template(t, full)
    assert r.families == t.families


@settings(max_examples=30, deadline=None)
@given(template_strategy())
def test_bottom_up_depth_equals_the_recursion(ow):
    """The ranks validation computes bottom-up are those `depth` computes
    recursively on a template with an empty memo, on every subset."""
    order, families = ow
    t = validate_template(order, {x: list(f) for x, f in families.items()})
    fresh = IndexedTemplate(order=order, families=t.families)
    subsets = [a for (a,) in lattice(order.points, SUBSETS)]
    assert len(t.depth_cache) == len(subsets)
    assert [t.depth_cache[a] for a in subsets] == [depth(fresh, a) for a in subsets]
