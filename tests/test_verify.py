"""The verification harness: green runs on the shipped fixtures, fault
injection turning red, and report determinism."""

import json
import random

import pytest
from reference import main_theorem_by_sets

from finforce import fixtures, history, posets
from finforce.codes import IllFormedComposition
from finforce.iteration import SimpleIteration
from finforce.templates import SUBSETS, lattice
from finforce.verify import (
    CHECKS,
    run_checks,
    verify_history_invariance,
    verify_main_theorem,
    verify_nice_and_correct,
    verify_well_definedness,
)


class TestGreenRuns:
    def test_i1_all_checks(self, i1, i1_names):
        reports = run_checks(i1.iteration, i1_names)
        for r in reports:
            assert r.passed, r.to_json()

    @pytest.mark.parametrize("which", ["fsi2_cc", "fsi2_cohen_c", "fsi3", "case2"])
    def test_fixture_all_checks(self, which, request):
        it, names = request.getfixturevalue(which)
        for r in run_checks(it, names):
            assert r.passed, r.to_json()

    def test_counts_recorded(self, i1, i1_names):
        rep = verify_main_theorem(i1.iteration, i1_names)
        assert rep.generics == 32
        assert rep.checked == 32 * 256
        assert rep.names == 4


class TestRedRuns:
    def test_bad_subposet_reported(self):
        from finforce.fixtures import i1_bad_subposet

        rep = verify_nice_and_correct(i1_bad_subposet().iteration)
        assert not rep.passed
        assert all(f.kind == "nice-subposet" for f in rep.failures)

    def test_tampered_name_values_reported(self, i1, i1_names):
        """The same antichain with an inconsistent duplicate value table
        still verifies (values are data), but a non-maximal antichain is
        caught by the uniqueness audit."""
        from finforce.names import RealName

        it = i1.iteration
        p0, p1 = i1.branch_antichain
        broken = RealName(antichains=((p0,),), values=((5,),))
        rep = verify_main_theorem(it, {"broken": broken})
        assert any(f.kind == "antichain-uniqueness" for f in rep.failures)


class TestReports:
    def test_json_fields(self, i1, i1_names):
        (rep,) = run_checks(i1.iteration, i1_names, ["main_theorem"])
        js = rep.to_json()
        assert set(js) == {
            "check", "checked", "generics", "names", "sampled", "failures", "timing",
        }
        assert js["failures"] == []
        assert isinstance(js["timing"]["seconds"], float)
        assert js["timing"]["seconds"] > 0  # run_checks times the check
        assert isinstance(js["timing"]["peak_rss_mb"], float)
        assert js["timing"]["peak_rss_mb"] > 0  # and reads the peak RSS after it

    def test_determinism_modulo_timing(self, i1, i1_names):
        first = [r.to_json() for r in run_checks(i1.iteration, i1_names)]
        second = [r.to_json() for r in run_checks(i1.iteration, i1_names)]
        for a, b in zip(first, second):
            a.pop("timing")
            b.pop("timing")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_summary_line(self, i1, i1_names):
        rep = verify_history_invariance(i1.iteration, i1_names)
        assert rep.summary().startswith("history_invariance: pass")


class TestCheckRegistry:
    def test_all_registered(self):
        assert set(CHECKS) == {
            "main_theorem",
            "history_invariance",
            "well_definedness",
            "density",
            "embeddings",
            "nice_and_correct",
        }

    def test_subset_selection(self, i1, i1_names):
        reports = run_checks(i1.iteration, i1_names, ["density"])
        assert [r.check for r in reports] == ["density"]


class TestSharedWork:
    """Each result over the subset lattice is computed once per iteration."""

    def test_each_nested_pair_embedded_once(self, monkeypatch, cohen_fsi):
        uncached = []

        def spy(sub, sup):
            uncached.append((sub, sup))
            return check(sub, sup)

        check = posets._check_embedding
        monkeypatch.setattr(posets, "_check_embedding", spy)
        reports = run_checks(cohen_fsi(4))
        assert all(r.passed for r in reports)
        assert {r.check: r.checked for r in reports}["nice_and_correct"] == 5 ** 4
        assert len(uncached) == len({(id(a), id(b)) for a, b in uncached}) == 3 ** 4

    def test_reference_code_evaluated_once_per_point(self, case2, monkeypatch):
        """well_definedness evaluates each compared code once, over the whole
        tuple space of the condition, except a code that is the reference
        object itself, and the reference once when anything else is compared
        with it."""
        import finforce.verify as verify_mod
        from finforce.history import enumerate_points, history_of_condition, tuple_space
        from finforce.synth import case2_contexts, synth_E

        it, _ = case2
        calls = []
        real = verify_mod.eval_code
        monkeypatch.setattr(
            verify_mod, "eval_code", lambda c, batch, strict: calls.append(len(batch)) or real(c, batch, strict)
        )
        rep = verify_well_definedness(it)
        assert rep.passed
        subsets = [a for (a,) in lattice(it.template.points, SUBSETS)]
        want, compared, skipped = [], 0, 0
        for small in subsets:
            x = it.template.order.max_of(small) if small else None
            delegates = x is not None and it.past_in(small, x) not in it.template.families[x]
            for q in it.members(small):
                reference = synth_E(it, small, q)
                codes = [synth_E(it, a, q) for a in subsets if small <= a]
                if delegates:
                    codes += [synth_E(it, c, q) for c in case2_contexts(it, small, q)]
                others = sum(c is not reference for c in codes)
                points = len(list(enumerate_points(tuple_space(it, history_of_condition(it, small, q)))))
                want += [points] * ((others > 0) + others)
                compared += len(codes)
                skipped += len(codes) - others
        assert compared == rep.checked
        assert skipped >= len([q for small in subsets for q in it.members(small)])
        assert calls == want

    def test_main_theorem_projects_once_per_tuple_space(self, monkeypatch, cohen_fsi):
        """Each generic is projected once per distinct tuple space, and the
        induced filters come from one-entry memberships only."""
        import finforce.verify as verify_mod
        from finforce.history import history_of_condition, tuple_space
        from finforce.iteration import SimpleIteration

        projected, decided = [], []
        real_restrict = verify_mod.restrict_tuple
        real_member = SimpleIteration.member_of_filter
        monkeypatch.setattr(verify_mod, "restrict_tuple", lambda z, t: projected.append(t) or real_restrict(z, t))
        monkeypatch.setattr(
            SimpleIteration, "member_of_filter", lambda it, z, r: decided.append(r) or real_member(it, z, r)
        )
        it = cohen_fsi(4)
        rep = verify_main_theorem(it)
        assert rep.passed and rep.checked == 4 ** 4 * 2 ** 4
        full = it.template.all_points()
        spaces = {tuple_space(it, history_of_condition(it, full, p)) for p in it.build_poset(full).elements}
        assert len(projected) == len(spaces) * rep.generics
        assert set(projected) == spaces
        assert decided and max(len(r.entries) for r in decided) == 1

    def test_nice_and_correct_at_k5(self, cohen_fsi):
        rep = verify_nice_and_correct(cohen_fsi(5))
        assert rep.passed, rep.to_json()
        assert rep.checked == 5 ** 5


def _one_object_per_value(objects) -> bool:
    objects = list(objects)
    return len({id(o) for o in objects}) == len(set(objects))


class TestOneObjectPerValue:
    """After every check has run, each value the checks keep is one object
    per iteration."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda request: request.getfixturevalue("fsi4_seed7"), id="fsi4_seed7"),
        pytest.param(lambda request: fixtures.case2_fixture(), id="case2"),
    ])
    def test_kept_values_are_shared(self, make, request):
        it, names = make(request)
        reports = run_checks(it, names)
        assert all(r.passed for r in reports)
        members = [p for table in it._memo[SimpleIteration._member_table].values() for p in table]
        assert len(set(members)) < len(members)
        assert _one_object_per_value(members)
        assert _one_object_per_value(p.domain for p in members)
        histories = it._memo[history._canonical_history].values()
        assert len(set(histories)) < len(histories)
        assert _one_object_per_value(histories)
        singles = [r for _, r in it._memo[SimpleIteration.member_of_filter] if len(r.entries) == 1]
        assert singles and _one_object_per_value(singles)


class TestSampling:
    def test_generic_cap_triggers_seeded_sample(self, i1, i1_names):
        rep1 = verify_main_theorem(i1.iteration, i1_names, max_generics=8, seed=11)
        rep2 = verify_main_theorem(i1.iteration, i1_names, max_generics=8, seed=11)
        assert rep1.sampled and rep2.sampled
        assert rep1.generics == rep2.generics == 8
        assert rep1.passed and rep2.passed
        a, b = rep1.to_json(), rep2.to_json()
        a.pop("timing"), b.pop("timing")
        assert a == b

    def test_full_run_not_sampled(self, i1, i1_names):
        rep = verify_main_theorem(i1.iteration, i1_names)
        assert not rep.sampled


class TestMutatedSynthesizer:
    def test_flipped_bit_value_surfaces_in_report(self, i1, i1_names, monkeypatch):
        """A synthesizer that flips bit-atom indices must produce witnessed
        membership-code failures in the report."""
        import finforce.verify as verify_mod
        from finforce.codes import AndNode, BitAtom, NotNode, OrNode, TrueNode
        from finforce.synth import synth_E as real_synth_E

        def flip(code):
            if isinstance(code, BitAtom):
                return NotNode(code)
            if isinstance(code, AndNode):
                return AndNode(tuple(flip(c) for c in code.children))
            if isinstance(code, OrNode):
                return OrNode(tuple(flip(c) for c in code.children))
            if isinstance(code, NotNode):
                return NotNode(flip(code.child))
            return code

        def tampered(it, a, p):
            return flip(real_synth_E(it, a, p))

        monkeypatch.setattr(verify_mod, "synth_E", tampered)
        rep = verify_mod.verify_main_theorem(i1.iteration, {})
        assert not rep.passed
        kinds = {f.kind for f in rep.failures}
        assert "membership-code" in kinds
        witness = next(f for f in rep.failures if f.kind == "membership-code")
        assert witness.condition and witness.zbar
        assert {witness.expected, witness.actual} == {"True", "False"}

    @pytest.mark.parametrize("make", [lambda: fixtures.i1().iteration, lambda: fixtures.case2_fixture()[0]],
                             ids=["i1", "case2"])
    def test_raising_codes_fail_as_the_set_comparison_does(self, make, monkeypatch):
        """Codes that raise IllFormedComposition at some generics and not
        others, beside negated and sound ones, give the failures the
        set-based comparison gives, in its order, on all generics and on a
        sample; a code's results keep the bools a point at a time gives
        (False where it raises)."""
        import finforce.verify as verify_mod
        from finforce.codes import EAtom, FCode, NotNode, OrNode, eval_code
        from finforce.history import history_of_condition, restrict_tuple, tuple_space
        from finforce.synth import synth_E as real_synth_E

        it = make()
        full = it.template.all_points()
        position = {p: i for i, p in enumerate(it.build_poset(full).elements)}
        x = next(x for x in it.template.points if it.assignments[x].kind != "C")
        model = it.assignments[x].model

        def tampered(it, a, p):
            code = real_synth_E(it, a, p)
            if position[p] % 3 == 1:
                # an evaluation table undecided wherever the code is false
                table = FCode("value", (((code, model.poset.top),),), model.poset.top)
                return OrNode((code, EAtom(x, model, table)))
            return NotNode(code) if position[p] % 3 == 2 else code

        monkeypatch.setattr(verify_mod, "synth_E", tampered)
        gens = it.enumerate_generics(full)
        half = len(gens) // 2
        for kwargs, sample in [({}, gens), ({"seed": 3, "max_generics": half}, random.Random(3).sample(gens, half))]:
            rep = verify_mod.verify_main_theorem(it, {}, **kwargs)
            got = [(f.kind, f.condition, f.zbar, f.expected, f.actual) for f in rep.failures]
            assert got == main_theorem_by_sets(it, tampered, sample)
            assert {kind for kind, *_ in got} == {"ill-formed-composition", "membership-code"}

        def pointwise(code, pt):
            try:
                return eval_code(code, pt)
            except IllFormedComposition:
                return False

        raised = 0
        for p in list(position)[1::3]:
            code = tampered(it, full, p)
            points = [restrict_tuple(z, tuple_space(it, history_of_condition(it, full, p))) for z in gens]
            res = eval_code(code, points)
            assert res.values == [pointwise(code, pt) for pt in points]
            raised += bool(res.errors)
        assert raised

    def test_passing_well_definedness_formats_no_condition(self, case2, monkeypatch):
        """Failure labels are formatted only for a comparison that fails."""
        from finforce.iteration import Condition

        formatted = []
        real_str = Condition.__str__
        monkeypatch.setattr(Condition, "__str__", lambda p: formatted.append(p) or real_str(p))
        it, names = case2
        rep = verify_well_definedness(it, names)
        assert rep.passed and rep.checked
        assert formatted == []

    def test_well_definedness_reports_first_differing_point(self, case2, monkeypatch):
        """Codes that disagree with the reference everywhere are reported once
        per comparison, at the first point of the condition's tuple space.
        Every delegation target is tampered to the full set, whose codes
        are negated, so each delegation is reported too."""
        import finforce.verify as verify_mod
        from finforce.codes import NotNode
        from finforce.history import enumerate_points, history_of_condition, tuple_space
        from finforce.synth import case2_contexts as real_case2_contexts
        from finforce.synth import synth_E as real_synth_E

        it, _ = case2
        full = it.template.all_points()
        clean = verify_well_definedness(it)

        def tampered(it, a, p):
            code = real_synth_E(it, a, p)
            return NotNode(code) if a == full else code

        monkeypatch.setattr(verify_mod, "synth_E", tampered)
        monkeypatch.setattr(verify_mod, "case2_contexts",
                            lambda it, a, p: [full for _ in real_case2_contexts(it, a, p)])
        rep = verify_mod.verify_well_definedness(it)
        assert rep.checked == clean.checked
        first, pairs, choices = {}, 0, 0
        for (small,) in lattice(it.template.points, SUBSETS):
            x = it.template.order.max_of(small) if small else None
            delegates = x is not None and it.past_in(small, x) not in it.template.families[x]
            for q in it.members(small):
                space = tuple_space(it, history_of_condition(it, small, q))
                first[str(q)] = str(next(enumerate_points(space)))
                pairs += small != full
                choices += len(real_case2_contexts(it, small, q)) if delegates else 0
        kinds = [f.kind for f in rep.failures]
        assert kinds.count("code-ambient") == pairs
        assert kinds.count("code-choice") == choices == 50
        assert set(kinds) == {"code-ambient", "code-choice"}
        for f in rep.failures:
            assert f.zbar.endswith(f" at {first[f.condition]}")
            assert {f.expected, f.actual} == {"True", "False"}
