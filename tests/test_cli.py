"""The command-line front end: exit codes, synth output, verify reports and
their determinism, and document round trips."""

import json
import os
import resource
import subprocess
import sys
from importlib import resources

import pytest

import finforce
from finforce import cli, verify, workdoc
from finforce.cli import main
from finforce.iteration import DecisionTableName, IterationError, SmallPosetSpec
from finforce.models import validate_borel_model
from finforce.workdoc import DocError, _parse_small_poset, load_doc, parse_doc


def doc_path(name: str) -> str:
    return str(resources.files("finforce").joinpath("workdocs", name))


def edited_doc(tmp_path, name: str, keys: tuple, value) -> str:
    """A copy of a shipped document with the value at `keys` (dict keys and
    list indices) replaced; returns the copy's path."""
    with open(doc_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    spec = doc
    for key in keys[:-1]:
        spec = spec[key]
    spec[keys[-1]] = value
    out = tmp_path / name
    out.write_text(json.dumps(doc))
    return str(out)


@pytest.fixture(scope="module")
def i1_doc():
    return doc_path("i1.json")


class TestValidate:
    @pytest.mark.parametrize("name", ["i1.json", "fsi2_cc.json", "fsi2_cohen_c.json", "fsi3.json",
                                      "case2.json"])
    def test_good_doc(self, capsys, name):
        assert main(["validate", "--doc", doc_path(name)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_t1_violation(self, capsys):
        assert main(["validate", "--doc", doc_path("bad_t1.json")]) == 1
        out = capsys.readouterr().out
        assert "T1 violated at x=b" in out

    def test_naive_model_fails(self, capsys):
        assert main(["validate", "--doc", doc_path("ed_naive.json")]) == 1
        assert "E-characterization" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--doc", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "--doc", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("key, value, where", [
        ("leq", [[1]], ".leq[0]"),
        ("leq", [["a", 0]], ".leq[0]"),
        ("blocks", 5, ".blocks"),
        ("leq", [[True, 0]], ".leq[0]"),
        ("leq", [[1, 2], [2, 1]], ""),
        ("leq", [[0, 1]], ""),
    ])
    def test_malformed_c_poset_value(self, tmp_path, capsys, key, value, where):
        """A malformed poset value at a C coordinate, or one whose leq pairs
        are not a partial order with top 0, is a parse error that names its
        JSON path, not a traceback, for every command."""
        with open(doc_path("fsi2_cohen_c.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["iteration"]["1"]["poset"]["table"][0]["value"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for command in (["validate"], ["verify"], ["synth", "--cond", '{"1": 1}']):
            assert main([command[0], "--doc", str(bad), *command[1:]]) == 2
            assert f"parse error: iteration.1.poset.table[0]{where}: " in capsys.readouterr().err

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_poset_value_parses_exactly_when_it_builds(self, size):
        """The parser's cycle test accepts a leq list exactly when the poset
        it declares builds: every list of pairs over 1 to 3 ordinals."""
        pairs = [(a, b) for a in range(size) for b in range(size)]
        for mask in range(2 ** len(pairs)):
            leq = [pair for i, pair in enumerate(pairs) if mask >> i & 1]
            try:
                _parse_small_poset({"size": size, "leq": [list(pair) for pair in leq]}, "value")
                parses = True
            except DocError:
                parses = False
            try:
                SmallPosetSpec(size, tuple(leq)).build()
                builds = True
            except ValueError:
                builds = False
            assert parses == builds, leq

    @pytest.mark.parametrize("value", [3, 7])
    def test_widened_value_past_gamma(self, tmp_path, capsys, value):
        """A widened entry valued at or past the gamma of the C point that
        lists it is a parse error at the value's path."""
        bad = edited_doc(tmp_path, "i1.json", ("widened_entries", "w1", "table", 1, "value"), value)
        for command in ("validate", "verify"):
            assert main([command, "--doc", bad]) == 2
            assert capsys.readouterr().err == (
                f"parse error: widened_entries.w1.table[1]: widened value {value} is not below "
                "the gamma 3 of b\n"
            )

    @pytest.mark.parametrize("name, keys, value, message", [
        pytest.param("fsi2_cc.json", ("models", "S", "length"), True,
                     "models.S: length must be a positive integer", id="length"),
        pytest.param("fsi2_cc.json", ("models", "S", "alphabet"), True,
                     "models.S: alphabet must be at least 2", id="alphabet"),
        pytest.param("fsi2_cohen_c.json", ("iteration", "1", "poset", "table", 0, "value", "size"),
                     True, "iteration.1.poset.table[0]: size must be a positive integer",
                     id="size"),
        pytest.param("fsi2_cohen_c.json", ("iteration", "1", "gamma"), True,
                     "iteration.1: C needs a gamma", id="gamma"),
        pytest.param("i1.json", ("widened_entries", "w1", "table", 0, "value"), True,
                     "widened_entries.w1.table[0]: widened values must be ordinals",
                     id="widened-value"),
        pytest.param("fsi2_cohen_c.json", ("names", "mixed", 0, 0, "when", "1"), True,
                     "names.mixed[0][0].1: cannot read entry literal True", id="entry-literal"),
        pytest.param("fsi2_cohen_c.json", ("names", "mixed", 0, 0, "when", "1"), -1,
                     "names.mixed[0][0].1: cannot read entry literal -1",
                     id="entry-literal-negative"),
        pytest.param("fsi2_cc.json", ("names", "stage1_bit", 0, 0, "value"), True,
                     "names.stage1_bit[0][0]: name values are naturals", id="name-value"),
        pytest.param("fsi2_cc.json", ("names", "stage1_bit", 0, 0, "value"), -1,
                     "names.stage1_bit[0][0]: name values are naturals",
                     id="name-value-negative"),
        pytest.param("fsi2_cc.json", ("run", "max_conditions"), True,
                     "run.max_conditions: max_conditions must be a positive integer",
                     id="max-conditions"),
        pytest.param("fsi2_cc.json", ("run", "max_conditions"), 0,
                     "run.max_conditions: max_conditions must be a positive integer",
                     id="max-conditions-zero"),
    ])
    def test_natural_fields(self, tmp_path, capsys, name, keys, value, message):
        """Fields that hold naturals reject JSON booleans (which Python reads
        as ints) and negative numbers with a parse error at their path."""
        bad = edited_doc(tmp_path, name, keys, value)
        assert main(["validate", "--doc", bad]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    @pytest.mark.parametrize("name, keys, value, message", [
        pytest.param("fsi2_cc.json", ("run",), [], "run: must be a JSON object", id="run"),
        pytest.param("fsi2_cc.json", ("models",), [], "models: must be a JSON object", id="models"),
        pytest.param("fsi2_cc.json", ("entries",), [], "entries: must be a JSON object",
                     id="entries"),
        pytest.param("fsi2_cc.json", ("widened_entries",), [],
                     "widened_entries: must be a JSON object", id="widened-entries"),
        pytest.param("fsi2_cc.json", ("names",), [], "names: must be a JSON object", id="names"),
        pytest.param("fsi2_cc.json", ("template", "points"), ["0", "0"],
                     "template.points: points must be distinct", id="duplicate-points"),
        pytest.param("fsi2_cc.json", ("template", "families"), [],
                     "template.families: must be a JSON object", id="families"),
        pytest.param("fsi2_cc.json", ("iteration", "0"), "B",
                     "iteration.0: must be a JSON object", id="iteration-entry"),
        pytest.param("fsi2_cc.json", ("entries",), {"x": "s"},
                     "entries.x: must be a JSON object", id="entry-spec"),
        pytest.param("fsi2_cc.json", ("template", "families", "1"), 5,
                     "template.families.1: must be a JSON array", id="family"),
        pytest.param("fsi2_cc.json", ("iteration", "0", "entries"), 5,
                     "iteration.0.entries: must be a JSON array", id="entry-refs"),
        pytest.param("fsi2_cohen_c.json", ("iteration", "1", "support"), 5,
                     "iteration.1.support: must be a JSON array of point names", id="support"),
        pytest.param("fsi2_cc.json", ("run", "checks"), "density",
                     "run.checks: must be a JSON array", id="checks"),
        pytest.param("fsi2_cc.json", ("run", "checks"), [],
                     "run.checks: must name at least one check", id="checks-empty"),
        pytest.param("fsi2_cc.json", ("run", "checks"), ["density", "density"],
                     "run.checks: check 'density' is listed twice", id="checks-repeated"),
        pytest.param("fsi2_cc.json", ("run", "seed"), "x", "run.seed: seed must be a natural",
                     id="seed"),
        pytest.param("fsi2_cc.json", ("iteration", "0", "model"), [],
                     "iteration.0: unknown model []", id="model-ref"),
        pytest.param("fsi2_cc.json", ("iteration", "0", "entries"), ["t9"],
                     "iteration.0.entries: unknown entry name 't9'", id="unknown-entry-ref"),
        pytest.param("fsi2_cc.json", ("models", "S", "builtin"), {},
                     "models.S: unknown builtin {}", id="builtin"),
        pytest.param("fsi2_cohen_c.json", ("iteration", "1", "support"), [],
                     "iteration.1.support: support must contain the base ['0'] of Q_1",
                     id="support-without-base"),
        pytest.param("fsi2_cohen_c.json", ("template", "families", "1", 1), [],
                     "iteration: support ['0'] of 1 is not in the family I_1",
                     id="support-outside-family"),
        pytest.param("fsi2_cohen_c.json", ("names", "mixed", 0, 0, "when", "0"), 5,
                     "names.mixed[0][0].0: ordinal entry 5 at a model point",
                     id="ordinal-at-model-point"),
        pytest.param("i1.json", ("entries", "t1", "table", 0, "value"), 5,
                     "entries.t1.table[0]: bad element label 5", id="entry-value"),
        pytest.param("i1.json", ("iteration", "c", "subposet", "table", 1, "value", "elements"),
                     5, "iteration.c.subposet.table[1].elements: must be a JSON array",
                     id="subposet-elements"),
        pytest.param("i1.json", ("names", "n4", 2, 0, "when", "c", "entry"), [],
                     "names.n4[2][0].c: unknown entry name []", id="entry-literal-ref"),
        pytest.param("i1.json", ("iteration", "a", "entries"), ["t1"],
                     "iteration.a.entries: entry name 't1' is declared at c, not a",
                     id="entry-listed-at-another-point"),
        pytest.param("i1.json", ("iteration", "a", "widened"), ["w1"],
                     "iteration.a.widened: widened entry 'w1' is declared at b, not a",
                     id="widened-listed-at-b-point"),
        pytest.param("i1.json", ("widened_entries", "w1", "point"), "a",
                     "widened_entries.w1.point: widened entries need a C point, got 'a'",
                     id="widened-declared-at-b-point"),
        pytest.param("fsi2_cc.json", ("iteration", "0", "constants"), "false",
                     "iteration.0.constants: must be a JSON boolean", id="constants-string"),
        pytest.param("fsi2_cc.json", ("iteration", "0", "constants"), 0,
                     "iteration.0.constants: must be a JSON boolean", id="constants-zero"),
        pytest.param("fsi2_cohen_c.json", ("iteration", "1", "constants"), False,
                     "iteration.1.constants: a C point has no constant entries; constants is "
                     "for B and R points", id="constants-at-c-point"),
        pytest.param("fsi2_cohen_c.json", ("iteration", "1", "constants"), True,
                     "iteration.1.constants: a C point has no constant entries; constants is "
                     "for B and R points", id="constants-true-at-c-point"),
    ])
    def test_malformed_shapes(self, tmp_path, capsys, name, keys, value, message):
        """A block, entry or reference of the wrong JSON shape is a parse
        error at its path (exit 2), not a traceback."""
        bad = edited_doc(tmp_path, name, keys, value)
        assert main(["validate", "--doc", bad]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_name_reading_outside_its_base(self, tmp_path, capsys):
        """A table name is evaluated on its base alone, so a case that reads
        another point is a parse error."""
        with open(doc_path("fsi2_cohen_c.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["iteration"]["1"]["poset"]["base"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--doc", str(bad)]) == 2
        assert "iteration.1.poset.table[0].when: condition reads points outside the base []" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("name, path, x, label", [
        pytest.param("fsi2_cohen_c.json", "iteration.1.poset", "1", "Q_1",
                     id="fsi2_cohen_c.json-1-poset"),
        pytest.param("i1.json", "iteration.c.subposet", "c", "Q_c",
                     id="i1.json-c-subposet"),
        pytest.param("i1.json", "entries.t1", "c", "t1", id="i1.json-c-t1"),
        pytest.param("i1.json", "widened_entries.w1", "b", "w1", id="i1.json-b-w1"),
    ])
    def test_table_name_missing_a_generic(self, tmp_path, name, path, x, label):
        """A table name (a coordinate's poset or subposet name, an entry or a
        widened entry) whose antichain some generic it is read on misses
        fails validation and verification with a diagnostic naming the
        coordinate, not a traceback."""
        with open(doc_path(name), encoding="utf-8") as fh:
            doc = json.load(fh)
        spec = doc
        for key in path.split("."):
            spec = spec[key]
        spec["table"] = spec["table"][:1]
        bad = tmp_path / name
        bad.write_text(json.dumps(doc))
        src = os.path.dirname(os.path.dirname(finforce.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for command in ("validate", "verify"):
            out = subprocess.run(
                [sys.executable, "-m", "finforce.cli", command, "--doc", str(bad)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert out.returncode == 1, out.stderr
            assert f"table name at {x}: filter misses the antichain of {label}" in out.stdout
            assert "Traceback" not in out.stderr


class TestSynth:
    def test_cond_bit(self, capsys, i1_doc):
        assert main(["synth", "--doc", i1_doc, "--cond", '{"b": 2}']) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "(bit b 2)"
        assert out[1] == "space: C:{b} W_b={2}"

    def test_empty_cond(self, capsys, i1_doc):
        assert main(["synth", "--doc", i1_doc, "--cond", "{}"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "(true)"

    def test_name(self, capsys, i1_doc):
        assert main(["synth", "--doc", i1_doc, "--name", "n1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("(fcode real (default 0)")
        assert '"0"' in out[0] and '"1"' in out[0]
        assert out[1] == "space: S:{a}"

    def test_unknown_name(self, capsys, i1_doc):
        assert main(["synth", "--doc", i1_doc, "--name", "zzz"]) == 1

    def test_nonmember_cond(self, capsys, i1_doc):
        assert main(["synth", "--doc", i1_doc, "--cond", '{"b": 9}']) == 1

    def test_printed_code_parses_back(self, capsys, i1_doc):
        from finforce.codes import parse_code

        doc = load_doc(i1_doc)
        assert main(["synth", "--doc", i1_doc, "--cond", '{"a": {"const": "01"}}']) == 0
        line = capsys.readouterr().out.splitlines()[0]
        code = parse_code(line, doc.point_models)
        assert line == str(code)

    def test_case2_reaches_delegation(self, capsys, monkeypatch):
        """On the case-two document, synth prints a name's evaluation
        function without delegating: it works over the whole point set,
        whose past at each maximum is in the family.  verify reaches the
        delegation on the subsets whose past is not, such as {0, 2, 3}."""
        from finforce import synth

        asked = []
        real = synth.case2_contexts
        monkeypatch.setattr(synth, "case2_contexts", lambda it, a, p: asked.append(a) or real(it, a, p))
        assert main(["synth", "--doc", doc_path("case2.json"), "--name", "deep"]) == 0
        assert capsys.readouterr().out.startswith("(fcode real (default 0)")
        assert asked == []
        assert main(["verify", "--doc", doc_path("case2.json")]) == 0
        assert frozenset({"0", "2", "3"}) in asked

    def test_table_name_missing_a_generic(self, tmp_path, capsys):
        """synth does not validate its document, so an entry table cut to
        one row (t1 at c, read on the generics of a) is met while deciding
        membership: exit 1 with the message, not a traceback."""
        with open(doc_path("i1.json"), encoding="utf-8") as fh:
            table = json.load(fh)["entries"]["t1"]["table"]
        bad = edited_doc(tmp_path, "i1.json", ("entries", "t1", "table"), table[:1])
        assert main(["synth", "--doc", bad, "--cond", '{"c": {"entry": "t1"}}']) == 1
        assert capsys.readouterr().err == "error: filter misses the antichain of t1\n"

    def test_name_member_outside_pstar(self, tmp_path, capsys):
        """A registered name whose antichain holds a condition outside P*
        (a C entry of 5 where gamma is 3) fails validation, and so verify
        stops before any check, with the same diagnostic."""
        bad = edited_doc(tmp_path, "fsi2_cohen_c.json", ("names", "mixed", 0, 0, "when", "1"), 5)
        for command in ("validate", "verify"):
            assert main([command, "--doc", bad]) == 1
            assert capsys.readouterr().out == (
                "name mixed: antichain 0 member {0=const:0, 1=5} is not in P*\n"
            )



class TestVerify:
    def test_small_doc_passes(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code = main([
            "verify", "--doc", doc_path("fsi2_cc.json"), "--report", str(report),
        ])
        assert code == 0
        data = json.loads(report.read_text())
        assert all(not r["failures"] for r in data)
        checks = [r["check"] for r in data]
        assert "main_theorem" in checks

    @pytest.mark.parametrize("name, checked", [
        ("fsi3.json", [512, 378, 220, 8, 27, 125]),
        ("case2.json", [1536, 1666, 1066, 16, 81, 625]),
    ])
    def test_shipped_doc_passes(self, tmp_path, capsys, name, checked):
        report = tmp_path / "report.json"
        assert main(["verify", "--doc", doc_path(name), "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert [r["checked"] for r in data] == checked
        assert not any(r["failures"] or r["sampled"] for r in data)

    def test_text_format(self, tmp_path):
        report = tmp_path / "report.txt"
        code = main([
            "verify", "--doc", doc_path("fsi2_cohen_c.json"),
            "--report", str(report), "--format", "text",
        ])
        assert code == 0
        assert "main_theorem: pass" in report.read_text()

    def test_determinism_modulo_timing(self, tmp_path):
        """Two consecutive runs produce identical structured reports once the
        timing fields are stripped."""
        outs = []
        for i in (1, 2):
            report = tmp_path / f"r{i}.json"
            assert main([
                "verify", "--doc", doc_path("fsi2_cc.json"), "--report", str(report),
            ]) == 0
            data = json.loads(report.read_text())
            for r in data:
                r.pop("timing")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_resource_cap_exit(self, tmp_path, i1_doc):
        code = main([
            "verify", "--doc", i1_doc, "--max-conditions", "5",
        ])
        assert code == 3

    def test_run_without_report_leaves_no_file(self, tmp_path, i1_doc):
        """A run stopped by a cap writes no report, and no empty file."""
        report = tmp_path / "report.json"
        assert main(["verify", "--doc", i1_doc, "--max-conditions", "5", "--report", str(report)]) == 3
        assert not report.exists()

    def test_run_without_report_keeps_an_earlier_file(self, tmp_path, i1_doc):
        """A run stopped by a cap leaves a file already at the report path
        as it was: it is neither truncated nor removed."""
        report = tmp_path / "report.json"
        report.write_text("earlier report\n")
        assert main(["verify", "--doc", i1_doc, "--max-conditions", "5", "--report", str(report)]) == 3
        assert report.read_text() == "earlier report\n"

    def test_unwritable_report_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        """A report path that cannot be opened ends the run before any
        check, with exit 2 and one line, not a traceback after the run."""
        ran = []
        monkeypatch.setattr(cli, "run_checks", lambda *args, **kwargs: ran.append(args) or [])
        report = tmp_path / "missing" / "r.json"
        assert main(["verify", "--doc", doc_path("fsi2_cc.json"), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report: ") and "Traceback" not in err
        assert str(report) in err and err.count("\n") == 1
        assert not ran and not report.exists()

    @pytest.mark.parametrize("argv, seed", [([], 7), (["--seed", "0"], 0), (["--seed", "3"], 3)])
    def test_seed_flag_overrides_the_document(self, monkeypatch, argv, seed):
        """Every shipped document has seed 7; an explicit --seed, 0 too, wins."""
        seen = []

        def run_checks(it, names, which, seed=0):
            seen.append(seed)
            return []

        monkeypatch.setattr(cli, "run_checks", run_checks)
        assert main(["verify", "--doc", doc_path("fsi2_cc.json")] + argv) == 0
        assert seen and set(seen) == {seed}

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_max_conditions_below_one_is_a_usage_error(self, capsys, i1_doc, cap):
        assert main(["verify", "--doc", i1_doc, "--max-conditions", cap]) == 2
        assert f"--max-conditions must be at least 1, not {cap}" in capsys.readouterr().err

    def test_filter_not_directed_is_a_report_failure(self, tmp_path):
        """fsi2_cc with I_1 cut to the empty set validates, but the filters
        its generics induce on P* have no least element.  main_theorem
        records each such generic as an internal-error failure, and the
        run ends with exit 1 and a report, not a traceback."""
        bad = edited_doc(tmp_path, "fsi2_cc.json", ("template", "families", "1"), [[]])
        assert main(["validate", "--doc", bad]) == 0
        report = tmp_path / "report.json"
        assert main(["verify", "--doc", bad, "--report", str(report)]) == 1
        main_theorem = json.loads(report.read_text())[0]
        assert main_theorem["check"] == "main_theorem" and main_theorem["generics"] == 16
        failures = main_theorem["failures"]
        assert len(failures) == 16 and {f["kind"] for f in failures} == {"internal-error"}
        assert failures[0]["zbar"] == "0=00; 1=00"
        assert failures[0]["actual"] == "induced filter of [0=00; 1=00] is not directed: no unique bottom"

    def test_out_of_memory_exits_3(self, monkeypatch, capsys):
        """A MemoryError inside a check ends the run with exit 3 and names
        the check; the checks before it ran."""
        ran = []

        def density(it, names=None, seed=0):
            raise MemoryError

        def record(name):
            def check(it, names=None, seed=0):
                ran.append(name)
                return verify.Report(check=name)
            return check

        monkeypatch.setitem(verify.CHECKS, "main_theorem", record("main_theorem"))
        monkeypatch.setitem(verify.CHECKS, "density", density)
        assert main(["verify", "--doc", doc_path("fsi2_cc.json")]) == 3
        captured = capsys.readouterr()
        assert captured.err == "out of memory in check density\n"
        assert ran == ["main_theorem"]

    @pytest.mark.parametrize("check", [
        "history_invariance", "well_definedness", "density", "embeddings", "nice_and_correct",
    ])
    def test_iteration_error_in_a_check_exits_1(self, monkeypatch, capsys, check):
        """An IterationError that escapes a check ends the run with exit 1
        and one line naming the check, not a traceback."""
        def broken(it, names=None, seed=0):
            raise IterationError("table name t reads ['1'] outside its base []")

        monkeypatch.setitem(verify.CHECKS, check, broken)
        assert main(["verify", "--doc", doc_path("fsi2_cc.json")]) == 1
        err = capsys.readouterr().err
        assert err == f"error in check {check}: table name t reads ['1'] outside its base []\n"
        assert "Traceback" not in err


def _limit_address_space():
    limit = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestModelSizeCap:
    @pytest.mark.parametrize("command", [
        ["validate"], ["synth", "--name", "stage1_bit"], ["verify"],
    ], ids=["validate", "synth", "verify"])
    def test_oversized_model_exits_3(self, tmp_path, command):
        """ed(4,2) has 31 * 2**16 elements, over the default cap of 100,000
        conditions: it is refused before it is built, so every command exits
        3 quickly and within an address-space limit far below its n**2 order
        matrix."""
        bad = edited_doc(tmp_path, "fsi2_cc.json", ("models", "S"),
                         {"builtin": "ed", "length": 4, "alphabet": 2})
        src = os.path.dirname(os.path.dirname(finforce.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-m", "finforce.cli", command[0], "--doc", bad, *command[1:]],
            env=env, capture_output=True, text=True, timeout=30,
            preexec_fn=_limit_address_space,
        )
        assert out.returncode == 3, out.stderr
        assert out.stderr == (
            "resource cap exceeded: elements of model S = ed(4,2) "
            "would need 2031616 > cap 100000\n"
        )


class TestDocRoundTrip:
    @pytest.mark.parametrize(
        "name", ["i1.json", "fsi2_cc.json", "fsi2_cohen_c.json", "fsi3.json", "case2.json"]
    )
    def test_parse_print_parse_identity(self, name):
        doc = load_doc(doc_path(name))
        text = doc.to_json()
        again = parse_doc(text)
        assert again.raw == doc.raw
        assert again.to_json() == text


SHIPPED = ["i1.json", "fsi2_cc.json", "fsi2_cohen_c.json", "fsi3.json", "case2.json",
           "ed_naive.json", "bad_t1.json"]


def run_alone(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of one CLI call in a
    fresh interpreter."""
    src = os.path.dirname(os.path.dirname(finforce.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "finforce.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    return out.returncode, out.stdout, out.stderr


@pytest.fixture
def model_validations(monkeypatch):
    """The models `validate_borel_model` is called on, in call order, through
    the name the document module binds."""
    seen = []
    real = workdoc.validate_borel_model
    monkeypatch.setattr(workdoc, "validate_borel_model", lambda model: seen.append(model) or real(model))
    return seen


class TestModelsValidatedOnDemand:
    """A document validates its models when validation first reads them,
    not when it loads, so a point query never pays for it."""

    def test_load_and_synth_validate_no_model(self, model_validations, capsys, i1_doc):
        load_doc(i1_doc)
        assert main(["synth", "--doc", i1_doc, "--cond", '{"b": 2}']) == 0
        assert main(["synth", "--doc", i1_doc, "--name", "n1"]) == 0
        assert model_validations == []

    def test_validation_reads_each_model_once(self, model_validations, i1_doc):
        doc = load_doc(i1_doc)
        assert cli._validate(doc) == []
        assert cli._validate(doc) == []
        assert model_validations == list(doc.models.values())
        assert len(model_validations) == 2

    @pytest.mark.parametrize("name, seed", [(name, None) for name in SHIPPED]
                             + [("case2.json", seed) for seed in range(5)])
    def test_validate_prints_what_the_models_fail(self, tmp_path, capsys, name, seed):
        """`finforce validate` prints the template's violations, then each
        model's, as `validate_borel_model` finds them called directly, or
        "ok".  None of these documents has a table-name, subposet or name
        diagnostic, so that is all it prints."""
        path = doc_path(name) if seed is None else edited_doc(tmp_path, name, ("run", "seed"), seed)
        doc = load_doc(path)
        lines = [f"template: {v}" for v in doc.template_violations]
        lines += [f"model {label}: {p}" for label, model in doc.models.items()
                  for p in validate_borel_model(model)]
        code = main(["validate", "--doc", path])
        assert capsys.readouterr().out == ("\n".join(lines) if lines else "ok") + "\n"
        assert code == (1 if lines else 0)
        if name == "ed_naive.json":
            assert sum("E-characterization" in line for line in lines) == 94

    def test_calls_in_one_process_print_what_each_prints_alone(self, capsys, i1_doc):
        """The parser is built once per process, and no call leaves state
        that the next one reads: each call of a sequence prints what it
        prints in a fresh interpreter, an argument error (exit 2) too."""
        calls = [
            ["validate", "--doc", doc_path("ed_naive.json")],
            ["synth", "--doc", i1_doc, "--cond", '{"b": 2}'],
            ["synth", "--doc", i1_doc, "--name", "n1"],
            ["synth", "--doc", i1_doc, "--names", "n1"],
            ["verify", "--doc", doc_path("fsi2_cc.json")],
            ["validate", "--doc", i1_doc],
        ]
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == run_alone(argv), argv
        assert code == 0

    @pytest.mark.parametrize("name", ["i1.json", "fsi2_cohen_c.json"])
    def test_loads_share_no_model(self, name):
        """Each load builds its own models, posets and template."""
        first, second = load_doc(doc_path(name)), load_doc(doc_path(name))

        def built(doc):
            return ({id(m) for m in doc.models.values()} | {id(m.poset) for m in doc.models.values()}
                    | {id(doc.iteration), id(doc.iteration.template)})

        assert not built(first) & built(second)

    @pytest.mark.parametrize("name", ["i1.json", "fsi2_cohen_c.json", "case2.json"])
    def test_one_constant_name_per_model_element(self, name):
        """The constant literals of a load and its iteration's palettes hold
        one constant name per (model, element); two loads share none."""

        def constants(doc):
            it = doc.iteration
            tables = [n for x in it.template.points for n in
                      (it.assignments[x].qname,) + it.assignments[x].extra_entries
                      + it.assignments[x].widened_entries if n is not None]
            literals = [q for n in tables for q in n.antichain]
            literals += [q for n in doc.names.values() for antichain in n.antichains for q in antichain]
            found = [(x, e) for x in it.template.points for e in it.entry_palette(x)]
            found += [item for q in literals for item in q.entries]
            return [(doc.point_models[x], e) for x, e in found
                    if isinstance(e, DecisionTableName) and e.is_constant()]

        first, second = load_doc(doc_path(name)), load_doc(doc_path(name))
        objects: dict = {}
        for model, e in constants(first):
            objects.setdefault((id(model), e.table), set()).add(id(e))
        assert len(constants(first)) > len(objects) and all(len(ids) == 1 for ids in objects.values())
        assert not {id(e) for _, e in constants(first)} & {id(e) for _, e in constants(second)}
