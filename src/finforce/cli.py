"""Command-line front end: validate workbench documents, synthesize codes,
and run the verification suite.

Exit codes: 0 pass, 1 check or validation failure, 2 parse or usage
error (a report path that cannot be written among them), 3 resource cap
exceeded or out of memory in a check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial

from .codes import fold_fcode, fold_true, print_code, print_fcode
from .history import history_of_condition, history_of_name, tuple_space
from .iteration import IterationError, ResourceCapExceeded
from .models import check_nice_subposet
from .synth import synth_E, synth_F
from .verify import run_checks
from .workdoc import DocError, load_doc, parse_doc

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3


def _load(path: str):
    try:
        return load_doc(path), None
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        return None, EXIT_PARSE
    except json.JSONDecodeError as exc:
        print(f"parse error: line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return None, EXIT_PARSE
    except DocError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return None, EXIT_CAP


def _validate(doc) -> list[str]:
    diagnostics = []
    for v in doc.template_violations:
        diagnostics.append(f"template: {v}")
    for label, problems in doc.model_violations.items():
        for p in problems:
            diagnostics.append(f"model {label}: {p}")
    if doc.iteration is not None:
        it = doc.iteration
        for x in it.template.points:
            asg = it.assignments[x]
            # every table name must meet its antichain on every generic it is
            # read on: the coordinate's own name over the support, an entry
            # name over its base
            reads = [(e.base, partial(it.interpret_entry, x, e))
                     for e in asg.extra_entries + asg.widened_entries]
            if asg.kind != "B":
                interpret = it.interpret_subposet_spec if asg.kind == "R" else it.interpret_c_poset
                reads.insert(0, (asg.support, partial(interpret, x)))
            for base, read in reads:
                try:
                    for zbar in it.enumerate_generics(base):
                        read(zbar)
                except IterationError as exc:
                    diagnostics.append(f"table name at {x}: {exc}")
            if asg.kind != "R":
                continue
            for member, spec in zip(asg.qname.antichain, asg.qname.table):
                try:
                    problems = check_nice_subposet(asg.model, spec.elements, spec.z_space)
                except ValueError as exc:
                    diagnostics.append(f"subposet at {x} ({member}): {exc}")
                    continue
                for p in problems:
                    diagnostics.append(f"subposet at {x} under {member}: {p}")
        # a registered name is a name over the whole iteration, so its
        # antichain members must be conditions of P* over every point;
        # membership reads every table name, so this waits for them to pass
        full = it.template.all_points()
        for label, name in doc.names.items() if not diagnostics else ():
            for i, antichain in enumerate(name.antichains):
                for q in antichain:
                    if not it.member_pstar(full, q):
                        diagnostics.append(f"name {label}: antichain {i} member {q} is not in P*")
    return diagnostics


def cmd_validate(args) -> int:
    doc, err = _load(args.doc)
    if doc is None:
        return err
    diagnostics = _validate(doc)
    if diagnostics:
        for d in diagnostics:
            print(d)
        return EXIT_FAIL
    print("ok")
    return EXIT_PASS


def cmd_synth(args) -> int:
    doc, err = _load(args.doc)
    if doc is None:
        return err
    if doc.template_violations:
        for v in doc.template_violations:
            print(f"template: {v}", file=sys.stderr)
        return EXIT_FAIL
    # synth skips `_validate`, which would cost a point query a large share
    # of its time, so a table name that misses a generic it is read on
    # surfaces here, as an IterationError
    try:
        return _synth(doc, args)
    except IterationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def _synth(doc, args) -> int:
    it = doc.iteration
    full = it.template.all_points()
    if args.name:
        if args.name not in doc.names:
            print(f"error: unknown name {args.name!r}", file=sys.stderr)
            return EXIT_FAIL
        name = doc.names[args.name]
        fcode = fold_fcode(synth_F(it, full, name))
        space = tuple_space(it, history_of_name(it, full, name))
        print(print_fcode(fcode))
        print(f"space: {space}")
        return EXIT_PASS
    if args.cond is not None:
        try:
            literal = json.loads(args.cond)
        except json.JSONDecodeError as exc:
            print(f"parse error in --cond: {exc.msg}", file=sys.stderr)
            return EXIT_PARSE
        from .workdoc import _parse_condition

        try:
            entry_names = {}
            for x in it.template.points:
                for e in it.assignments[x].extra_entries:
                    entry_names[e.label] = e
            cond = _parse_condition(
                literal, it.rank, doc.point_models, entry_names, "--cond"
            )
        except DocError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        if not it.member_pstar(full, cond):
            print(f"error: {cond} is not a member of the iteration", file=sys.stderr)
            return EXIT_FAIL
        code = fold_true(synth_E(it, full, cond))
        space = tuple_space(it, history_of_condition(it, full, cond))
        print(print_code(code))
        print(f"space: {space}")
        return EXIT_PASS
    print("error: synth needs --name or --cond", file=sys.stderr)
    return EXIT_FAIL


def _report_text(reports) -> str:
    lines = []
    for r in reports:
        lines.append(r.summary())
        for f in sorted(r.failures, key=lambda f: f.sort_key()):
            lines.append(
                f"  failure kind={f.kind} condition={f.condition} name={f.name} "
                f"zbar={f.zbar} expected={f.expected} actual={f.actual}"
            )
    return "\n".join(lines) + "\n"


def _report_structured(reports) -> str:
    return json.dumps([r.to_json() for r in reports], sort_keys=True, indent=2) + "\n"


def cmd_verify(args) -> int:
    if args.max_conditions is not None and args.max_conditions < 1:
        print(f"error: --max-conditions must be at least 1, not {args.max_conditions}", file=sys.stderr)
        return EXIT_PARSE
    doc, err = _load(args.doc)
    if doc is None:
        return err
    diagnostics = _validate(doc)
    if diagnostics:
        for d in diagnostics:
            print(d)
        return EXIT_FAIL
    it = doc.iteration
    if args.max_conditions is not None:
        it.max_conditions = args.max_conditions
    seed = doc.seed if args.seed is None else args.seed
    # opened before the checks, without truncating, so a bad path costs no
    # run; written once they all finish, and a file this run made is
    # removed if no report comes
    created = bool(args.report) and not os.path.exists(args.report)
    try:
        if args.report:
            open(args.report, "a", encoding="utf-8").close()
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_PARSE
    reports, stopped, written = [], None, False
    try:
        for check in doc.checks:
            try:
                reports += run_checks(it, doc.names, [check], seed=seed)
            except ResourceCapExceeded as exc:
                stopped = EXIT_CAP, f"resource cap exceeded: {exc}"
            except MemoryError:
                stopped = EXIT_CAP, f"out of memory in check {check}"
            except IterationError as exc:
                stopped = EXIT_FAIL, f"error in check {check}: {exc}"
            if stopped:
                break
        if args.report and not stopped:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(_report_text(reports) if args.format == "text" else _report_structured(reports))
            written = True
    finally:
        if created and not written:
            os.remove(args.report)
    if stopped:
        print(stopped[1], file=sys.stderr)
        return stopped[0]
    for r in reports:
        print(r.summary())
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it holds no document
    state, and `main` finds each command's function by name when it runs."""
    parser = argparse.ArgumentParser(
        prog="finforce",
        description="finite template-iteration workbench: validate, synthesize, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a workbench document")
    p_val.add_argument("--doc", required=True, help="path to the document")

    p_syn = sub.add_parser("synth", help="print a membership code or evaluation function")
    p_syn.add_argument("--doc", required=True)
    p_syn.add_argument("--name", help="registered name label")
    p_syn.add_argument("--cond", help="condition literal as JSON")

    p_ver = sub.add_parser("verify", help="run the registered checks")
    p_ver.add_argument("--doc", required=True)
    p_ver.add_argument("--report", help="write the report to this path")
    p_ver.add_argument("--max-conditions", type=int, help="at least 1; default: the document's cap")
    p_ver.add_argument("--seed", type=int, help="default: the document's seed")
    p_ver.add_argument("--format", choices=("text", "structured"), default="structured")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
