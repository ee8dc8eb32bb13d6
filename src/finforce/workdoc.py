"""The declarative workbench document: one JSON file describing a template,
its models, the iteration, registered names and the checks to run.

Parsing is deterministic and validating: every label must be declared
before use, and structural problems are reported with a JSON path.  A
model's generic-filter invariants are checked on demand, when validation
first reads `WorkbenchDoc.model_violations`, so a load builds only what
every caller reads.  The parsed document can rebuild its JSON form exactly
(round-trip identity on the normalized structure).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from graphlib import CycleError, TopologicalSorter
from typing import Any

from .iteration import (
    TRIV,
    Condition,
    DecisionTableName,
    IterandAssignment,
    ResourceCapExceeded,
    SimpleIteration,
    SmallPosetSpec,
    SubposetSpec,
    make_condition,
    model_constant,
)
from .models import BorelPosetModel, cohen, ed, ed_naive, validate_borel_model
from .names import RealName
from .templates import LinearOrder, Violation, validate_template


class DocError(Exception):
    """A structural problem in a workbench document, with its JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class WorkbenchDoc:
    """A parsed document: the normalized JSON plus the constructed objects."""

    raw: dict
    iteration: SimpleIteration
    models: dict[str, BorelPosetModel]
    point_models: dict[str, BorelPosetModel]
    names: dict[str, RealName]
    checks: list[str]
    seed: int
    template_violations: list[Violation] = field(default_factory=list)

    @cached_property
    def model_violations(self) -> dict[str, list]:
        """The problems `validate_borel_model` finds, by model label, for
        the models that have any.  Computed on first read and kept on this
        document: only validation reads it, so a point query never pays for
        it."""
        return {label: problems for label, model in self.models.items()
                if (problems := validate_borel_model(model))}

    def to_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, indent=2) + "\n"


_BUILTINS = {"cohen": cohen, "ed": ed, "ed_naive": ed_naive}


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise DocError(path, message)


def _shaped(v: Any, kind: type, path: str) -> Any:
    """v itself, once it is a JSON object (kind dict) or array (kind list)."""
    _expect(isinstance(v, kind), path, f"must be a JSON {'object' if kind is dict else 'array'}")
    return v


def _natural(v: Any, least: int = 0) -> bool:
    """A JSON integer of at least `least`; JSON true and false are not."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _model_size(builtin: str, length: int, alphabet: int, cap: int) -> int:
    """The element count of a built-in model from its closed form: the stems
    sum alphabet**i over i <= length, and ed and ed_naive pair each stem with
    each of the 2**(alphabet**length) function sets.  A count past 2**4096
    (or past the cap's bit length, if longer) is cut short there: it stays
    over cap, and no huge power is formed or printed."""
    bits = max(cap.bit_length(), 4096)
    stems, width = 0, 1
    for _ in range(length + 1):
        stems += width
        if stems.bit_length() > bits:
            return stems
        width *= alphabet
    if builtin == "cohen":
        return stems
    return stems << min(width // alphabet, bits)


def _points(v: Any, path: str) -> frozenset:
    _expect(isinstance(v, list) and all(isinstance(x, str) for x in v), path,
            "must be a JSON array of point names")
    return frozenset(v)


def _parse_label(model: BorelPosetModel, label: Any, path: str) -> Any:
    try:
        return model.parse_label(label)
    except Exception:
        raise DocError(path, f"bad element label {label!r}") from None


def _element(model: BorelPosetModel, label: Any, path: str) -> Any:
    el = _parse_label(model, label, path)
    _expect(el in model.poset.index, path, f"element {label!r} not in the model")
    return el


def _named(names: dict, ref: Any, path: str, what: str = "entry name") -> Any:
    """names[ref], for a string ref that names holds."""
    _expect(isinstance(ref, str) and ref in names, path, f"unknown {what} {ref!r}")
    return names[ref]


def _listed(names: dict, declared_at: dict, cfg: dict, x: str, key: str, what: str) -> tuple:
    """The names that ``iteration.x.key`` lists, each declared at x
    (``declared_at`` maps their labels to their points)."""
    path = f"iteration.{x}.{key}"
    out = []
    for ref in _shaped(cfg.get(key, []), list, path):
        out.append(_named(names, ref, path, what))
        _expect(declared_at[ref] == x, path, f"{what} {ref!r} is declared at {declared_at[ref]}, not {x}")
    return tuple(out)


def _parse_model(label: str, spec: dict, cap: int) -> BorelPosetModel:
    """Build a built-in model, refusing one with more elements than cap
    before any construction: each element is a condition at every B
    coordinate the model serves."""
    path = f"models.{label}"
    _expect(isinstance(spec, dict), path, "model spec must be an object")
    builtin = spec.get("builtin")
    build = _named(_BUILTINS, builtin, path, "builtin")
    length = spec.get("length", 2)
    alphabet = spec.get("alphabet", 2)
    _expect(_natural(length, 1), path, "length must be a positive integer")
    _expect(_natural(alphabet, 2), path, "alphabet must be at least 2")
    size = _model_size(builtin, length, alphabet, cap)
    if size > cap:
        raise ResourceCapExceeded(
            f"elements of model {label} = {builtin}({length},{alphabet})", size, cap
        )
    return build(length, alphabet)


def _parse_entry_literal(lit: Any, point: str, point_models: dict,
                         entry_names: dict, path: str):
    if _natural(lit):
        _expect(point not in point_models, path, f"ordinal entry {lit} at a model point")
        return lit
    if lit == "trivial":
        return TRIV
    if isinstance(lit, dict) and "const" in lit:
        model = point_models.get(point)
        _expect(model is not None, path, f"point {point} has no model for a constant")
        return model_constant(model, _element(model, lit["const"], path))
    if isinstance(lit, dict) and "entry" in lit:
        return _named(entry_names, lit["entry"], path)
    raise DocError(path, f"cannot read entry literal {lit!r}")


def _parse_condition(lit: Any, rank: dict, point_models: dict,
                     entry_names: dict, path: str) -> Condition:
    _expect(isinstance(lit, dict), path, "condition literal must be an object")
    assignments = {}
    for point, entry_lit in lit.items():
        _expect(point in rank, f"{path}.{point}", f"unknown point {point!r}")
        assignments[point] = _parse_entry_literal(
            entry_lit, point, point_models, entry_names, f"{path}.{point}"
        )
    return make_condition(rank, assignments)


def _parse_table_name(label: str, spec: dict, rank, point_models, entry_names,
                      value_parser, path: str) -> DecisionTableName:
    _expect(isinstance(spec, dict), path, "table name must be an object")
    base = _points(spec.get("base", []), f"{path}.base")
    for x in base:
        _expect(x in rank, path, f"unknown base point {x!r}")
    rows = spec.get("table")
    _expect(isinstance(rows, list) and rows, path, "table must be a nonempty list")
    antichain = []
    values = []
    for i, row in enumerate(rows):
        rpath = f"{path}.table[{i}]"
        _expect(isinstance(row, dict) and "when" in row and "value" in row,
                rpath, "rows need 'when' and 'value'")
        cond = _parse_condition(row["when"], rank, point_models, entry_names, rpath)
        _expect(cond.domain <= base and all(
            e.base <= base for _, e in cond.entries if isinstance(e, DecisionTableName)
        ), f"{rpath}.when", f"condition reads points outside the base {sorted(base)}")
        antichain.append(cond)
        values.append(value_parser(row["value"], rpath))
    return DecisionTableName(
        base=base, antichain=tuple(antichain), table=tuple(values), label=label
    )


def _parse_small_poset(value: Any, path: str) -> SmallPosetSpec:
    _expect(isinstance(value, dict) and "size" in value, path, "poset value needs a size")
    size = value["size"]
    _expect(_natural(size, 1), path, "size must be a positive integer")

    def ordinal(v: Any) -> bool:
        return _natural(v) and v < size

    leq = value.get("leq", [])
    _expect(isinstance(leq, list), f"{path}.leq", "leq must be a list of pairs")
    for i, pair in enumerate(leq):
        _expect(isinstance(pair, list) and len(pair) == 2 and all(map(ordinal, pair)),
                f"{path}.leq[{i}]", f"leq pair {pair!r} is not two ordinals below {size}")
    blocks = value.get("blocks", [])
    _expect(isinstance(blocks, list) and all(isinstance(b, list) and all(map(ordinal, b))
                                             for b in blocks),
            f"{path}.blocks", f"blocks must be lists of ordinals below {size}")
    # the order that leq generates, with every ordinal below the top 0, is
    # a partial order exactly when its strict part has no cycle; this is
    # checked without building the poset, which every document load would pay
    graph = {v: {0} for v in range(1, size)}
    for a, b in leq:
        if a != b:
            graph.setdefault(a, set()).add(b)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise DocError(path, f"leq closes the cycle {exc.args[1]}, so it is not a partial order "
                             "with top 0") from None
    return SmallPosetSpec(size=size, leq_pairs=tuple(tuple(pair) for pair in leq))


def _parse_subposet(value: Any, model: BorelPosetModel, path: str) -> SubposetSpec:
    if value == "full":
        return SubposetSpec(
            elements=frozenset(model.poset.elements), z_space=model.generic_space
        )
    _expect(isinstance(value, dict) and "elements" in value, path,
            "subposet value must be 'full' or list its elements")
    labels = _shaped(value["elements"], list, f"{path}.elements")
    elements = [_element(model, lbl, path) for lbl in labels]
    zs = value.get("z")
    if zs is None:
        z_space = model.generic_space
    else:
        z_space = tuple(_parse_label(model, z, path) for z in _shaped(zs, list, f"{path}.z"))
        for z in z_space:
            _expect(z in model.generic_space, path, "restricted generic value not in Z")
    return SubposetSpec(elements=frozenset(elements), z_space=z_space)


def parse_doc(text: str) -> WorkbenchDoc:
    """Parse and construct a workbench document.  Raises DocError (with a
    JSON path) or json.JSONDecodeError (with line/column) on bad input."""
    raw = json.loads(text)
    _expect(isinstance(raw, dict), "$", "document must be a JSON object")
    run = _shaped(raw.get("run", {}), dict, "run")
    max_conditions = run.get("max_conditions", 100_000)
    _expect(_natural(max_conditions, 1), "run.max_conditions", "max_conditions must be a positive integer")

    tspec = raw.get("template")
    _expect(isinstance(tspec, dict), "template", "missing template block")
    points = tspec.get("points")
    _expect(isinstance(points, list) and points, "template.points", "points must be a nonempty list")
    _expect(all(isinstance(p, str) for p in points), "template.points", "points must be strings")
    _expect(len(set(points)) == len(points), "template.points", "points must be distinct")
    order = LinearOrder(tuple(points))
    rank = order.rank
    families_raw = _shaped(tspec.get("families", {}), dict, "template.families")
    _expect(set(families_raw) <= set(points), "template.families", "family for unknown point")
    families = {}
    for p in points:
        path = f"template.families.{p}"
        families[p] = [_points(b, path) for b in _shaped(families_raw.get(p, [[]]), list, path)]
    result = validate_template(order, families)
    template_violations: list[Violation] = []
    if isinstance(result, list):
        template_violations = result
        template = None
    else:
        template = result

    models = {label: _parse_model(label, spec, max_conditions)
              for label, spec in _shaped(raw.get("models", {}), dict, "models").items()}

    iteration = None
    point_models: dict[str, BorelPosetModel] = {}
    names: dict[str, RealName] = {}
    if template is not None:
        ispec = _shaped(raw.get("iteration", {}), dict, "iteration")
        _expect(set(ispec) == set(points), "iteration",
                f"iteration must assign every point exactly once, got {sorted(ispec)}")
        for x, cfg in ispec.items():
            kind = _shaped(cfg, dict, f"iteration.{x}").get("kind")
            _expect(kind in ("B", "R", "C"), f"iteration.{x}", f"bad kind {kind!r}")
            if kind in ("B", "R"):
                point_models[x] = _named(models, cfg.get("model"), f"iteration.{x}", "model")

        entry_names: dict[str, DecisionTableName] = {}
        entry_at: dict[str, str] = {}
        for label, espec in _shaped(raw.get("entries", {}), dict, "entries").items():
            point = entry_at[label] = _shaped(espec, dict, f"entries.{label}").get("point")
            _expect(isinstance(point, str) and point in point_models, f"entries.{label}",
                    f"entry names need a B/R point, got {point!r}")
            entry_names[label] = _parse_table_name(
                label, espec, rank, point_models, entry_names,
                partial(_element, point_models[point]), f"entries.{label}",
            )

        widened_names: dict[str, DecisionTableName] = {}
        widened_at: dict[str, str] = {}
        for label, wspec in _shaped(raw.get("widened_entries", {}), dict, "widened_entries").items():
            point = _shaped(wspec, dict, f"widened_entries.{label}").get("point")
            _named(rank, point, f"widened_entries.{label}", "point")
            _expect(point not in point_models, f"widened_entries.{label}.point",
                    f"widened entries need a C point, got {point!r}")
            widened_at[label] = point

            def ordinal_parser(v, path):
                _expect(_natural(v), path, "widened values must be ordinals")
                return v

            widened_names[label] = _parse_table_name(
                label, wspec, rank, point_models, entry_names,
                ordinal_parser, f"widened_entries.{label}",
            )

        assignments = {}
        for x, cfg in ispec.items():
            path = f"iteration.{x}"
            kind = cfg["kind"]
            support = _points(cfg.get("support", []), f"{path}.support")
            extra = _listed(entry_names, entry_at, cfg, x, "entries", "entry name")
            widened = _listed(widened_names, widened_at, cfg, x, "widened", "widened entry")
            include_constants = cfg.get("constants", True)
            _expect(isinstance(include_constants, bool), f"{path}.constants",
                    "must be a JSON boolean")
            if kind == "B":
                assignments[x] = IterandAssignment(
                    kind="B", model=point_models[x], extra_entries=extra,
                    include_constants=include_constants,
                )
            elif kind == "C":
                _expect("constants" not in cfg, f"{path}.constants",
                        "a C point has no constant entries; constants is for B and R points")
                gamma = cfg.get("gamma")
                _expect(_natural(gamma, 1), path, "C needs a gamma")
                pspec = cfg.get("poset")
                _expect(isinstance(pspec, dict), path, "C needs a poset name")
                qname = _parse_table_name(
                    f"Q_{x}", pspec, rank, point_models, entry_names,
                    _parse_small_poset, f"{path}.poset",
                )
                for v in qname.table:
                    _expect(v.size == gamma, f"{path}.poset", "poset size must equal gamma")
                for w in widened:
                    for i, v in enumerate(w.table):
                        _expect(v < gamma, f"widened_entries.{w.label}.table[{i}]",
                                f"widened value {v} is not below the gamma {gamma} of {x}")
                assignments[x] = IterandAssignment(
                    kind="C", gamma=gamma, support=support, qname=qname,
                    widened_entries=widened,
                )
            else:
                sspec = cfg.get("subposet")
                _expect(isinstance(sspec, dict), path, "R needs a subposet name")
                model = point_models[x]
                qname = _parse_table_name(
                    f"Q_{x}", sspec, rank, point_models, entry_names,
                    lambda v, p, _m=model: _parse_subposet(v, _m, p), f"{path}.subposet",
                )
                assignments[x] = IterandAssignment(
                    kind="R", model=model, support=support, qname=qname,
                    extra_entries=extra, include_constants=include_constants,
                )
            if kind != "B":
                _expect(qname.base <= support, f"{path}.support",
                        f"support must contain the base {sorted(qname.base)} of Q_{x}")

        try:
            iteration = SimpleIteration(template, assignments, max_conditions=max_conditions)
        except ValueError as exc:
            raise DocError("iteration", str(exc)) from None

        for label, rows in _shaped(raw.get("names", {}), dict, "names").items():
            path = f"names.{label}"
            _expect(isinstance(rows, list) and rows, path, "a name is a list of coordinates")
            antichains = []
            values = []
            for i, row in enumerate(rows):
                _expect(isinstance(row, list) and row, f"{path}[{i}]",
                        "each coordinate is a list of cases")
                ac, vs = [], []
                for j, case in enumerate(row):
                    cpath = f"{path}[{i}][{j}]"
                    _expect(isinstance(case, dict) and "when" in case and "value" in case,
                            cpath, "cases need 'when' and 'value'")
                    ac.append(_parse_condition(case["when"], rank, point_models, entry_names, cpath))
                    _expect(_natural(case["value"]), cpath, "name values are naturals")
                    vs.append(case["value"])
                antichains.append(tuple(ac))
                values.append(tuple(vs))
            names[label] = RealName(tuple(antichains), tuple(values))

    from .verify import CHECKS

    checks = _shaped(run.get("checks", list(CHECKS)), list, "run.checks")
    _expect(checks, "run.checks", "must name at least one check")
    for i, c in enumerate(checks):
        _named(CHECKS, c, "run.checks", "check")
        _expect(c not in checks[:i], "run.checks", f"check {c!r} is listed twice")
    seed = run.get("seed", 0)
    _expect(_natural(seed), "run.seed", "seed must be a natural")
    return WorkbenchDoc(
        raw=raw,
        iteration=iteration,
        models=models,
        point_models=point_models,
        names=names,
        checks=checks,
        seed=seed,
        template_violations=template_violations,
    )


def load_doc(path: str) -> WorkbenchDoc:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_doc(fh.read())
