"""Membership codes and evaluation functions as plain syntax trees.

A membership code is a boolean tree over two kinds of atoms: an E-atom
applies a model's relation E to a generic value and the condition computed
by an inner evaluation table, and a bit-atom reads one coordinate of a
characteristic function.  An FCode is an antichain-indexed table: per
output coordinate, the value paired with the unique member code that holds
(points where zero or several hold are outside the table's domain D and
take the default).

Synthesized codes share sub-codes, so a code is a DAG: `synth` keeps one
object per node value, and the nodes it keys its memos on (`AndNode`,
`EAtom`) hash once, so a lookup reads no subtree.  Evaluation runs
over a `Batch` of tuple-space points and visits each distinct node once
per batch: a node's value is a bit vector over the points, connectives are
bitwise operations, a bit-atom is one column of the points, and an E-atom
evaluates its table once and calls E once per distinct (generic value,
condition).  A point raises exactly what short-circuit evaluation at that
point alone would raise; a single point is the batch of one.  The results
of a code keep the batch's bit vector itself (`BitResults`), so a caller
can compare whole rows of bits, as the main theorem check does.

Equality used by the verification layer is semantic (exhaustive evaluation
over finite tuple spaces), never syntactic.  Codes serialize to
parenthesized prefix notation with exact round-trip.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .history import TuplePoint
from .iteration import _hash_once
from .models import BorelPosetModel
from .templates import Point


class IllFormedComposition(Exception):
    """An entry-valued evaluation table was undecided inside an E-atom."""


class MissingComponent(Exception):
    pass


@dataclass(frozen=True)
class TrueNode:
    def __str__(self):
        return "(true)"


@_hash_once
@dataclass(frozen=True)
class AndNode:
    children: tuple

    def __str__(self):
        return "(and " + " ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class OrNode:
    children: tuple

    def __str__(self):
        return "(or " + " ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class NotNode:
    child: Any

    def __str__(self):
        return f"(not {self.child})"


@dataclass(frozen=True)
class BitAtom:
    """z_x(xi) = 1 at a C coordinate."""

    point: Point
    xi: int

    def __str__(self):
        return f"(bit {self.point} {self.xi})"


@_hash_once
@dataclass(frozen=True)
class EAtom:
    """E_x(z_x, v) where v is produced by a condition-valued FCode."""

    point: Point
    model: BorelPosetModel
    cond: "FCode"

    def __str__(self):
        return f"(E {self.point} {self.cond})"


TRUE = TrueNode()

BorelCode = Any  # TrueNode | AndNode | OrNode | NotNode | BitAtom | EAtom


def _format_value(v: Any) -> str:
    from .models import element_label

    if isinstance(v, int):
        return str(v)
    return '"' + element_label(v) + '"'


@dataclass(frozen=True)
class FCode:
    """target 'real': tuple-of-naturals output, one case table per
    coordinate; target 'value': a single condition-valued table."""

    target: str
    coords: tuple[tuple[tuple[BorelCode, Any], ...], ...]
    default: Any

    def __str__(self):
        parts = [f"(fcode {self.target} (default {_format_value(self.default)})"]
        for table in self.coords:
            cases = " ".join(
                f"(case {_format_value(v)} {code})" for code, v in table
            )
            parts.append(f"(coord {cases})")
        return " ".join(parts) + ")"


class Results(Sequence):
    """One evaluation result per point of a batch.  Reading a point at which
    evaluation raised re-raises that exception; ``errors`` lists them as
    (bit mask of points, exception) pairs."""

    def __init__(self, values: list, errors: list):
        self.values = values
        self.errors = errors

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i: int):
        i = range(len(self))[i]
        for mask, exc in self.errors:
            if mask >> i & 1:
                raise exc
        return self._value(i)

    def _value(self, i: int):
        return self.values[i]

    def agrees(self, other: "Results") -> bool:
        """No point raised in either, and every point has one value in both."""
        return not (self.errors or other.errors) and self.values == other.values


class BitResults(Results):
    """The results of a code: ``bits`` is the batch's bit vector, bit i the
    value at point i (0 where evaluation raised), and ``values`` its bools."""

    def __init__(self, bits: int, size: int, errors: list):
        self.bits, self.size, self.errors = bits, size, errors

    @property
    def values(self) -> list[bool]:
        return [self.bits >> i & 1 == 1 for i in range(self.size)]

    def __len__(self):
        return self.size

    def _value(self, i: int) -> bool:
        return self.bits >> i & 1 == 1

    def agrees(self, other: "BitResults") -> bool:
        return not (self.errors or other.errors) and self.bits == other.bits


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _restrict(errors: list, mask: int) -> list:
    return [(m & mask, exc) for m, exc in errors if m & mask]


class Batch:
    """A batch of tuple-space points.

    A node's value over the batch is a bit vector: an int whose bit i is the
    value at point i, paired with the mask of points where evaluation raised
    and the exceptions raised there.  Each node is evaluated once per batch
    and strictness, memoized by identity; the memo holds the node, so its id
    cannot be reused while the batch lives."""

    def __init__(self, points: Iterable[TuplePoint]):
        self.points = tuple(points)
        self.full = (1 << len(self.points)) - 1
        self._memo: dict[bool, dict[int, tuple]] = {True: {}, False: {}}
        self._columns: dict = {}

    def __len__(self):
        return len(self.points)

    def node(self, code: BorelCode, strict: bool) -> tuple[int, int, list]:
        """(value, error mask, errors) of a code over the batch; the value is
        0 wherever evaluation raised."""
        memo = self._memo[strict]
        hit = memo.get(id(code))
        if hit is not None:
            return hit[1]
        vec = self._eval(code, strict)
        memo[id(code)] = (code, vec)
        return vec

    def _raise_everywhere(self, exc: Exception) -> tuple[int, int, list]:
        return 0, self.full, [(self.full, exc)]

    def _eval(self, code: BorelCode, strict: bool) -> tuple[int, int, list]:
        # and/or stop at the first child that decides a point, as all/any do,
        # so a point only raises where short-circuit evaluation would reach
        if isinstance(code, TrueNode):
            return self.full, 0, []
        if isinstance(code, AndNode):
            alive, err, errors = self.full, 0, []
            for child in code.children:
                if not alive:
                    break
                v, e, errs = self.node(child, strict)
                if e & alive:
                    errors += _restrict(errs, alive)
                    err |= e & alive
                alive &= v
            return alive, err, errors
        if isinstance(code, OrNode):
            value, dead, err, errors = 0, self.full, 0, []
            for child in code.children:
                if not dead:
                    break
                v, e, errs = self.node(child, strict)
                if e & dead:
                    errors += _restrict(errs, dead)
                    err |= e & dead
                value |= v & dead
                dead &= ~(v | e)
            return value, err, errors
        if isinstance(code, NotNode):
            v, e, errs = self.node(code.child, strict)
            return self.full & ~(v | e), e, errs
        if isinstance(code, BitAtom):
            return self._bit(code.point, code.xi)
        if isinstance(code, EAtom):
            return self._e_atom(code, strict)
        return self._raise_everywhere(TypeError(f"not a code node: {code!r}"))

    def _bit(self, x: Point, xi: int) -> tuple[int, int, list]:
        key = ("bit", x, xi)
        if key not in self._columns:
            ones, err, errors = 0, 0, []
            for i, pt in enumerate(self.points):
                try:
                    if pt.bit(x, xi) == 1:
                        ones |= 1 << i
                except KeyError as exc:
                    err |= 1 << i
                    errors.append((1 << i, MissingComponent(str(exc))))
            self._columns[key] = (ones, err, errors)
        return self._columns[key]

    def _component(self, x: Point) -> tuple[dict, int, list]:
        """The points grouped by their value at x, and where x is missing."""
        key = ("value", x)
        if key not in self._columns:
            groups: dict = {}
            err, errors = 0, []
            for i, pt in enumerate(self.points):
                try:
                    z = pt.value(x)
                except KeyError as exc:
                    err |= 1 << i
                    errors.append((1 << i, exc))
                    continue
                groups[z] = groups.get(z, 0) | 1 << i
            self._columns[key] = (groups, err, errors)
        return self._columns[key]

    def table(self, table, strict: bool) -> tuple[list, int, int, list]:
        """One coordinate of an FCode: per case, (points where it is the unique
        member code that holds, its value); the points where exactly one
        holds; and the error mask and errors, from the first raising case."""
        seen = many = err = 0
        errors: list = []
        masks = []
        for code, _ in table:
            v, e, errs = self.node(code, strict)
            if e & ~err:
                errors += _restrict(errs, ~err)
                err |= e
            many |= seen & v
            seen |= v
            masks.append(v)
        unique = seen & ~many & ~err
        return [(m & unique, value) for m, (_, value) in zip(masks, table)], unique, err, errors

    def _e_atom(self, atom: EAtom, strict: bool) -> tuple[int, int, list]:
        try:
            table = _value_table(atom.cond)
        except ValueError as exc:
            return self._raise_everywhere(exc)
        cases, unique, err, errors = self.table(table, strict)
        outside = self.full & ~(unique | err)
        if outside and strict:
            errors.append((outside, IllFormedComposition(f"evaluation table at {atom.point} undecided")))
            err |= outside
        elif outside:
            cases.append((outside, atom.model.poset.top))
        groups, missing, missing_errors = self._component(atom.point)
        if missing & ~err:
            errors += _restrict(missing_errors, ~err)
            err |= missing
        value = 0
        for z, at_z in groups.items():
            for at_v, v in cases:
                m = at_z & at_v & ~err
                if not m:
                    continue
                try:
                    if atom.model.E(z, v):
                        value |= m
                except Exception as exc:  # E is the model's own relation; its failure belongs to these points
                    errors.append((m, exc))
                    err |= m
        return value & ~err, err, errors


def _evaluate(points, evaluate):
    """``evaluate(batch)`` over a batch (a `Batch` or a sequence of points);
    for a single `TuplePoint`, its one result, or what evaluation raised."""
    if isinstance(points, TuplePoint):
        return evaluate(Batch((points,)))[0]
    return evaluate(points if isinstance(points, Batch) else Batch(points))


def _value_table(f: FCode):
    if f.target != "value":
        raise ValueError("expected a value-target evaluation table")
    (table,) = f.coords
    return table


def eval_code(code: BorelCode, points, strict: bool = True):
    """Standard boolean semantics of a code: `BitResults`, one bool per
    point of the batch ``points``; a single `TuplePoint` gives its bool."""

    def evaluate(batch: Batch) -> BitResults:
        value, _, errors = batch.node(code, strict)
        return BitResults(value, len(batch), errors)

    return _evaluate(points, evaluate)


def _eval_tables(f: FCode, batch: Batch, strict: bool) -> Results:
    """Per point, the tuple of per-coordinate values (the unique member
    code's value, else the default) and the flag that every coordinate was
    decided; a point raises what its first raising coordinate raises."""
    n = len(batch)
    columns, decided, err, errors = [], batch.full, 0, []
    for table in f.coords:
        cases, unique, e, errs = batch.table(table, strict)
        if e & ~err:
            errors += _restrict(errs, ~err)
            err |= e
        column = [f.default] * n
        for mask, value in cases:
            for i in _bits(mask):
                column[i] = value
        columns.append(column)
        decided &= unique
    values = [
        (tuple(column[i] for column in columns), decided >> i & 1 == 1) for i in range(n)
    ]
    return Results(values, errors)


def eval_fcode_detailed(f: FCode, points, strict: bool = True):
    """Evaluate a real-target FCode: per point (value tuple, flag that every
    coordinate was decided by exactly one member code); ``points`` as for
    `eval_code`."""
    if f.target != "real":
        raise ValueError("expected a real-target evaluation table")
    return _evaluate(points, lambda batch: _eval_tables(f, batch, strict))


def free_components(code: BorelCode) -> tuple[frozenset, dict[Point, frozenset]]:
    """The model-valued points and the per-point bit sets a code reads."""
    s_points: set = set()
    bits: dict[Point, set] = {}

    def walk(c):
        if isinstance(c, (AndNode, OrNode)):
            for ch in c.children:
                walk(ch)
        elif isinstance(c, NotNode):
            walk(c.child)
        elif isinstance(c, BitAtom):
            bits.setdefault(c.point, set()).add(c.xi)
        elif isinstance(c, EAtom):
            s_points.add(c.point)
            for table in c.cond.coords:
                for member, _ in table:
                    walk(member)

    walk(code)
    return frozenset(s_points), {x: frozenset(v) for x, v in bits.items()}


def fold_true(code: BorelCode) -> BorelCode:
    """Constant-fold TrueNode conjuncts; no other simplification."""
    if isinstance(code, AndNode):
        children = [fold_true(c) for c in code.children]
        children = [c for c in children if not isinstance(c, TrueNode)]
        if not children:
            return TRUE
        if len(children) == 1:
            return children[0]
        return AndNode(tuple(children))
    if isinstance(code, OrNode):
        return OrNode(tuple(fold_true(c) for c in code.children))
    if isinstance(code, NotNode):
        return NotNode(fold_true(code.child))
    if isinstance(code, EAtom):
        coords = tuple(
            tuple((fold_true(c), v) for c, v in table) for table in code.cond.coords
        )
        return EAtom(code.point, code.model, FCode(code.cond.target, coords, code.cond.default))
    return code


def fold_fcode(f: FCode) -> FCode:
    coords = tuple(tuple((fold_true(c), v) for c, v in table) for table in f.coords)
    return FCode(f.target, coords, f.default)


# ---------------------------------------------------------------------------
# Parenthesized prefix serialization


def print_code(code: BorelCode) -> str:
    return str(code)


def print_fcode(f: FCode) -> str:
    return str(f)


class ParseError(Exception):
    pass


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string literal")
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _read_sexpr(tokens: list[str], pos: int):
    if tokens[pos] != "(":
        return tokens[pos], pos + 1
    items = []
    pos += 1
    while tokens[pos] != ")":
        item, pos = _read_sexpr(tokens, pos)
        items.append(item)
    return items, pos + 1


def parse_code(text: str, models: Mapping[Point, BorelPosetModel]) -> BorelCode:
    """Parse a printed code back; E-atoms resolve their model and condition
    labels through the per-point model map."""
    tokens = _tokenize(text)
    tree, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        raise ParseError("trailing input after code")
    return _build_code(tree, models)


def parse_fcode(text: str, models: Mapping[Point, BorelPosetModel]) -> FCode:
    tokens = _tokenize(text)
    tree, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        raise ParseError("trailing input after code")
    return _build_fcode(tree, models, model=None)


def _build_code(tree, models: Mapping[Point, BorelPosetModel]) -> BorelCode:
    if not isinstance(tree, list) or not tree:
        raise ParseError(f"expected a code form, got {tree!r}")
    head = tree[0]
    if head == "true":
        return TRUE
    if head == "and":
        return AndNode(tuple(_build_code(t, models) for t in tree[1:]))
    if head == "or":
        return OrNode(tuple(_build_code(t, models) for t in tree[1:]))
    if head == "not":
        if len(tree) != 2:
            raise ParseError("not takes one argument")
        return NotNode(_build_code(tree[1], models))
    if head == "bit":
        if len(tree) != 3:
            raise ParseError("bit takes a point and an index")
        return BitAtom(tree[1], int(tree[2]))
    if head == "E":
        if len(tree) != 3:
            raise ParseError("E takes a point and an fcode")
        point = tree[1]
        if point not in models:
            raise ParseError(f"no model known for point {point}")
        model = models[point]
        return EAtom(point, model, _build_fcode(tree[2], models, model))
    raise ParseError(f"unknown code head {head!r}")


def _parse_value(token: str, model: BorelPosetModel | None):
    if isinstance(token, list):
        raise ParseError("expected a value token")
    if token.startswith('"'):
        label = token[1:-1]
        if model is None:
            raise ParseError("condition label outside an E-atom")
        return model.parse_label(label)
    return int(token)


def _build_fcode(tree, models, model: BorelPosetModel | None) -> FCode:
    if not isinstance(tree, list) or not tree or tree[0] != "fcode":
        raise ParseError("expected an fcode form")
    target = tree[1]
    if target not in ("real", "value"):
        raise ParseError(f"unknown fcode target {target!r}")
    default_form = tree[2]
    if not isinstance(default_form, list) or default_form[0] != "default":
        raise ParseError("fcode requires a default")
    default = _parse_value(default_form[1], model)
    coords = []
    for coord_form in tree[3:]:
        if not isinstance(coord_form, list) or coord_form[0] != "coord":
            raise ParseError("expected a coord form")
        table = []
        for case_form in coord_form[1:]:
            if not isinstance(case_form, list) or case_form[0] != "case":
                raise ParseError("expected a case form")
            value = _parse_value(case_form[1], model)
            member = _build_code(case_form[2], models)
            table.append((member, value))
        coords.append(tuple(table))
    return FCode(target, tuple(coords), default)
