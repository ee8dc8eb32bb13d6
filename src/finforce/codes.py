"""Membership codes and evaluation functions as plain syntax trees.

A membership code is a boolean tree over two kinds of atoms: an E-atom
applies a model's relation E to a generic value and the condition computed
by an inner evaluation table, and a bit-atom reads one coordinate of a
characteristic function.  An FCode is an antichain-indexed table: per
output coordinate, the value paired with the unique member code that holds
(points where zero or several hold are outside the table's domain D and
take the default).

Equality used by the verification layer is semantic (exhaustive evaluation
over finite tuple spaces), never syntactic.  Codes serialize to
parenthesized prefix notation with exact round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .history import TuplePoint
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


def eval_code(code: BorelCode, point: TuplePoint, strict: bool = True) -> bool:
    """Standard boolean semantics over a tuple-space point."""
    if isinstance(code, TrueNode):
        return True
    if isinstance(code, AndNode):
        return all(eval_code(c, point, strict) for c in code.children)
    if isinstance(code, OrNode):
        return any(eval_code(c, point, strict) for c in code.children)
    if isinstance(code, NotNode):
        return not eval_code(code.child, point, strict)
    if isinstance(code, BitAtom):
        try:
            return point.bit(code.point, code.xi) == 1
        except KeyError as exc:
            raise MissingComponent(str(exc)) from None
    if isinstance(code, EAtom):
        v, in_d = eval_fcode_value(code.cond, point, strict)
        if not in_d:
            if strict:
                raise IllFormedComposition(
                    f"evaluation table at {code.point} undecided"
                )
            v = code.model.poset.top
        z = point.value(code.point)
        return bool(code.model.E(z, v))
    raise TypeError(f"not a code node: {code!r}")


def _eval_table(f: FCode, table, point: TuplePoint, strict: bool) -> tuple[Any, bool]:
    """One coordinate of an FCode: the value of the member code that holds
    and True if exactly one holds, else (f.default, False)."""
    hits = [v for code, v in table if eval_code(code, point, strict)]
    if len(hits) == 1:
        return hits[0], True
    return f.default, False


def eval_fcode_value(f: FCode, point: TuplePoint, strict: bool = True) -> tuple[Any, bool]:
    """Evaluate a value-target FCode: (value, inside-domain flag)."""
    if f.target != "value":
        raise ValueError("expected a value-target evaluation table")
    (table,) = f.coords
    return _eval_table(f, table, point, strict)


def eval_fcode_detailed(f: FCode, point: TuplePoint, strict: bool = True) -> tuple[tuple, bool]:
    """Evaluate a real-target FCode: (value tuple, flag that every
    coordinate was decided by exactly one member code)."""
    if f.target != "real":
        raise ValueError("expected a real-target evaluation table")
    decided = [_eval_table(f, table, point, strict) for table in f.coords]
    return tuple(v for v, _ in decided), all(ok for _, ok in decided)


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


def free_components_fcode(f: FCode) -> tuple[frozenset, dict[Point, frozenset]]:
    s_points: set = set()
    bits: dict[Point, frozenset] = {}
    for table in f.coords:
        for code, _ in table:
            s, b = free_components(code)
            s_points |= s
            for x, xs in b.items():
                bits[x] = bits.get(x, frozenset()) | xs
    return frozenset(s_points), bits


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
