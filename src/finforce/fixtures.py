"""Shipped fixtures: the three-point iteration exercising all coordinate
kinds, finite-support-iteration fixtures, and the case-two template.

Each fixture parses a shipped workdoc (``i1.json``, ``fsi2_cc.json``,
``fsi2_cohen_c.json``, ``fsi3.json``, ``case2.json``), so the tests run on
the same parser path as ``finforce verify``.

The headline fixture ``i1`` has a Cohen coordinate (B), a three-ordinal
small-poset coordinate (C) whose name is constant, and an
eventually-different coordinate (R) whose subposet name decides between
the full model and its Cohen-like subposet according to the first Cohen
bit.  Entry palettes at the R coordinate are closed under compatible
meets so that induced filters stay directed.
"""

from __future__ import annotations

import json
from importlib import resources

from .iteration import Condition, SimpleIteration, make_condition
from .names import RealName
from .workdoc import WorkbenchDoc, parse_doc


def _shipped(name: str) -> dict:
    return json.loads(resources.files(__package__).joinpath("workdocs", name).read_text())


def _parse(raw: dict) -> WorkbenchDoc:
    return parse_doc(json.dumps(raw))


def _iteration_and_names(name: str) -> tuple[SimpleIteration, dict[str, RealName]]:
    doc = _parse(_shipped(name))
    return doc.iteration, doc.names


def _labelled(names, label: str):
    return next(n for n in names if n.label == label)


class I1:
    """The three-point fixture with B, C and R coordinates, plus its
    registered names and widened entries, read from ``i1.json``."""

    def __init__(self, raw: dict):
        self.doc = _parse(raw)
        self.iteration = self.doc.iteration
        self.template = self.iteration.template
        self.cohen22 = self.doc.models["S_a"]
        self.ed22 = self.doc.models["S_c"]
        b, c = self.iteration.assignments["b"], self.iteration.assignments["c"]
        self.qc = c.qname
        self.branch_antichain = self.qc.antichain
        self.c_tables = tuple(_labelled(c.extra_entries, f"t{i}") for i in range(1, 7))
        self.w1 = _labelled(b.widened_entries, "w1")

    def cond(self, assignments) -> Condition:
        return make_condition(self.template.order.rank, assignments)

    def registered_names(self) -> dict[str, RealName]:
        """The names the verification fixtures exercise (lengths 1 to 3)."""
        return dict(self.doc.names)


def i1() -> I1:
    return I1(_shipped("i1.json"))


def i1_bad_subposet() -> I1:
    """Test-only mutation: the second subposet value drops every extension
    of one stem, so the E-filters of the values missing that branch no
    longer meet the subposet's antichains."""
    raw = _shipped("i1.json")
    raw["iteration"]["c"]["subposet"]["table"][1]["value"] = {"elements": ["|", "0|"]}
    return I1(raw)


def fsi2_cohen_cohen() -> tuple[SimpleIteration, dict[str, RealName]]:
    """Two Cohen stages; ``stage1_bit`` reads the first bit of the second
    stage's generic real."""
    return _iteration_and_names("fsi2_cc.json")


def fsi2_cohen_c() -> tuple[SimpleIteration, dict[str, RealName]]:
    """A Cohen stage followed by a C stage whose poset name depends on the
    Cohen branch: the V-shaped poset under 0, the three-chain under 1."""
    return _iteration_and_names("fsi2_cohen_c.json")


def fsi3_cohen() -> tuple[SimpleIteration, dict[str, RealName]]:
    """Three short Cohen stages, used by the history-invariance sweep."""
    return _iteration_and_names("fsi3.json")


def case2_fixture() -> tuple[SimpleIteration, dict[str, RealName]]:
    """A four-point template whose top family omits the sets {2} and {0,2},
    so subsets like {0,2,3} fall outside the family at their maximum and
    code synthesis must delegate (or, for full-domain conditions, fall back
    to the factorization step).  The family is still union-, intersection-
    and trace-closed, and rich enough that induced filters stay directed."""
    return _iteration_and_names("case2.json")
