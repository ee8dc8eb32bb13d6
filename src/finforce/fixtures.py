"""Shipped fixtures: the three-point iteration exercising all coordinate
kinds, finite-support-iteration fixtures, and the case-two template.

The headline fixture ``i1`` has a Cohen coordinate (B), a three-ordinal
small-poset coordinate (C) whose name is constant, and an
eventually-different coordinate (R) whose subposet name decides between
the full model and its Cohen-like subposet according to the first Cohen
bit.  Entry palettes at the R coordinate are closed under compatible
meets so that induced filters stay directed.
"""

from __future__ import annotations

from .iteration import (
    Condition,
    DecisionTableName,
    IterandAssignment,
    SimpleIteration,
    SmallPosetSpec,
    SubposetSpec,
    const_name,
    make_condition,
)
from .models import cohen, ed
from .names import RealName
from .synth import encode_fsi, fsi_stage_b, fsi_stage_c
from .templates import full_powerset_template


def _cond(template, assignments) -> Condition:
    return make_condition(template.order.rank, assignments)


def v3_spec() -> SmallPosetSpec:
    """Three ordinals, 0 on top, 1 and 2 incomparable below."""
    return SmallPosetSpec(size=3, leq_pairs=((1, 0), (2, 0)))


def chain_spec(size: int) -> SmallPosetSpec:
    return SmallPosetSpec(size=size, leq_pairs=tuple((i + 1, i) for i in range(size - 1)))


class I1:
    """The three-point fixture with B, C and R coordinates, plus its
    registered names and widened entries."""

    def __init__(self, bad_subposet: bool = False):
        self.template = full_powerset_template(("a", "b", "c"))
        rank = self.template.order.rank
        self.cohen22 = cohen(2, 2)
        self.ed22 = ed(2, 2)

        p0 = _cond(self.template, {"a": const_name((0,))})
        p1 = _cond(self.template, {"a": const_name((1,))})
        self.branch_antichain = (p0, p1)

        ed_elements = self.ed22.poset.elements
        q_full = SubposetSpec(
            elements=frozenset(ed_elements),
            z_space=self.ed22.generic_space,
        )
        cohen_like = frozenset(e for e in ed_elements if not e[1])
        if bad_subposet:
            # drop every extension of one stem: the E-filters of the values
            # missing that branch no longer meet the subposet's antichains
            q_second = SubposetSpec(
                elements=frozenset({((), frozenset()), ((0,), frozenset())}),
                z_space=self.ed22.generic_space,
            )
        else:
            q_second = SubposetSpec(elements=cohen_like, z_space=self.ed22.generic_space)
        self.qc = DecisionTableName(
            base=frozenset({"a"}),
            antichain=(p0, p1),
            table=(q_full, q_second),
            label="Qc",
        )

        # Entry tables for the R coordinate.  Constants are excluded there:
        # a table entry whose branch is pinned by the condition's Cohen part
        # would become order-equal to the constant carrying that branch
        # value, breaking antisymmetry of the built poset.  The tables below
        # are pairwise distinct on both branches, their per-branch values
        # form chains or incompatible pairs, so induced filters stay
        # directed without any constant entries.
        f11 = frozenset({(1, 1)})
        none = frozenset()
        t1 = DecisionTableName(
            base=frozenset({"a"}),
            antichain=(p0, p1),
            table=(((), f11), ((0,), none)),
            label="t1",
        )
        t2 = DecisionTableName(
            base=frozenset({"a"}),
            antichain=(p0, p1),
            table=(((0,), f11), ((1,), none)),
            label="t2",
        )
        t3 = DecisionTableName(
            base=frozenset({"a"}),
            antichain=(p0, p1),
            table=(((0, 0), f11), ((0, 0), none)),
            label="t3",
        )
        t4 = DecisionTableName(
            base=frozenset({"a"}),
            antichain=(p0, p1),
            table=(((1, 1), none), ((0, 1), none)),
            label="t4",
        )
        # t5/t6 cover the remaining generic values on the 0-branch, so every
        # induced filter reaches a palette-minimal entry at c
        t5 = DecisionTableName(
            base=frozenset({"a"}),
            antichain=(p0, p1),
            table=(((0, 1), none), ((1, 0), none)),
            label="t5",
        )
        t6 = DecisionTableName(
            base=frozenset({"a"}),
            antichain=(p0, p1),
            table=(((1, 0), none), ((1, 1), none)),
            label="t6",
        )
        self.c_tables = (t1, t2, t3, t4, t5, t6)

        w1 = DecisionTableName(
            base=frozenset({"a"}),
            antichain=(p0, p1),
            table=(1, 2),
            label="w1",
        )
        self.w1 = w1

        assignments = {
            "a": IterandAssignment(kind="B", model=self.cohen22),
            "b": IterandAssignment(
                kind="C",
                gamma=3,
                support=frozenset({"a"}),
                qname=const_name(v3_spec(), label="Qb"),
                widened_entries=(w1,),
            ),
            "c": IterandAssignment(
                kind="R",
                model=self.ed22,
                support=frozenset({"a"}),
                qname=self.qc,
                extra_entries=self.c_tables,
                include_constants=False,
            ),
        }
        self.iteration = SimpleIteration(self.template, assignments)
        self.rank = rank

    def cond(self, assignments) -> Condition:
        return _cond(self.template, assignments)

    def registered_names(self) -> dict[str, RealName]:
        """The names the verification fixtures exercise (lengths 1 to 3)."""
        t1, _, _, t4, t5, t6 = self.c_tables
        p0, p1 = self.branch_antichain
        b1 = self.cond({"b": 1})
        b2 = self.cond({"b": 2})
        # reading the R coordinate requires pinning the branch inside the
        # members: on the 0-branch the four tables below split the generic
        # space of the full eventually-different subposet
        a0 = const_name((0,))
        m_avoid = self.cond({"a": a0, "c": t1})
        m_01 = self.cond({"a": a0, "c": t5})
        m_10 = self.cond({"a": a0, "c": t6})
        m_11 = self.cond({"a": a0, "c": t4})
        m_other = self.cond({"a": const_name((1,))})
        n1 = RealName(antichains=((p0, p1),), values=((5, 7),))
        n2 = RealName(antichains=((b1, b2),), values=((0, 1),))
        n3 = RealName(antichains=((p0, p1), (b1, b2)), values=((5, 7), (0, 1)))
        n4 = RealName(
            antichains=((p0, p1), (b1, b2), (m_avoid, m_01, m_10, m_11, m_other)),
            values=((5, 7), (0, 1), (2, 3, 4, 5, 6)),
        )
        return {"n1": n1, "n2": n2, "n3": n3, "n4": n4}


def i1() -> I1:
    return I1()


def i1_bad_subposet() -> I1:
    """Test-only mutation: the second subposet value is not nice."""
    return I1(bad_subposet=True)


def fsi2_cohen_cohen() -> tuple[SimpleIteration, dict[str, RealName]]:
    """Two Cohen stages; the registered name reads the first bit of the
    second stage's generic real."""
    it = encode_fsi([fsi_stage_b(cohen(2, 2)), fsi_stage_b(cohen(2, 2))])
    rank = it.template.order.rank
    m0 = make_condition(rank, {"1": const_name((0,))})
    m1 = make_condition(rank, {"1": const_name((1,))})
    stage1_bit = RealName(antichains=((m0, m1),), values=((0, 1),))
    b0 = make_condition(rank, {"0": const_name((0,))})
    b1 = make_condition(rank, {"0": const_name((1,))})
    both = RealName(
        antichains=((b0, b1), (m0, m1)),
        values=((0, 1), (0, 1)),
    )
    return it, {"stage1_bit": stage1_bit, "both_stages": both}


def fsi2_cohen_c() -> tuple[SimpleIteration, dict[str, RealName]]:
    """A Cohen stage followed by a C stage whose poset name depends on the
    Cohen branch: the V-shaped poset under 0, the three-chain under 1."""
    c22 = cohen(2, 2)
    template = full_powerset_template(("0", "1"))
    rank = template.order.rank
    s0 = make_condition(rank, {"0": const_name((0,))})
    s1 = make_condition(rank, {"0": const_name((1,))})
    qname = DecisionTableName(
        base=frozenset({"0"}),
        antichain=(s0, s1),
        table=(v3_spec(), chain_spec(3)),
        label="Q1",
    )
    it = encode_fsi([fsi_stage_b(c22), fsi_stage_c(3, qname)])
    c01 = make_condition(rank, {"0": const_name((0,)), "1": 1})
    c02 = make_condition(rank, {"0": const_name((0,)), "1": 2})
    c11 = make_condition(rank, {"0": const_name((1,)), "1": 1})
    mixed = RealName(antichains=((c01, c02, c11),), values=((0, 1, 2),))
    return it, {"mixed": mixed}


def fsi3_cohen() -> tuple[SimpleIteration, dict[str, RealName]]:
    """Three short Cohen stages, used by the history-invariance sweep."""
    c12 = cohen(1, 2)
    it = encode_fsi([fsi_stage_b(c12), fsi_stage_b(c12), fsi_stage_b(c12)])
    rank = it.template.order.rank
    m0 = make_condition(rank, {"2": const_name((0,))})
    m1 = make_condition(rank, {"2": const_name((1,))})
    last_bit = RealName(antichains=((m0, m1),), values=((0, 1),))
    mix0 = make_condition(rank, {"0": const_name((0,)), "2": const_name((0,))})
    mix1 = make_condition(rank, {"0": const_name((0,)), "2": const_name((1,))})
    mix2 = make_condition(rank, {"0": const_name((1,))})
    ends = RealName(antichains=((mix0, mix1, mix2),), values=((0, 1, 2),))
    return it, {"last_bit": last_bit, "ends": ends}


def case2_fixture() -> tuple[SimpleIteration, dict[str, RealName]]:
    """A four-point template whose top family omits the sets {2} and {0,2},
    so subsets like {0,2,3} fall outside the family at their maximum and
    code synthesis must delegate (or, for full-domain conditions, fall back
    to the factorization step).  The family is still union-, intersection-
    and trace-closed, and rich enough that induced filters stay directed."""
    from .templates import LinearOrder, validate_template

    order = LinearOrder(("0", "1", "2", "3"))
    families = {
        "0": [[]],
        "1": [[], ["0"]],
        "2": [[], ["0"], ["1"], ["0", "1"]],
        "3": [[], ["0"], ["1"], ["0", "1"], ["1", "2"], ["0", "1", "2"]],
    }
    template = validate_template(order, families)
    if isinstance(template, list):
        raise AssertionError(f"case2 template invalid: {template}")
    c12 = cohen(1, 2)
    assignments = {
        "0": IterandAssignment(kind="B", model=c12),
        "1": IterandAssignment(kind="B", model=c12),
        "2": IterandAssignment(kind="B", model=c12),
        "3": IterandAssignment(
            kind="C", gamma=2, support=frozenset({"1"}),
            qname=const_name(chain_spec(2), label="Q3"),
        ),
    }
    it = SimpleIteration(template, assignments)
    rank = template.order.rank
    u0 = make_condition(rank, {"0": const_name((0,))})
    u1 = make_condition(rank, {"0": const_name((1,))})
    first = RealName(antichains=((u0, u1),), values=((3, 4),))
    m0 = make_condition(rank, {"2": const_name((0,)), "3": 1})
    m1 = make_condition(rank, {"2": const_name((1,)), "3": 1})
    deep = RealName(antichains=((m0, m1),), values=((0, 1),))
    return it, {"first_bit": first, "deep": deep}
