"""Synthesis of membership codes and evaluation functions.

`synth_E` builds, by recursion on the depth of the ambient set, a boolean
code over the condition's tuple space that decides membership in the
induced generic filter.  The recursion follows the case split on the
ambient set: when the past of its maximum lies in the family, membership
factorizes through that coordinate (an E-atom or bit-atom conjunct); when
it does not, the construction delegates to the first of the strictly
smaller admissible sets (`case2_contexts`).  A nonempty finite set always
has a maximum, so the no-maximum case degenerates to the empty set.  Each
step is memoized per (A, p), so a code reuses the codes of the smaller
sets it recurses to, and equal codes, atoms and evaluation functions are
one object (`_atom`, `_conjunct`, `_real_fcode`).  The code of p
over another admissible target A' is `synth_E` over A' itself: a deeper
set is a strict subset of A' and never offers A' again.

`synth_F` assembles, per output coordinate of a name, the member codes of
its antichain with their decided values.
"""

from __future__ import annotations

from .codes import TRUE, AndNode, BitAtom, EAtom, FCode
from .iteration import (
    TRIV,
    Condition,
    DecisionTableName,
    MembershipError,
    SimpleIteration,
)
from .models import BorelPosetModel
from .names import RealName
from .posets import memoized
from .templates import Point, Subset, trace_family


def case2_contexts(it: SimpleIteration, a: Subset, p: Condition) -> list[Subset]:
    """Admissible delegation targets when the past of max(A) is outside the
    family: strictly smaller sets B or B+{max} with B in the trace, still
    carrying p."""
    x = it.template.order.max_of(a)
    candidates = set()
    for b in trace_family(it.template, x, a):
        for cand in (b, b | {x}):
            if cand != a and p.domain <= cand and it.member_pstar(cand, p):
                candidates.add(cand)
    return it.template.sorted_subsets(candidates)


def synth_E(it: SimpleIteration, a: Subset, p: Condition):
    """A membership code for p over its tuple space, relative to A."""
    if not it.member_pstar(a, p):
        raise MembershipError(f"{p} is not a member of P*|{sorted(a)}")
    return _code(it, a, p)


@memoized
def _code(it: SimpleIteration, a: Subset, p: Condition):
    if not a:
        # the only subset without a maximum is the empty one; its only
        # member is the empty condition over the one-point tuple space
        return TRUE
    x = it.template.order.max_of(a)
    past = it.past_in(a, x)
    if past in it.template.families[x]:
        return _factorize(it, a, x, p)
    candidates = case2_contexts(it, a, p)
    if candidates:
        # the first candidate in canonical order is the canonical choice,
        # as in `SimpleIteration.canonical_context`
        return _code(it, candidates[0], p)
    # no strictly smaller admissible set covers the condition's domain; the
    # factorization through the maximum is still semantically exact because
    # membership witnesses are monotone under growing ambient sets
    return _factorize(it, a, x, p)


def _factorize(it: SimpleIteration, a: Subset, x: Point, p: Condition):
    past = it.past_in(a, x)
    if x not in p.domain:
        return _code(it, past, p)
    return _conjunct(it, _code(it, past, p.before(x, it.rank)), _atom(it, x, p.get(x)))


@memoized
def _atom(it: SimpleIteration, x: Point, entry):
    """The conjunct that decides the entry at x: one object per (x, entry)."""
    asg = it.assignments[x]
    if asg.kind == "C":
        return BitAtom(x, int(entry))
    if entry is TRIV:
        return TRUE
    return EAtom(x, asg.model, entry_fcode(it, x, entry))


@memoized
def _conjunct(it: SimpleIteration, sub, atom) -> AndNode:
    """The conjunction of the code of the past with an atom: one object per
    value, since its parts are one object per value already and every code
    hashes once, so equal codes of p over different A are one object."""
    return AndNode((sub, atom))


@memoized
def entry_fcode(it: SimpleIteration, x: Point, entry: DecisionTableName) -> FCode:
    """The condition-valued evaluation table of an entry name, built over the
    name's own base so it is independent of any ambient set."""
    model: BorelPosetModel = it.assignments[x].model
    table = tuple(
        (synth_E(it, entry.base, member), value)
        for member, value in zip(entry.antichain, entry.table)
    )
    return FCode(target="value", coords=(table,), default=model.poset.top)


def synth_F(it: SimpleIteration, a: Subset, name: RealName) -> FCode:
    """The evaluation function of a name: per coordinate, the antichain's
    member codes paired with the decided values; 0 outside the domain."""
    return _real_fcode(it, tuple(
        tuple((synth_E(it, a, member), int(value)) for member, value in zip(antichain, values))
        for antichain, values in zip(name.antichains, name.values)
    ))


@memoized
def _real_fcode(it: SimpleIteration, coords: tuple) -> FCode:
    """The evaluation function with these case tables: one object per value."""
    return FCode(target="real", coords=coords, default=0)
