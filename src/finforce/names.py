"""Names for reals over a finite poset, and the antichain-compatibility
decision procedures for forcing statements about them.

A name is a finite list of maximal antichains with a value map on each
member.  `decide_forces_value` and `decide_forces_in_tree` decide forcing
by compatibility alone; on finite posets they agree exactly with
quantification over the fully generic filters (the up-sets of minimal
elements), which the test suite verifies.  Answers that depend on the
poset are cached on the poset itself with `posets.memoized`, so they live
exactly as long as it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from .posets import FinitePoset, _cells, compatible, memoized

Element = Hashable


@dataclass(frozen=True)
class RealName:
    """<h_n, A_n> presentation of a name for a real, truncated to length N."""

    antichains: tuple[tuple[Element, ...], ...]
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.antichains) != len(self.values):
            raise ValueError("one value row per antichain required")
        for a, h in zip(self.antichains, self.values):
            if len(a) != len(h):
                raise ValueError("value map must be total on the antichain")

    @property
    def length(self) -> int:
        return len(self.antichains)


def decide_forces_value(
    p: FinitePoset, cond: Element, name: RealName, n: int, m: int
) -> str:
    """'forces' iff every antichain member compatible with cond carries value
    m; 'refutes' iff none does; 'undecided' otherwise."""
    if n >= name.length:
        raise IndexError(f"coordinate {n} out of range for a length-{name.length} name")
    seen = [v for q, v in zip(name.antichains[n], name.values[n]) if compatible(p, cond, q)]
    if all(v == m for v in seen):
        return "forces"
    if all(v != m for v in seen):
        return "refutes"
    return "undecided"


@memoized
def _selector_tuples(
    p: FinitePoset, cond: Element, name: RealName, k: int
) -> frozenset[tuple[int, ...]]:
    """All value tuples realizable by selectors through the first k
    antichains that have a common lower bound together with cond."""
    ids = np.array([p.index[q] for q in (cond, *itertools.chain(*name.antichains[:k]))])
    down = dict(zip(ids.tolist(), _cells(p._up, ids).T))  # the down-set of each element read
    out: set[tuple[int, ...]] = set()

    def rec(i: int, below: np.ndarray, vals: tuple[int, ...]):
        if i == k:
            out.add(vals)
            return
        for j, q in enumerate(name.antichains[i]):
            nb = below & down[p.index[q]]
            if nb.any():
                rec(i + 1, nb, vals + (name.values[i][j],))

    rec(0, down[p.index[cond]], ())
    return frozenset(out)


def decide_forces_in_tree(
    p: FinitePoset, cond: Element, name: RealName, tree: Iterable[tuple[int, ...]], k: int
) -> bool:
    """Decide cond forces "name restricted to k is a branch of tree": every
    selector through A_0..A_{k-1} with a common stronger condition alongside
    cond must realize a length-k node of the tree."""
    if k > name.length:
        raise IndexError(f"prefix length {k} exceeds name length {name.length}")
    tree = frozenset(tuple(t) for t in tree)
    return all(t in tree for t in _selector_tuples(p, cond, name, k))
