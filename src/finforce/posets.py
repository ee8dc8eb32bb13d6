"""Finite posets with a top element, backed by boolean order matrices.

Compatibility, antichains, reductions, complete embeddings and correct
systems are all decided by exhaustive matrix computations.  In a finite
poset a filter meets every maximal antichain exactly when it is the up-set
of a minimal element, which is what makes the brute-force genericity
oracle (`admissible_filters_upsets`) sound.  `filter_defect` is the one
audit of a subset as a generic filter: declared model filters, the
E-filters of nice subposets and induced filters all go through it.

Every boolean matrix product goes through `_bool_product`, one float32
BLAS product.  Its entries count witnesses: integers no larger than the
inner dimension.  float32 represents every integer below 2**24 exactly,
and a partial sum of such counts stays an integer below that bound, so
every sum is exact in any summation order and ``> 0`` is the boolean
product.  The helper refuses inner dimensions of 2**24 or more.

A poset caches what is derived from it alone: its compatibility matrix,
the embedding report, sub-to-sup index array and reduction matrix of each
sub poset checked against it (`check_complete_embedding_posets`), and the
forcing answers of `names`.  `check_correct_system` reads everything it
needs from those per-pair entries and multiplies no matrices.  The caching
is sound because a poset never changes after construction (its order
matrix is write-protected) and the caches are keyed by identity: sub
posets by weak reference, so a cache entry never keeps a dropped poset
alive.

`memoized` is the one memo layer of the package: it caches a function's
answers on the object passed first, a poset here and a `SimpleIteration`
in `iteration`, `synth` and `history`, so every answer lives exactly as
long as the object it was derived from.
"""

from __future__ import annotations

import functools
import inspect
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

Element = Hashable

_FLOAT32_EXACT = 1 << 24
_MISS = object()


def memoized(fn):
    """Cache ``fn(owner, *args)`` in ``owner._memo``, a ``defaultdict(dict)``
    holding one dict per cached function.

    The key is the tuple of arguments after ``owner``, positional, with
    defaults filled in, so ``f(o, x)`` and ``f(o, x, False)`` share an entry
    when False is the default.  Answers are shared, so callers must not
    mutate them.  The uncached body stays reachable as ``__wrapped__``.
    """
    sig = inspect.signature(fn)
    arity = len(sig.parameters) - 1
    defaults = fn.__defaults__ or ()
    least = arity - len(defaults)

    @functools.wraps(fn)
    def cached(owner, *args, **kwargs):
        if len(args) != arity or kwargs:
            if not kwargs and len(args) >= least:
                args += defaults[len(args) - least:]
            else:
                bound = sig.bind(owner, *args, **kwargs)
                bound.apply_defaults()
                args = bound.args[1:]
        table = owner._memo[cached]
        hit = table.get(args, _MISS)
        if hit is _MISS:
            hit = table[args] = fn(owner, *args)
        return hit

    return cached


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i, j] iff a[i, k] and b[k, j] for some k, for 0/1 matrices."""
    if a.shape[1] >= _FLOAT32_EXACT:
        raise ValueError(
            f"inner dimension {a.shape[1]} is not below 2**24, where float32 counts stay exact"
        )
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


class FinitePoset:
    """An immutable finite poset with a designated top element.

    ``leq[i, j]`` holds when ``elements[i] <= elements[j]``.  The matrix is
    checked to be reflexive, transitive and antisymmetric, and the top must
    be the maximum.
    """

    def __init__(self, elements: Sequence[Element], leq: np.ndarray, top: Element):
        elements = tuple(elements)
        leq = np.asarray(leq, dtype=bool)
        n = len(elements)
        if leq.shape != (n, n):
            raise ValueError(f"order matrix shape {leq.shape} does not match {n} elements")
        if not leq[np.diag_indices(n)].all():
            raise ValueError("order is not reflexive")
        if (_bool_product(leq, leq) & ~leq).any():
            raise ValueError("order is not transitive")
        if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
            raise ValueError("order is not antisymmetric")
        ti = elements.index(top)
        if not leq[:, ti].all():
            raise ValueError("top is not the maximum")
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.leq_matrix = leq
        self.leq_matrix.setflags(write=False)
        self.top = top
        self._compat: np.ndarray | None = None
        self._embeddings: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._memo: defaultdict = defaultdict(dict)  # see `memoized`

    @classmethod
    def from_relation(cls, elements: Sequence[Element], pairs: Iterable[tuple[Element, Element]],
                      top: Element) -> "FinitePoset":
        """Build from covering/less-equal pairs; reflexive-transitive closure is taken."""
        elements = tuple(elements)
        n = len(elements)
        idx = {e: i for i, e in enumerate(elements)}
        leq = np.eye(n, dtype=bool)
        for a, b in pairs:
            leq[idx[a], idx[b]] = True
        for _ in range(n):
            new = leq | _bool_product(leq, leq)
            if (new == leq).all():
                break
            leq = new
        return cls(elements, leq, top)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.index

    def leq(self, a: Element, b: Element) -> bool:
        return bool(self.leq_matrix[self.index[a], self.index[b]])

    @property
    def compat_matrix(self) -> np.ndarray:
        """compat[i, j] iff some r lies below both i and j."""
        if self._compat is None:
            d = self.leq_matrix
            self._compat = _bool_product(d.T, d)
            self._compat.setflags(write=False)
        return self._compat

    def minimal_elements(self) -> list[Element]:
        below = self.leq_matrix.sum(axis=0)
        return [e for e, n in zip(self.elements, below) if n == 1]

    def upset(self, e: Element) -> frozenset:
        i = self.index[e]
        return frozenset(b for b, ok in zip(self.elements, self.leq_matrix[i]) if ok)

    def downset(self, e: Element) -> frozenset:
        i = self.index[e]
        return frozenset(a for a, ok in zip(self.elements, self.leq_matrix[:, i]) if ok)

    def restrict(self, subset: Iterable[Element]) -> "FinitePoset":
        keep = set(subset)
        sub = [e for e in self.elements if e in keep]
        ids = [self.index[e] for e in sub]
        leq = self.leq_matrix[np.ix_(ids, ids)]
        return FinitePoset(sub, leq, self.top)


def compatible(p: FinitePoset, a: Element, b: Element) -> bool:
    """True iff a and b have a common lower bound."""
    return bool(p.compat_matrix[p.index[a], p.index[b]])


def common_lower_bound_exists(p: FinitePoset, items: Iterable[Element]) -> bool:
    ids = [p.index[e] for e in items]
    if not ids:
        return True
    below = p.leq_matrix[:, ids].all(axis=1)
    return bool(below.any())


def is_antichain(p: FinitePoset, a: Iterable[Element]) -> bool:
    a = list(a)
    return all(
        not compatible(p, a[i], a[j]) for i in range(len(a)) for j in range(i + 1, len(a))
    )


def is_maximal_antichain(p: FinitePoset, a: Iterable[Element]) -> bool:
    """Pairwise incompatible, and every element is compatible with a member."""
    a = list(a)
    if not is_antichain(p, a):
        return False
    ids = [p.index[e] for e in a]
    covered = p.compat_matrix[:, ids].any(axis=1)
    return bool(covered.all())


def maximal_antichains(p: FinitePoset) -> list[tuple[Element, ...]]:
    """All maximal antichains, by exhaustive search.  Small posets only."""
    n = len(p.elements)
    if n > 20:
        raise ValueError(f"refusing antichain enumeration on {n} elements")
    compat = p.compat_matrix
    result: list[tuple[Element, ...]] = []

    def rec(chosen: list[int], start: int):
        if chosen and compat[:, chosen].any(axis=1).all():
            result.append(tuple(p.elements[i] for i in chosen))
            return
        for i in range(start, n):
            if all(not compat[i, j] for j in chosen):
                rec(chosen + [i], i + 1)

    rec([], 0)
    return sorted(set(result), key=lambda t: (len(t), [p.index[e] for e in t]))


class FilterDefect(NamedTuple):
    """Why a subset is not a generic filter: ``kind`` is "empty",
    "no-least", "not-upward-closed" or "not-minimal"; ``least`` is the
    least member, which is not minimal in the poset, for "not-minimal"."""

    kind: str
    least: Element | None = None


def filter_defect(p: FinitePoset, inside: np.ndarray) -> FilterDefect | None:
    """None when the members of ``inside``, a boolean mask over
    ``p.elements``, form a generic filter, else the first defect in the
    order empty, no least element, not upward closed, least element not
    minimal in p.

    A finite filter is the up-set of its least element, and it meets every
    maximal antichain exactly when that element is minimal in p."""
    members = np.flatnonzero(inside)
    if not len(members):
        return FilterDefect("empty")
    leq = p.leq_matrix
    least = members[leq[np.ix_(members, members)].all(axis=1)]
    if len(least) != 1:
        return FilterDefect("no-least")
    b = least[0]
    if (leq[b] != inside).any():
        return FilterDefect("not-upward-closed")
    if leq[:, b].sum() != 1:
        return FilterDefect("not-minimal", p.elements[b])
    return None


def admissible_filters_upsets(p: FinitePoset) -> list[frozenset]:
    """The fully generic filters of a finite poset: up-sets of minimal elements."""
    return [p.upset(m) for m in p.minimal_elements()]


def is_reduction(sub: FinitePoset, sup: FinitePoset, p: Element, q: Element) -> bool:
    """p (in sub) is a reduction of q (in sup): every extension of p inside
    sub is compatible with q in sup."""
    for p2 in sub.downset(p):
        if not compatible(sup, p2, q):
            return False
    return True


@dataclass
class EmbeddingReport:
    ok: bool
    failures: list[tuple]

    def __bool__(self):
        return self.ok


def check_complete_embedding_posets(sub: FinitePoset, sup: FinitePoset) -> EmbeddingReport:
    """sub must embed completely in sup (elements identified by equality).

    Checks order agreement, incompatibility preservation and existence of
    reductions; together these imply that every maximal antichain of sub
    stays maximal in sup.  The report is computed once per pair and shared
    by every caller, who must not mutate it.
    """
    return _embedding(sub, sup)[0]


def _embedding(
    sub: FinitePoset, sup: FinitePoset
) -> tuple[EmbeddingReport, np.ndarray | None, np.ndarray | None]:
    """The report of sub into sup; once every element of sub is in sup, the
    index in sup of each element of sub; and, once both posets agree on
    order and compatibility, the reduction matrix over (sub element, sup
    element)."""
    hit = sup._embeddings.get(sub)
    if hit is None:
        hit = sup._embeddings[sub] = _check_embedding(sub, sup)
    return hit


def _check_embedding(
    sub: FinitePoset, sup: FinitePoset
) -> tuple[EmbeddingReport, np.ndarray | None, np.ndarray | None]:
    failures: list[tuple] = []
    for a in sub.elements:
        if a not in sup:
            failures.append(("missing-element", a))
    if failures:
        return EmbeddingReport(False, failures), None, None
    ids = np.array([sup.index[e] for e in sub.elements])
    ids.setflags(write=False)
    sup_leq = sup.leq_matrix[np.ix_(ids, ids)]
    mism = np.argwhere(sub.leq_matrix != sup_leq)
    for i, j in mism[:8]:
        failures.append(
            ("order-mismatch", sub.elements[i], sub.elements[j],
             bool(sub.leq_matrix[i, j]), bool(sup_leq[i, j]))
        )
    sup_compat = sup.compat_matrix[np.ix_(ids, ids)]
    lost = np.argwhere(~sub.compat_matrix & sup_compat)
    for i, j in lost[:8]:
        failures.append(("incompatibility-lost", sub.elements[i], sub.elements[j]))
    if failures:
        return EmbeddingReport(False, failures), ids, None
    # red[r, q]: every extension e <= r inside sub is compatible with q in sup
    red = ~_bool_product(sub.leq_matrix.T, ~sup.compat_matrix[ids])
    red.setflags(write=False)
    unreduced = np.flatnonzero(~red.any(axis=0))
    for q in unreduced[:8]:
        failures.append(("no-reduction", sup.elements[q]))
    return EmbeddingReport(not failures, failures), ids, red


@dataclass
class CorrectSystem:
    """Four nested posets <P0, P1, Q0, Q1>: P0 below P1 and Q0, both below Q1."""

    p0: FinitePoset
    p1: FinitePoset
    q0: FinitePoset
    q1: FinitePoset


def check_correct_system(s: CorrectSystem) -> EmbeddingReport:
    """Brute-force the correctness property: the four inclusions are complete
    embeddings, and each reduction within <P0, Q0> persists for <P1, Q1>.

    Everything comes from the per-pair cache: the four embedding verdicts,
    the index maps P0 -> P1 and Q0 -> Q1, and the reduction matrices of
    P0 < Q0 and P1 < Q1, which exist once all four embeddings passed.  The
    reductions within <P1, Q1> are the P1 < Q1 matrix gathered at the rows
    of P0 and the columns of Q0, so a system costs one gather and one AND."""
    pair = {
        "P0<P1": _embedding(s.p0, s.p1),
        "P0<Q0": _embedding(s.p0, s.q0),
        "P1<Q1": _embedding(s.p1, s.q1),
        "Q0<Q1": _embedding(s.q0, s.q1),
    }
    failures = [(tag,) + f for tag, (rep, _, _) in pair.items() for f in rep.failures]
    if failures:
        return EmbeddingReport(False, failures)
    red1 = pair["P1<Q1"][2][np.ix_(pair["P0<P1"][1], pair["Q0<Q1"][1])]
    broken = np.argwhere(pair["P0<Q0"][2] & ~red1)
    for i, j in broken[:8]:
        failures.append(("reduction-not-persistent", s.p0.elements[i], s.q0.elements[j]))
    return EmbeddingReport(not failures, failures)
