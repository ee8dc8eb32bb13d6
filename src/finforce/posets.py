"""Finite posets with a top element, backed by packed order rows.

Compatibility, antichains, reductions, complete embeddings and correct
systems are all decided by exhaustive computations.  In a finite
poset a filter meets every maximal antichain exactly when it is the up-set
of a minimal element, which is what makes the brute-force genericity
oracle (`admissible_filters_upsets`) sound.  `filter_defect` is the one
audit of a subset as a generic filter: declared model filters, the
E-filters of nice subposets and induced filters all go through it.

Order kernels run on packed rows.  `pack_rows` stores each row of a
boolean matrix as uint64 words, 64 cells to a word with zero padding, so
a row of an n-element poset takes 8 * ceil(n / 64) bytes, about n / 8.  A
poset is built from packed down-set rows and validation transposes them
once into its up-sets (`_transpose`), so no dense n x n matrix lies on
the way in.  Every kernel is an OR or AND of packed rows selected by the
bits of another packed row (`_reduce_rows`), in blocks of at most 32 MiB
of gathered words.  A kernel touches n / 8 bytes per selected row:
- transitivity: row i must contain the up-sets of its members, nnz * n / 8
  bytes for the nnz cells of the order;
- compatibility: row i is the OR of the up-sets of the minimal elements
  below i (the up-set of anything else below i is contained in one of
  theirs), so n / 8 bytes per (minimal, element) pair of the order;
- reductions of sub in sup: row r is the AND of the compatibility rows in
  sup of the minimal elements of sub below r (compatibility grows with
  the element), n_sup / 8 bytes per such pair;
- a correct system: the rows of P0 of two reduction matrices and one
  mask, 3 * |P0| * |Q1| / 8 bytes.
Dense boolean matrices are unpacked only where callers read cells:
`leq_matrix` on first use (then kept), `compat_matrix` on every read.  The
embedding check reads the cells it compares from the packed rows a block
at a time, so at k = 7 no poset of the subset lattice keeps a dense
matrix.

A poset caches what is derived from it alone: its packed compatibility
rows, the embedding report, sub-to-sup index array and packed reduction
matrix of each sub poset checked against it
(`check_complete_embedding_posets`), and the forcing answers of `names`.
`check_correct_system` reads everything it needs from those per-pair
entries and multiplies no matrices.  The caching is sound because a poset
never changes after construction (its packed rows are write-protected)
and the caches are keyed by identity: sub posets by weak reference, so a
cache entry never keeps a dropped poset alive.

`memoized` is the one memo layer of the package: it caches a function's
answers on the object passed first, a poset here and a `SimpleIteration`
in `iteration`, `synth` and `history`, so every answer lives exactly as
long as the object it was derived from.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

Element = Hashable

_MISS = object()


def memoized(fn):
    """Cache ``fn(owner, *args)`` in ``owner._memo``, a ``defaultdict(dict)``
    holding one dict per cached function.

    The key is the tuple of arguments after ``owner``, positional, with
    defaults filled in, so ``f(o, x)`` and ``f(o, x, False)`` share an entry
    when False is the default.  Answers are shared, so callers must not
    mutate them.  The uncached body stays reachable as ``__wrapped__``.

    ``record(owner, args, answer)`` stores an answer that was computed
    outside ``fn``, for ``args`` given in the key's form (positional, with
    defaults filled in), unless an answer is already there: a caller that
    tabulates many answers at once fills the entries a later call reads.
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

    def record(owner, args, answer):
        owner._memo[cached].setdefault(args, answer)

    cached.record = record
    return cached


def pack_rows(m: np.ndarray) -> np.ndarray:
    """The rows of a boolean matrix as uint64 words, 64 cells to a word and
    the padding bits zero."""
    rows, n = m.shape
    out = np.zeros((rows, -(-n // 64) * 8), dtype=np.uint8)
    out[:, :-(-n // 8)] = np.packbits(m, axis=1, bitorder="little")
    return out.view(np.uint64)


def _bit(words: np.ndarray, i: int, j: int) -> bool:
    """Cell (i, j) of packed rows."""
    return bool(words.view(np.uint8)[i, j >> 3] >> (j & 7) & 1)


def _cells(words: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The boolean matrix of packed rows at the columns ``cols``, read
    byte by byte without unpacking the other columns."""
    cols = np.asarray(cols)
    picked = np.ascontiguousarray(words).view(np.uint8)[:, cols >> 3]  # a copy: shifted in place
    picked >>= (cols & 7).astype(np.uint8)
    picked &= 1
    return picked.view(bool)


def unpack_rows(words: np.ndarray, n: int | None = None) -> np.ndarray:
    """The boolean rows of packed words, ``n`` cells each (all bits if None)."""
    return np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=1, count=n, bitorder="little"
    ).view(bool)


def _transpose(words: np.ndarray, n: int) -> np.ndarray:
    """The packed rows of the transpose of the ``n``-column matrix whose
    packed rows are ``words``, made 64 rows at a time so the transpose
    stays in cache."""
    rows = len(words)
    out = np.zeros((n, -(-rows // 64) * 8), dtype=np.uint8)
    for w, lo in enumerate(range(0, rows, 64)):
        block = np.ascontiguousarray(unpack_rows(words[lo:lo + 64], n).T)
        out[:, 8 * w:8 * w + -(-block.shape[1] // 8)] = np.packbits(block, axis=1, bitorder="little")
    return out.view(np.uint64)


_BLOCK_WORDS = 1 << 22  # words gathered per block of `_reduce_rows`: 32 MiB
_IDENTITY = {np.bitwise_or: np.uint64(0), np.bitwise_and: np.uint64(0xFFFF_FFFF_FFFF_FFFF)}


def _reduce_segments(op, table: np.ndarray, index: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """out[s] is ``op`` (``np.bitwise_or`` or ``np.bitwise_and``) over the
    rows of ``table`` at the s-th segment of ``index``, the segments lying
    end to end with ``counts[s]`` entries each.  An empty segment gives the
    identity: all zeros for OR, all ones (padding included) for AND."""
    ends = np.cumsum(counts)
    if len(index) and counts.all():
        return op.reduceat(np.take(table, index, axis=0), ends - counts, axis=0)
    out = np.full((len(counts), table.shape[1]), _IDENTITY[op], np.uint64)
    if len(index):
        live = counts > 0
        out[live] = op.reduceat(np.take(table, index, axis=0), (ends - counts)[live], axis=0)
    return out


def _reduce_rows(op, table: np.ndarray, mask: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """out[i] is ``op`` over the rows ``table[rows[j]]`` (``table[j]``
    without ``rows``) for the set bits j of the packed row ``mask[i]``, as
    in `_reduce_segments`.  The gathered rows are taken in blocks of at
    most `_BLOCK_WORDS` words."""
    if mask.shape[1] == table.shape[1] == 1:
        # rows of one word (64 elements or fewer): select them densely; on
        # posets this small numpy's per-call cost, not the data, dominates,
        # and this takes three calls where the index lists take a dozen
        chosen = table[:, 0] if rows is None else table[rows, 0]
        picked = np.where(unpack_rows(mask, len(chosen)), chosen, _IDENTITY[op])
        return op.reduce(picked, axis=1, keepdims=True)
    counts = np.bitwise_count(mask).sum(axis=1, dtype=np.int64)
    step = max(_BLOCK_WORDS // max(table.shape[1], 1), 1)
    if counts.sum() <= step:
        cuts = [0, len(mask)]
    else:
        ends = np.cumsum(counts)
        cuts = [0]
        while cuts[-1] < len(mask):
            lo = cuts[-1]
            cuts.append(max(int(np.searchsorted(ends, ends[lo] - counts[lo] + step, "right")), lo + 1))
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        bits = unpack_rows(mask[lo:hi])
        index = np.flatnonzero(bits) % bits.shape[1]
        out.append(_reduce_segments(op, table, index if rows is None else rows[index], counts[lo:hi]))
    return out[0] if len(out) == 1 else np.concatenate(out)


class FinitePoset:
    """An immutable finite poset with a designated top element.

    ``down`` holds the down-sets as `pack_rows` lays them out, bit i of row
    j set when ``elements[i] <= elements[j]``; the poset write-protects it.
    The order is checked to be reflexive, transitive and antisymmetric, and
    the top must be the maximum.
    """

    def __init__(self, elements: Sequence[Element], down: np.ndarray, top: Element):
        elements = tuple(elements)
        n = len(elements)
        down = np.ascontiguousarray(down)
        if down.dtype != np.uint64 or down.shape != (n, -(-n // 64)):
            raise ValueError(f"down-set rows of {down.dtype} and shape {down.shape} do not pack {n} elements")
        if n % 64 and (down[:, -1] >> np.uint64(n % 64)).any():
            raise ValueError("down-set rows have padding bits set")
        i = np.arange(n)
        if not (down.view(np.uint8)[i, i >> 3] >> (i & 7).astype(np.uint8) & 1).all():
            raise ValueError("order is not reflexive")
        # every down-set contains the down-sets of its members (the OR of
        # them holds its own, the relation being reflexive)
        if (_reduce_rows(np.bitwise_or, down, down) != down).any():
            raise ValueError("order is not transitive")
        up = _transpose(down, n)
        # the only element both above and below i is i itself: n cells
        if np.bitwise_count(up & down).sum() != n:
            raise ValueError("order is not antisymmetric")
        if np.bitwise_count(down[elements.index(top)]).sum() != n:
            raise ValueError("top is not the maximum")
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.top = top
        self._up, self._down = up, down
        up.setflags(write=False)
        down.setflags(write=False)
        self._embeddings: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._memo: defaultdict = defaultdict(dict)  # see `memoized`

    @classmethod
    def from_relation(cls, elements: Sequence[Element], pairs: Iterable[tuple[Element, Element]],
                      top: Element) -> "FinitePoset":
        """Build from covering/less-equal pairs; reflexive-transitive closure is taken."""
        elements = tuple(elements)
        idx = {e: i for i, e in enumerate(elements)}
        geq = np.eye(len(elements), dtype=bool)
        for a, b in pairs:
            geq[idx[b], idx[a]] = True
        down = pack_rows(geq)
        # each pass ORs in the down-sets of the members: rows only grow
        while ((new := _reduce_rows(np.bitwise_or, down, down)) != down).any():
            down = new
        return cls(elements, down, top)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.index

    def leq(self, a: Element, b: Element) -> bool:
        return bool(self.leq_matrix[self.index[a], self.index[b]])

    @functools.cached_property
    def leq_matrix(self) -> np.ndarray:
        """leq[i, j] iff elements[i] <= elements[j], unpacked on first use."""
        leq = unpack_rows(self._up, len(self))
        leq.setflags(write=False)
        return leq

    @property
    def compat_matrix(self) -> np.ndarray:
        """compat[i, j] iff some r lies below both i and j, unpacked from the
        packed rows on every read (a poset keeps only those)."""
        return unpack_rows(self._compat_words, len(self))

    @functools.cached_property
    def _compat_words(self) -> np.ndarray:
        """`compat_matrix` as packed rows: row i is the OR of the up-sets of
        the minimal elements below i."""
        words = _reduce_rows(np.bitwise_or, self._up, self._minimal_below)
        words.setflags(write=False)
        return words

    @functools.cached_property
    def _minimal(self) -> np.ndarray:
        """The mask of the minimal elements: those with a one-element down-set."""
        return np.bitwise_count(self._down).sum(axis=1) == 1

    @functools.cached_property
    def _minimal_below(self) -> np.ndarray:
        """Packed rows: row i holds the minimal elements below i."""
        return self._down & pack_rows(self._minimal[None, :])

    def minimal_elements(self) -> list[Element]:
        return list(itertools.compress(self.elements, self._minimal))

    def upset(self, e: Element) -> frozenset:
        i = self.index[e]
        return frozenset(b for b, ok in zip(self.elements, self.leq_matrix[i]) if ok)

    def downset(self, e: Element) -> frozenset:
        i = self.index[e]
        return frozenset(a for a, ok in zip(self.elements, self.leq_matrix[:, i]) if ok)

    def restrict(self, subset: Iterable[Element]) -> "FinitePoset":
        keep = set(subset)
        sub = [e for e in self.elements if e in keep]
        ids = np.array([self.index[e] for e in sub], dtype=np.intp)
        return FinitePoset(sub, pack_rows(_cells(self._down[ids], ids)), self.top)


def compatible(p: FinitePoset, a: Element, b: Element) -> bool:
    """True iff a and b have a common lower bound."""
    return _bit(p._compat_words, p.index[a], p.index[b])


def common_lower_bound_exists(p: FinitePoset, items: Iterable[Element]) -> bool:
    ids = [p.index[e] for e in items]
    return not ids or bool(np.bitwise_and.reduce(p._down[ids], axis=0).any())


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
    mask = pack_rows(np.asarray(inside, dtype=bool)[None, :])
    least = members[((p._up[members] & mask) == mask).all(axis=1)]
    if len(least) != 1:
        return FilterDefect("no-least")
    b = least[0]
    if (p._up[b] != mask).any():
        return FilterDefect("not-upward-closed")
    if np.bitwise_count(p._down[b]).sum() != 1:
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
    order and compatibility, the reduction matrix: row r holds, packed over
    the elements of sup, the q that r reduces."""
    hit = sup._embeddings.get(sub)
    if hit is None:
        hit = sup._embeddings[sub] = _check_embedding(sub, sup)
    return hit


def _first_cells(rows: int, step: int, block) -> list[tuple[int, int]]:
    """The first 8 true cells, in row-major order, of the boolean matrix
    whose rows lo:hi are ``block(lo, hi)``, read ``step`` rows at a time."""
    cells: list[tuple[int, int]] = []
    for lo in range(0, rows, step):
        found = block(lo, lo + step)
        if found.any():
            cells += [(lo + i, j) for i, j in np.argwhere(found)[:8 - len(cells)]]
            if len(cells) == 8:
                break
    return cells


def _check_embedding(
    sub: FinitePoset, sup: FinitePoset
) -> tuple[EmbeddingReport, np.ndarray | None, np.ndarray | None]:
    index = sup.index
    failures: list[tuple] = [("missing-element", a) for a in sub.elements if a not in index]
    if failures:
        return EmbeddingReport(False, failures), None, None
    ids = np.array([index[e] for e in sub.elements])
    ids.setflags(write=False)
    # both checks read sup's rows at ids and the columns of ids, a block of
    # rows (at most 32 MiB of cells) at a time
    n = len(sub)
    step = max(_BLOCK_WORDS * 8 // n, 1)

    def order_differs(lo, hi):
        return unpack_rows(sub._up[lo:hi], n) != _cells(sup._up[ids[lo:hi]], ids)

    for i, j in _first_cells(n, step, order_differs):
        below = _bit(sub._up, i, j)
        failures.append(("order-mismatch", sub.elements[i], sub.elements[j], below, not below))
    sub_compat = sub.compat_matrix

    def compat_lost(lo, hi):
        return ~sub_compat[lo:hi] & _cells(sup._compat_words[ids[lo:hi]], ids)

    for i, j in _first_cells(n, step, compat_lost):
        failures.append(("incompatibility-lost", sub.elements[i], sub.elements[j]))
    if failures:
        return EmbeddingReport(False, failures), ids, None
    # red[r]: the q of sup compatible in sup with every extension e <= r
    # inside sub, packed; the minimal e below r suffice
    red = _reduce_rows(np.bitwise_and, sup._compat_words, sub._minimal_below, ids)
    red.setflags(write=False)
    reduced = unpack_rows(np.bitwise_or.reduce(red, axis=0, keepdims=True), len(sup))[0]
    unreduced = np.flatnonzero(~reduced)
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
    P0 < Q1 and P1 < Q1, packed over Q1.  Once Q0 < Q1 is complete, two
    elements of Q0 are compatible in Q0 exactly when they are in Q1, so
    the reductions within <P0, Q0> are the P0 < Q1 ones at the columns of
    Q0.  The P0 < Q1 embedding is complete too, being a composite of two
    complete ones, so its entry holds a reduction matrix.  A system costs
    one gather of packed rows and two ANDs; the witnesses are read in
    P0 x Q0 order only when one exists."""
    pair = {
        "P0<P1": _embedding(s.p0, s.p1),
        "P0<Q0": _embedding(s.p0, s.q0),
        "P1<Q1": _embedding(s.p1, s.q1),
        "Q0<Q1": _embedding(s.q0, s.q1),
    }
    failures = [(tag,) + f for tag, (rep, _, _) in pair.items() for f in rep.failures]
    if failures:
        return EmbeddingReport(False, failures)
    q0_ids = pair["Q0<Q1"][1]
    in_q0 = np.zeros((1, len(s.q1)), dtype=bool)
    in_q0[0, q0_ids] = True
    broken = _embedding(s.p0, s.q1)[2] & pack_rows(in_q0) & ~pair["P1<Q1"][2][pair["P0<P1"][1]]
    if broken.any():
        for i, j in np.argwhere(_cells(broken, q0_ids))[:8]:
            failures.append(("reduction-not-persistent", s.p0.elements[i], s.q0.elements[j]))
    return EmbeddingReport(not failures, failures)
