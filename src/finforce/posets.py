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
the way in.  It keeps the up rows, its one order table, the mask of its
minimal elements and, once read, the n x m table of the m minimal
elements below each element; no other table.  Every kernel is an OR or AND
of packed rows selected by the bits of another packed row
(`_reduce_rows`), or, for transitivity, a test of single words.  A
kernel touches n / 8 bytes per selected row:
- transitivity: a <= b <= c must give a <= c.  Of two kernels,
  `_transitive` takes the one the row popcounts predict cheaper before
  any work.  `_closed_rows` checks that each down-set contains the
  down-sets of its members, nnz * ceil(n / 64) words read for the nnz
  cells of the order.  `_chains_hold` checks, for each b, the rows of the
  c above b at the words of the down-set of b: at most sum over b of
  |up b| * |down b| tests.  On the FSI ladder the second costs
  64 * (4/9)^k times the first, so k <= 5 keeps the packed kernel and
  k >= 6 tests chains (k = 7: 0.75 s against 2.8 s);
- compatibility: a and b are compatible exactly when some minimal element
  lies below both, so `compatible` ANDs two rows of the n x m table, and
  compat row i, formed only at the rows a caller reads (`_compat_rows`),
  is the OR of the up rows of the minimal elements below i: n / 8 bytes
  per such (minimal, i) pair;
- reductions of sub in sup: row r is the AND of the compatibility rows in
  sup of the minimal elements of sub below r (compatibility grows with
  the element), formed per pair at those m_sub rows: n_sup / 8 bytes per
  such pair;
- correct systems, a group per nested pair P0 <= Q1: per P1, the rows of
  P0 of two reduction matrices ORed into one row, 2 * |P0| * |Q1| / 8
  bytes, then ANDed with the masks in Q1 of its Q0s at once, |Q1| / 8
  bytes per system.  On the FSI ladder the groups read 25^k / 64 words.
Every kernel works in blocks that hold at most min(the words of the
table it reads, `_BLOCK_WORDS`) words (`_budget`): the rows one block of
`_reduce_rows` gathers, the mask rows it unpacks to list them, and the
words one step of `_chains_hold` tests.  So a poset gathers no more than
its own rows at a time, and a large one stays in cache.  A block may
always hold 32 KiB, though: below that, numpy's per-call cost, not the
data, dominates, and the 112-element poset of an ed model validated in
0.36 ms in blocks of its own 224 words against 0.14 ms in one block.
The cap is 1 MiB: on a 2-CPU Xeon with 2 MiB of L2 per core, the
compatibility rows of the k = 7 P*|L took 0.27-0.35 s in 1 MiB blocks
against 0.42-0.45 s in 2 MiB and 0.8 s in 32 MiB ones, and the
transitivity kernels varied within noise between 256 KiB and 2 MiB.
Dense boolean matrices are unpacked only where callers read cells, and
on every read: `leq_matrix` and `compat_matrix`.  The embedding check
reads the cells it compares from the packed rows a block at a time, and a
poset checked against itself reads none, so no poset keeps a dense
matrix, and the pair (L, L) unpacks no compat matrix.

A poset caches what is derived from it alone: its minimal-below rows,
the embedding report, sub-to-sup index array and packed reduction matrix
of each sub poset checked against it (`check_complete_embedding_posets`),
and the forcing answers of `names`.
`check_correct_system` reads everything it needs from those per-pair
entries, once per group of systems, and multiplies no matrices.  The
caching is sound because a poset never changes after construction (its
packed rows are write-protected) and the caches are keyed by identity:
sub posets by weak reference, so a cache entry never keeps a dropped
poset alive.

`memoized` is the one memo layer of the package: it caches a function's
answers on the object passed first, a poset here and a `SimpleIteration`
in `iteration`, `synth` and `history`, so every answer lives exactly as
long as the object it was derived from.
"""

from __future__ import annotations

import functools
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

    The key is the tuple of arguments after ``owner``, which are passed
    positionally; ``fn`` may have no defaults, so equal calls have equal
    keys.  Answers are shared, so callers must not mutate them.  The
    uncached body stays reachable as ``__wrapped__``.

    ``record(owner, args, answer)`` stores an answer that was computed
    outside ``fn``, for the key ``args``, unless an answer is already there:
    a caller that tabulates many answers at once fills the entries a later
    call reads.
    """
    if fn.__defaults__ or fn.__kwdefaults__:
        raise TypeError(f"memoized function {fn.__qualname__} has defaults")

    @functools.wraps(fn)
    def cached(owner, *args):
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


_BLOCK_WORDS = 1 << 17  # cap on the words one block of an order kernel holds: 1 MiB
_IDENTITY = {np.bitwise_or: np.uint64(0), np.bitwise_and: np.uint64(0xFFFF_FFFF_FFFF_FFFF)}


def _budget(table: np.ndarray) -> int:
    """The words a block over ``table`` may hold: no more than the table
    itself, and no more than `_BLOCK_WORDS`, but always 32 KiB
    (`_BLOCK_WORDS` / 32): below that numpy's per-call cost, not the data,
    dominates a block."""
    return min(max(table.size, _BLOCK_WORDS // 32), _BLOCK_WORDS)


def _cuts(counts: np.ndarray, step: int, rows: int):
    """(lo, hi) blocks of at most ``rows`` consecutive rows with at most
    ``step`` of ``counts`` between them, or a single row that alone has
    more."""
    ends = counts.cumsum()
    if len(counts) <= rows and counts.sum() <= step:
        yield 0, len(counts)  # one block, found without a search
        return
    lo = 0
    while lo < len(counts):
        hi = int(ends.searchsorted(ends[lo] - counts[lo] + step, "right"))
        hi = min(max(hi, lo + 1), lo + max(rows, 1))
        yield lo, hi
        lo = hi


def _set_bits(words: np.ndarray) -> np.ndarray:
    """The columns of the set bits of packed rows, row by row and in
    order."""
    return np.flatnonzero(unpack_rows(words)) % (64 * words.shape[1])


def _reduce_segments(op, table: np.ndarray, index: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """out[s] is ``op`` (``np.bitwise_or`` or ``np.bitwise_and``) over the
    rows of ``table`` at the s-th segment of ``index``, the segments lying
    end to end with ``counts[s]`` entries each.  An empty segment gives the
    identity: all zeros for OR, all ones (padding included) for AND."""
    ends = counts.cumsum()
    if len(index) and counts.all():
        return op.reduceat(table.take(index, axis=0), ends - counts, axis=0)
    out = np.full((len(counts), table.shape[1]), _IDENTITY[op], np.uint64)
    if len(index):
        live = counts > 0
        out[live] = op.reduceat(table.take(index, axis=0), (ends - counts)[live], axis=0)
    return out


def _reduce_blocks(op, table: np.ndarray, mask: np.ndarray, rows: np.ndarray | None = None):
    """`_reduce_rows` a block at a time: (lo, hi, out[lo:hi]).  A block
    gathers at most `_budget` (table) words, and at least one row; a row
    of ``mask`` that selects more is folded from pieces of that size."""
    if mask.shape[1] == table.shape[1] == 1:
        # rows of one word (64 elements or fewer): select them densely, at
        # most 64 x 64 words; on posets this small numpy's per-call cost,
        # not the data, dominates, and this takes three calls where the
        # index lists take a dozen
        chosen = table[:, 0] if rows is None else table[rows, 0]
        picked = np.where(unpack_rows(mask, len(chosen)), chosen, _IDENTITY[op])
        yield 0, len(mask), op.reduce(picked, axis=1, keepdims=True)
        return
    counts = np.bitwise_count(mask).sum(axis=1, dtype=np.int64)
    budget = _budget(table)
    step = max(budget // table.shape[1], 1)
    # the mask rows of a block unpack to at most `_budget` words too
    for lo, hi in _cuts(counts, step, budget // (8 * mask.shape[1])):
        index = _set_bits(mask[lo:hi])
        if rows is not None:
            index = rows[index]
        if len(index) <= step:
            yield lo, hi, _reduce_segments(op, table, index, counts[lo:hi])
        else:
            pieces = [index[s:s + step] for s in range(0, len(index), step)]
            yield lo, hi, functools.reduce(op, (_reduce_segments(op, table, piece, np.array([len(piece)]))
                                                for piece in pieces))


def _reduce_rows(op, table: np.ndarray, mask: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """out[i] is ``op`` over the rows ``table[rows[j]]`` (``table[j]``
    without ``rows``) for the set bits j of the packed row ``mask[i]``, as
    in `_reduce_segments`, gathered in blocks (`_reduce_blocks`)."""
    out = None
    for lo, hi, block in _reduce_blocks(op, table, mask, rows):
        if out is None:
            if hi == len(mask):
                return block  # a single block is the answer
            out = np.empty((len(mask), table.shape[1]), np.uint64)
        out[lo:hi] = block
    return out


def _transitive(up: np.ndarray, down: np.ndarray) -> bool:
    """Whether a <= b <= c gives a <= c for the reflexive relation with
    packed down-set rows ``down`` and their transpose ``up``, by the kernel
    the row popcounts predict cheaper: `_closed_rows` reads nnz * ceil(n /
    64) words, `_chains_hold` makes sum over b of |up b| * |down b| tests.
    On the FSI ladder the second is 64 * (4/9)^k times the first."""
    below = np.bitwise_count(down).sum(axis=1, dtype=np.int64)
    chains = int((np.bitwise_count(up).sum(axis=1, dtype=np.int64) * below).sum())
    return (_chains_hold if chains < int(below.sum()) * down.shape[1] else _closed_rows)(up, down)


def _closed_rows(up: np.ndarray, down: np.ndarray) -> bool:
    """Every down-set contains the down-sets of its members (the OR of them
    holds its own, the relation being reflexive), compared block by block.
    ``up`` goes unread: both kernels take the same arguments."""
    return all((block == down[lo:hi]).all() for lo, hi, block in _reduce_blocks(np.bitwise_or, down, down))


def _chains_hold(up: np.ndarray, down: np.ndarray) -> bool:
    """For each b, the down-set of every c above b holds the down-set of b:
    the rows of ``down`` at the c above b, read at the non-zero words of
    row b, at most `_budget` (down) words at a time.  An element alone
    above or below b is b itself, which holds trivially."""
    above = np.bitwise_count(up).sum(axis=1, dtype=np.int64)
    below = np.bitwise_count(down).sum(axis=1, dtype=np.int64).tolist()
    budget = _budget(down)
    # the up rows of b are listed, two words a bit, and unpacked, in
    # blocks of at most `_budget` words
    for lo, hi in _cuts(above, budget // 2, budget // (8 * up.shape[1])):
        tops = _set_bits(up[lo:hi])
        ends = np.cumsum(above[lo:hi]).tolist()
        for b, start, end in zip(range(lo, hi), [0] + ends, ends):
            if end - start < 2 or below[b] < 2:
                continue
            cols = np.flatnonzero(down[b])
            pattern = down[b, cols]
            step = max(budget // len(cols), 1)
            for s in range(start, end, step):
                if not ((down[tops[s:min(s + step, end), None], cols] & pattern) == pattern).all():
                    return False
    return True


class FinitePoset:
    """An immutable finite poset with a designated top element.

    ``down`` holds the down-sets as `pack_rows` lays them out, bit i of row
    j set when ``elements[i] <= elements[j]``.  The order is checked to be
    reflexive, transitive and antisymmetric, and the top must be the
    maximum.  It keeps ``_up``, ``_minimal`` and, once read, ``_minimal_below``,
    not ``down``; every order and compatibility cell is read from them.
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
        up = _transpose(down, n)
        if not _transitive(up, down):
            raise ValueError("order is not transitive")
        # the only element both above and below i is i itself: n cells, counted by blocks of rows
        step = max(_budget(up) // up.shape[1], 1)
        if sum(int(np.bitwise_count(up[lo:lo + step] & down[lo:lo + step]).sum())
               for lo in range(0, n, step)) != n:
            raise ValueError("order is not antisymmetric")
        below = np.bitwise_count(down).sum(axis=1)
        if below[elements.index(top)] != n:
            raise ValueError("top is not the maximum")
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.top = top
        self._up = up
        self._minimal = below == 1  # the elements with a one-element down-set
        up.setflags(write=False)
        self._minimal.setflags(write=False)
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
        return _bit(self._up, self.index[a], self.index[b])

    @property
    def leq_matrix(self) -> np.ndarray:
        """leq[i, j] iff elements[i] <= elements[j], unpacked on every read."""
        return unpack_rows(self._up, len(self))

    @property
    def compat_matrix(self) -> np.ndarray:
        """compat[i, j] iff some r lies below both i and j, formed and
        unpacked on every read."""
        return unpack_rows(_compat_rows(self, np.arange(len(self))), len(self))

    @functools.cached_property
    def _minimal_below(self) -> np.ndarray:
        """Packed rows over the m minimal elements, ceil(m / 64) words each:
        bit j of row i set when the j-th minimal element lies below i."""
        return _transpose(self._up[self._minimal], len(self))

    def minimal_elements(self) -> list[Element]:
        return list(itertools.compress(self.elements, self._minimal))

    def upset(self, e: Element) -> frozenset:
        i = self.index[e]
        return frozenset(itertools.compress(self.elements, unpack_rows(self._up[i:i + 1], len(self))[0]))

    def downset(self, e: Element) -> frozenset:
        return frozenset(itertools.compress(self.elements, _cells(self._up, [self.index[e]])[:, 0]))

    def restrict(self, subset: Iterable[Element]) -> "FinitePoset":
        keep = set(subset)
        sub = [e for e in self.elements if e in keep]
        ids = np.array([self.index[e] for e in sub], dtype=np.intp)
        return FinitePoset(sub, pack_rows(_cells(self._up[ids], ids).T), self.top)


def compatible(p: FinitePoset, a: Element, b: Element) -> bool:
    """True iff a and b have a common lower bound: a minimal one."""
    return bool((p._minimal_below[p.index[a]] & p._minimal_below[p.index[b]]).any())


def _compat_rows(p: FinitePoset, ids: np.ndarray) -> np.ndarray:
    """The packed compatibility rows of p at ``ids``: row i is the OR of
    the up rows of the minimal elements below ids[i]."""
    return _reduce_rows(np.bitwise_or, p._up, p._minimal_below[ids], np.flatnonzero(p._minimal))


def common_lower_bound_exists(p: FinitePoset, items: Iterable[Element]) -> bool:
    ids = np.array([p.index[e] for e in items], dtype=np.intp)
    return bool(_cells(p._up, ids).all(axis=1).any())


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
    if not p._minimal[b]:
        return FilterDefect("not-minimal", p.elements[b])
    return None


def admissible_filters_upsets(p: FinitePoset) -> list[frozenset]:
    """The fully generic filters of a finite poset: up-sets of minimal elements."""
    return [p.upset(m) for m in p.minimal_elements()]


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


def _compare_cells(sub: FinitePoset, sup: FinitePoset, ids: np.ndarray, failures: list[tuple]) -> None:
    """Append the first order mismatches and lost incompatibilities of sub
    against sup, whose index of each element of sub is ``ids``.  Both read
    sup's rows at ids and the columns of ids, a block of rows (at most
    `_BLOCK_WORDS` * 8 cells) at a time, against sub's dense compat matrix;
    sup's compat rows are ORs of its minimal up rows read at ids only."""
    n = len(sub)
    step = max(_BLOCK_WORDS * 8 // n, 1)

    def order_differs(lo, hi):
        return unpack_rows(sub._up[lo:hi], n) != _cells(sup._up[ids[lo:hi]], ids)

    for i, j in _first_cells(n, step, order_differs):
        below = _bit(sub._up, i, j)
        failures.append(("order-mismatch", sub.elements[i], sub.elements[j], below, not below))
    sub_compat = sub.compat_matrix
    minimal_up = pack_rows(_cells(sup._up[sup._minimal], ids))

    def compat_lost(lo, hi):
        sup_compat = _reduce_rows(np.bitwise_or, minimal_up, sup._minimal_below[ids[lo:hi]])
        return ~sub_compat[lo:hi] & unpack_rows(sup_compat, n)

    for i, j in _first_cells(n, step, compat_lost):
        failures.append(("incompatibility-lost", sub.elements[i], sub.elements[j]))


def _check_embedding(
    sub: FinitePoset, sup: FinitePoset
) -> tuple[EmbeddingReport, np.ndarray | None, np.ndarray | None]:
    index = sup.index
    failures: list[tuple] = [("missing-element", a) for a in sub.elements if a not in index]
    if failures:
        return EmbeddingReport(False, failures), None, None
    ids = np.array([index[e] for e in sub.elements])
    ids.setflags(write=False)
    if sub is not sup:  # a poset agrees with itself: nothing to compare
        _compare_cells(sub, sup, ids, failures)
    if failures:
        return EmbeddingReport(False, failures), ids, None
    # red[r]: the q of sup compatible in sup with every extension e <= r
    # inside sub, packed; the minimal e below r suffice
    red = _reduce_rows(np.bitwise_and, _compat_rows(sup, ids[sub._minimal]), sub._minimal_below)
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


class CorrectGroup:
    """The correct systems over one nested pair P0 <= Q1: system s is
    <p0, P1, Q0, q1> for (P1, Q0) = systems[s].  Their reports are made
    together, at the first `check_correct_system` of any of them, and
    kept as long as the group."""

    __slots__ = ("p0", "q1", "systems", "reports")

    def __init__(self, p0: FinitePoset, q1: FinitePoset, systems: Sequence[tuple[FinitePoset, FinitePoset]]):
        self.p0, self.q1, self.systems = p0, q1, systems
        self.reports: list[EmbeddingReport] | None = None


class GroupedSystem(NamedTuple):
    """System ``index`` of ``group``."""

    group: CorrectGroup
    index: int


_CORRECT = EmbeddingReport(True, [])  # shared by every correct system; never mutated


def check_correct_system(s: CorrectSystem | GroupedSystem) -> EmbeddingReport:
    """Brute-force the correctness property: the four inclusions are complete
    embeddings, and each reduction within <P0, Q0> persists for <P1, Q1>.
    A `GroupedSystem` reads its group's reports, made for every system of
    the group at once (`_group_reports`); a `CorrectSystem` is the group
    of one."""
    if isinstance(s, CorrectSystem):
        s = GroupedSystem(CorrectGroup(s.p0, s.q1, [(s.p1, s.q0)]), 0)
    group, index = s
    if group.reports is None:
        group.reports = _group_reports(group)
    return group.reports[index]


def _group_reports(g: CorrectGroup) -> list[EmbeddingReport]:
    """The report of each system of a group, in its order.

    Everything comes from the per-pair cache: the four embedding verdicts,
    the index maps P0 -> P1 and Q0 -> Q1, and the reduction matrices of
    P0 < Q1 and P1 < Q1, packed over Q1.  Once Q0 < Q1 is complete, two
    elements of Q0 are compatible in Q0 exactly when they are in Q1, so
    the reductions within <P0, Q0> are the P0 < Q1 ones at the columns of
    Q0.  The P0 < Q1 embedding is complete too, being a composite of two
    complete ones, so its entry holds a reduction matrix.  So a system is
    broken exactly when the OR over the rows of P0 of the P0 < Q1
    reductions that P1 < Q1 lacks meets the mask of Q0 in Q1: a group
    looks up each pair once, forms one such row per P1 and one mask per
    Q0, and ANDs each P1's row with the masks of its Q0s at once.  The
    witnesses are read in P0 x Q0 order only for a broken system."""
    p0, q1, systems = g.p0, g.q1, g.systems
    p1s, q0s = zip(*systems)
    below = {p1: (_embedding(p0, p1), _embedding(p1, q1)) for p1 in dict.fromkeys(p1s)}
    above = {q0: (_embedding(p0, q0), _embedding(q0, q1)) for q0 in dict.fromkeys(q0s)}
    reports = [_CORRECT] * len(systems)
    # per P1 the systems whose four pairs are complete; nothing is lost where P1 is P0
    complete: dict[FinitePoset, list[int]] = {}
    mask_of: dict[FinitePoset, int] = {}
    for system, (p1, q0) in enumerate(systems):
        (p0_p1, p1_q1), (p0_q0, q0_q1) = below[p1], above[q0]
        if not (p0_p1[0].ok and p0_q0[0].ok and p1_q1[0].ok and q0_q1[0].ok):
            pairs = zip(("P0<P1", "P0<Q0", "P1<Q1", "Q0<Q1"), (p0_p1, p0_q0, p1_q1, q0_q1))
            reports[system] = EmbeddingReport(False, [(tag,) + f for tag, (rep, _, _) in pairs for f in rep.failures])
        elif p1 is not p0:
            complete.setdefault(p1, []).append(system)
            mask_of.setdefault(q0, len(mask_of))
    if not complete:
        return reports
    red = _embedding(p0, q1)[2]
    # per Q0 its mask in Q1, set bit by bit
    q0_ids = [above[q0][1][1] for q0 in mask_of]
    cols = np.concatenate(q0_ids)
    masks = np.zeros((len(q0_ids), red.shape[1]), np.uint64)
    np.bitwise_or.at(masks, (np.repeat(np.arange(len(q0_ids)), [len(i) for i in q0_ids]), cols >> 6),
                     np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64)))
    for p1, at in complete.items():
        (_, ids, _), (_, _, red1) = below[p1]
        lost = red & ~red1[ids]  # the reductions of P0 in Q1 that P1 < Q1 does not keep
        m = [mask_of[systems[system][1]] for system in at]
        for system, broken in zip(at, (masks[m] & np.bitwise_or.reduce(lost, axis=0)).any(axis=1)):
            if broken:
                q0 = systems[system][1]
                reports[system] = EmbeddingReport(False, [
                    ("reduction-not-persistent", p0.elements[i], q0.elements[j])
                    for i, j in np.argwhere(_cells(lost, above[q0][1][1]))[:8]])
    return reports
