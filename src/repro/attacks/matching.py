"""Lazy candidate-matching streams for the collusion attacks.

A *matching* is one guess at how the two colluding compilers' segments
fit together: an assignment of every segment-2 compact qubit to a slot
of the candidate register.  Slots ``0 .. n1-1`` are segment 1's compact
qubits; matched segment-2 qubits share one of them, unmatched
segment-2 qubits take fresh ancillas ``n1, n1+1, ...`` in ascending
compact order.

Two streams are provided:

* ``"same-width"`` — the Saki-scenario space: every bijection between
  two equal-width registers (``n!`` candidates, no ancillas);
* ``"subset"`` — Eq. 1's mismatched-width space: for every overlap
  size ``j``, every ``j``-subset of segment-2 qubits, every ``j``-subset
  of segment-1 attachment points and every bijection between them —
  ``sum_j C(n2,j) C(n1,j) j!`` candidates.

Enumeration order is canonical and deterministic — ``j`` ascending,
subsets in lexicographic :func:`itertools.combinations` order,
bijections in :func:`itertools.permutations` order — so a candidate's
position in the stream (its *index*) is stable across runs, worker
counts and machines.  The parallel search relies on this to slice the
stream into chunks that reassemble bit-identically.

The stream is walked as :class:`Rows`: a slice ``[start, stop)`` is
unranked per overlap ``j`` with a few array operations — a candidate's
offset within ``j`` splits by ``divmod`` into the rank of its segment-2
subset, of its segment-1 subset and of its bijection — and the search
checks all of an overlap's rows of a slice together.  Within overlap
``j`` the rows come in groups of ``j!``, one per (segment-2 subset,
segment-1 subset) pair; a prefiltered search walks the stream group
first, ranking each group once and expanding rows only for the groups
its tables admit.  The same-width stream is the single overlap
``j = n``.  Nothing factorial-sized is ever materialised: one
:class:`Rows` holds at most :data:`_ROWS` rows, and
:func:`matching_slice` yields a :class:`Matching` per row only for the
callers that want objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit

__all__ = [
    "Matching",
    "Rows",
    "iter_matchings",
    "iter_same_width_matchings",
    "iter_subset_matchings",
    "matching_count",
    "matching_rows",
    "matching_slice",
    "recombine_candidate",
    "same_width_matching_count",
    "subset_matching_count",
]


@dataclass(frozen=True)
class Matching:
    """One candidate seg2-qubit -> candidate-slot assignment.

    *index* is the candidate's position in the canonical enumeration;
    *mapping* covers every segment-2 compact qubit (matched qubits map
    below ``n1``, unmatched ones to ancillas at ``n1`` and above);
    *matched* lists only the boundary attachments as ``(seg2 compact,
    seg1 compact)`` pairs; *num_qubits* is the candidate register
    width ``n1 + n2 - j``.
    """

    index: int
    mapping: Tuple[Tuple[int, int], ...]
    matched: Tuple[Tuple[int, int], ...]
    num_qubits: int

    def mapping_dict(self) -> Dict[int, int]:
        return dict(self.mapping)

    @property
    def overlap(self) -> int:
        """Number of segment-2 qubits matched onto segment-1 qubits."""
        return len(self.matched)


def same_width_matching_count(n: int) -> int:
    """``n!`` — the bijection space between equal-width registers."""
    if n < 0:
        raise ValueError("qubit count must be non-negative")
    return math.factorial(n)


def subset_matching_count(n1: int, n2: int) -> int:
    """Eq. 1's inner sum for one candidate pair:
    ``sum_j C(n1,j) C(n2,j) j!``."""
    if n1 < 0 or n2 < 0:
        raise ValueError("qubit counts must be non-negative")
    return sum(
        math.comb(n1, j) * math.comb(n2, j) * math.factorial(j)
        for j in range(min(n1, n2) + 1)
    )


# Widest overlap whose whole permutation table is cached: 9! x 9 int8
# is 3.3 MB, and any searchable j (j! <= SearchOptions.max_candidates'
# default) fits; rows of wider tables are derived from it.
_TABLE_MAX = 9
# Most rows one :class:`Rows` holds: arrays stay bounded whatever the
# chunk size, and a lazy stream never builds a factorial-sized table.
_ROWS = 1 << 16

# Overlap ``j``'s group tables: boolean per segment-2 subset rank and
# per segment-1 subset rank (see :func:`matching_rows`).
GroupTables = Tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=None)
def _permutation_table(j: int) -> np.ndarray:
    """The ``j! x j`` lexicographic permutation table of ``range(j)``:
    row ``r`` is the ``r``-th tuple of ``itertools.permutations``."""
    if j == 0:
        return np.zeros((1, 0), dtype=np.int8)
    tail = np.tile(_permutation_table(j - 1), (j, 1))
    lead = np.repeat(np.arange(j, dtype=np.int8), len(tail) // j)
    tail += tail >= lead[:, None]
    return np.column_stack((lead, tail))


def _permutation_rows(j: int, rows: np.ndarray) -> np.ndarray:
    """Rows *rows* of the ``j``-table; beyond :data:`_TABLE_MAX` a row's
    lead is its rank over ``(j-1)!`` and its tail a ``(j-1)``-row."""
    if j <= _TABLE_MAX:
        return _permutation_table(j)[rows]
    lead, rank = np.divmod(rows, math.factorial(j - 1))
    tail = _permutation_rows(j - 1, rank)
    tail += tail >= lead[:, None]
    return np.column_stack((lead.astype(np.int8), tail))


@lru_cache(maxsize=None)
def _subsets(n: int, j: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``j``-subsets of ``range(n)`` in ``combinations`` order, and
    each one's complement (ascending), as ``C(n, j)``-row tables."""
    chosen = list(combinations(range(n), j))
    rest = [[q for q in range(n) if q not in subset] for subset in chosen]
    return (
        np.array(chosen, dtype=np.intp).reshape(len(chosen), j),
        np.array(rest, dtype=np.intp).reshape(len(chosen), n - j),
    )


@dataclass(frozen=True)
class Rows:
    """Candidates of one overlap ``j``, one array entry per row.

    Row ``r`` is candidate ``index[r]``: segment-2 subset ``seg2[r]``
    (its rank in ``combinations(range(n2), j)``) crosses the boundary
    onto segment-1 subset ``seg1[r]`` by bijection ``perm[r]`` (a row of
    the ``j!`` permutation table), and every other segment-2 qubit takes
    the next fresh ancilla.  :attr:`slots` expands the ranks into the
    slot of every segment-2 qubit, only when asked for.
    """

    n1: int
    n2: int
    overlap: int
    index: np.ndarray  # (R,) canonical candidate indices
    seg2: np.ndarray  # (R,) segment-2 subset ranks
    seg1: np.ndarray  # (R,) segment-1 subset ranks
    perm: np.ndarray  # (R,) bijection ranks

    @classmethod
    def of(cls, matching: Matching) -> "Rows":
        """The one-row case of *matching*, unranked from its index in
        the stream it came from."""
        n2, j = len(matching.mapping), matching.overlap
        n1 = matching.num_qubits - n2 + j
        index = matching.index
        for kind in ["subset"] + ["same-width"] * (n1 == n2 == j):
            for rows in matching_rows(kind, n1, n2, index, index + 1):
                if rows.matching(0) == matching:
                    return rows
        raise ValueError(f"{matching} is in no candidate stream")

    def __len__(self) -> int:
        return len(self.index)

    @property
    def num_qubits(self) -> int:
        return self.n1 + self.n2 - self.overlap

    def select(self, rows: np.ndarray) -> "Rows":
        """The rows at *rows* (positions or a mask)."""
        return replace(
            self, index=self.index[rows], seg2=self.seg2[rows],
            seg1=self.seg1[rows], perm=self.perm[rows],
        )

    @cached_property
    def slots(self) -> np.ndarray:
        """``(R, n2)`` slot of every segment-2 qubit, row by row."""
        j = self.overlap
        matched, unmatched = (t[self.seg2] for t in _subsets(self.n2, j))
        targets = _subsets(self.n1, j)[0][self.seg1]
        rows = np.arange(len(self))[:, None]
        out = np.empty((len(self), self.n2), dtype=np.intp)
        out[rows, matched] = targets[rows, _permutation_rows(j, self.perm)]
        out[rows, unmatched] = self.n1 + np.arange(self.n2 - j)
        return out

    def matching(self, row: int) -> Matching:
        mapping = tuple(enumerate(self.slots[row].tolist()))
        return Matching(
            index=int(self.index[row]),
            mapping=mapping,
            matched=tuple(pair for pair in mapping if pair[1] < self.n1),
            num_qubits=self.num_qubits,
        )


@lru_cache(maxsize=None)
def _spans(kind: str, n1: int, n2: int) -> Tuple[Tuple[int, ...], ...]:
    """``(j, first index, end, candidates per segment-2 subset, j!)``
    of every overlap of the *kind* stream."""
    matching_count(kind, n1, n2)  # validates
    overlaps = [n1] if kind == "same-width" else range(min(n1, n2) + 1)
    spans, offset = [], 0
    for j in overlaps:
        group = math.comb(n1, j) * math.factorial(j)
        spans.append((j, offset, offset + math.comb(n2, j) * group, group,
                      math.factorial(j)))
        offset = spans[-1][2]
    return tuple(spans)


def matching_rows(
    kind: str, n1: int, n2: int, start: int = 0, stop: Optional[int] = None,
    groups: Optional[Callable[[int, int, int], GroupTables]] = None,
) -> Iterator[Rows]:
    """The canonical stream's candidates ``start <= index < stop`` as
    :class:`Rows`, overlap by overlap.

    Every row is unranked from its index, so a slice costs its own rows
    whatever its position; the same-width stream is the single overlap
    ``j = n``.  With *groups* — ``groups(n1, n2, j)`` gives overlap
    ``j``'s two boolean tables over segment-2 and segment-1 subset
    ranks — only the rows of groups both tables admit are built and
    yielded.
    """
    spans = _spans(kind, n1, n2)
    stop = spans[-1][2] if stop is None else min(stop, spans[-1][2])
    for j, offset, end, group, perms in spans:
        if end <= start:
            continue
        if offset >= stop:
            return
        tables = None if groups is None else groups(n1, n2, j)
        lo, hi = max(start, offset) - offset, min(stop, end) - offset
        for local in _offsets(lo, hi, j, tables):
            seg2, rest = np.divmod(local, group)
            seg1, perm = np.divmod(rest, perms)
            yield Rows(n1, n2, j, local + offset, seg2, seg1, perm)


def _offsets(
    lo: int, hi: int, j: int, tables: Optional[GroupTables] = None
) -> Iterator[np.ndarray]:
    """Offsets ``lo <= r < hi`` within overlap *j*, ascending, at most
    :data:`_ROWS` an array, skipping the groups ``r // j!`` that
    *tables* reject.

    The walk goes block by block: a block is a group's ``j!`` rows, or
    ``k!`` of them for the largest ``k`` whose ``k!`` fits in
    :data:`_ROWS` (``k!`` divides ``j!``).  Block ranks are filtered a
    window of :data:`_ROWS` blocks at once, and offsets are built only
    for the rows of admitted blocks that fall inside ``[lo, hi)``.
    """
    k = j
    while math.factorial(k) > _ROWS:
        k -= 1
    width = math.factorial(k)
    per_group, batch = math.factorial(j) // width, _ROWS // width
    last = -(-hi // width)
    for first in range(lo // width, last, _ROWS):
        blocks = np.arange(first, min(first + _ROWS, last))
        if tables is not None:
            fits2, fits1 = tables
            seg2, seg1 = np.divmod(blocks // per_group, len(fits1))
            blocks = blocks[fits2[seg2] & fits1[seg1]]
        for i in range(0, len(blocks), batch):
            begins = blocks[i:i + batch] * width
            starts = np.maximum(begins, lo)
            sizes = np.minimum(begins + width, hi) - starts
            yield (np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
                   + np.arange(sizes.sum()))


def iter_same_width_matchings(n: int, start: int = 0) -> Iterator[Matching]:
    """Lazily yield every bijection between two ``n``-qubit registers,
    from candidate *start* on."""
    return iter_matchings("same-width", n, n, start=start)


def iter_subset_matchings(
    n1: int, n2: int, start: int = 0
) -> Iterator[Matching]:
    """Lazily yield Eq. 1's subset-injection matchings, from candidate
    *start* on."""
    return iter_matchings("subset", n1, n2, start=start)


def iter_matchings(
    kind: str, n1: int, n2: int, start: int = 0
) -> Iterator[Matching]:
    """The *kind* stream (``"same-width"`` or ``"subset"``; the former
    requires ``n1 == n2``) from candidate *start* on."""
    return matching_slice(kind, n1, n2, start, None)


def matching_count(kind: str, n1: int, n2: int) -> int:
    """Exact size of the stream :func:`iter_matchings` would yield."""
    if kind == "same-width":
        if n1 != n2:
            raise ValueError(
                f"same-width stream needs equal widths, got {n1} != {n2}"
            )
        return same_width_matching_count(n1)
    if kind == "subset":
        return subset_matching_count(n1, n2)
    raise ValueError(f"unknown matching stream {kind!r}")


def matching_slice(
    kind: str, n1: int, n2: int, start: int, stop: Optional[int]
) -> Iterator[Matching]:
    """Candidates ``start <= index < stop`` of the canonical stream, one
    :class:`Matching` per row of :func:`matching_rows`."""
    matching_count(kind, n1, n2)  # validates before the first item
    return (
        rows.matching(row)
        for rows in matching_rows(kind, n1, n2, start, stop)
        for row in range(len(rows))
    )


def recombine_candidate(
    segment1: QuantumCircuit,
    segment2: QuantumCircuit,
    mapping: Dict[int, int],
    num_qubits: int,
) -> QuantumCircuit:
    """Candidate circuit for one matching: segment 1 on slots
    ``0 .. n1-1`` followed by segment 2 remapped through *mapping*.

    Also used to build the generous oracle's reference circuit from the
    ground-truth matching, so a true-matching candidate is equal to the
    reference instruction for instruction.
    """
    out = QuantumCircuit(num_qubits, name=f"{segment1.name}+{segment2.name}")
    out.extend(segment1.instructions)
    out.extend(inst.remap(mapping) for inst in segment2)
    return out
