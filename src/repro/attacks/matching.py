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

The stream is walked one :class:`Block` at a time: the ``j!``
bijections of one subset pair are consecutive indices and the rows of a
cached ``j! x j`` permutation table, so a block is one integer array
and the search checks it with array operations.  The same-width stream
is the single block ``j = n``.  Nothing factorial-sized is ever
materialised: blocks hold at most :data:`_BLOCK_ROWS` rows, and
:func:`matching_slice` yields a :class:`Matching` per row only for the
callers that want objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit

__all__ = [
    "Block",
    "Matching",
    "iter_matchings",
    "iter_same_width_matchings",
    "iter_subset_matchings",
    "matching_count",
    "matching_blocks",
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
# Most rows one block holds, so per-block arrays stay bounded whatever
# the chunk size and a lazy stream never builds a factorial-sized table.
_BLOCK_ROWS = 1 << 16


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


@dataclass(frozen=True)
class Block:
    """Consecutive candidates of one (overlap ``j``, segment-2 subset,
    segment-1 subset) group.

    Row ``r`` is the group's bijection of rank ``ranks[r]``, candidate
    ``first + ranks[r]``: segment-2 qubit ``matched[i]`` goes to slot
    ``slots[r, i]``, a permutation of *targets*, and every other
    segment-2 qubit to its fixed *ancillas* slot.  So across a block the
    ancilla pairs and the set of taken slots are constant; only the
    bijection varies, and ``slots`` is built only when asked for.
    """

    first: int  # canonical index of the group's first bijection
    ranks: np.ndarray  # (B,) rows of the j! x j permutation table
    matched: Tuple[int, ...]  # segment-2 qubits crossing the boundary
    targets: Tuple[int, ...]  # the segment-1 slots they take
    ancillas: Tuple[Tuple[int, int], ...]  # (segment-2 qubit, slot)
    num_qubits: int

    @classmethod
    def of(cls, matching: Matching) -> "Block":
        """The one-row block of *matching*."""
        matched = tuple(q2 for q2, _ in matching.matched)
        return cls(
            first=matching.index,
            ranks=np.zeros(1, dtype=np.int64),
            matched=matched,
            targets=tuple(slot for _, slot in matching.matched),
            ancillas=tuple(
                pair for pair in matching.mapping if pair[0] not in matched
            ),
            num_qubits=matching.num_qubits,
        )

    def __len__(self) -> int:
        return len(self.ranks)

    @cached_property
    def slots(self) -> np.ndarray:
        """``(B, j)`` slot of each matched qubit, row by row."""
        perms = _permutation_rows(len(self.targets), self.ranks)
        return np.array(self.targets, dtype=np.int64)[perms]

    def taken(self) -> set:
        """The slots every row of the block occupies."""
        return set(self.targets) | {slot for _, slot in self.ancillas}

    def select(self, rows: np.ndarray) -> "Block":
        """The block restricted to *rows* (positions or a mask)."""
        return replace(self, ranks=self.ranks[rows])

    def matching(self, row: int) -> Matching:
        matched = tuple(zip(self.matched, self.slots[row].tolist()))
        return Matching(
            index=self.first + int(self.ranks[row]),
            mapping=tuple(sorted(matched + self.ancillas)),
            matched=matched,
            num_qubits=self.num_qubits,
        )


def matching_blocks(
    kind: str, n1: int, n2: int, start: int = 0, stop: Optional[int] = None
) -> Iterator[Block]:
    """The canonical stream's candidates ``start <= index < stop`` as
    blocks, in order.

    Subsets before *start* are skipped by size, their bijections never
    enumerated, so a worker's cost is ``O(skipped subsets)`` bookkeeping
    plus its own slice.  The same-width stream is the single group
    ``j = n``.
    """
    total = matching_count(kind, n1, n2)
    stop = total if stop is None else min(stop, total)
    overlaps = [n1] if kind == "same-width" else range(min(n1, n2) + 1)
    index = 0
    for j in overlaps:
        perms = math.factorial(j)
        subset_block = math.comb(n1, j) * perms
        for seg2_subset in combinations(range(n2), j):
            if index + subset_block <= start:
                index += subset_block
                continue
            chosen = set(seg2_subset)
            ancillas = tuple(
                (q2, n1 + rank)
                for rank, q2 in enumerate(
                    q for q in range(n2) if q not in chosen
                )
            )
            for seg1_subset in combinations(range(n1), j):
                if index >= stop:
                    return
                if index + perms <= start:
                    index += perms
                    continue
                last = min(stop - index, perms)
                for lo in range(max(start - index, 0), last, _BLOCK_ROWS):
                    yield Block(
                        first=index,
                        ranks=np.arange(lo, min(lo + _BLOCK_ROWS, last)),
                        matched=seg2_subset,
                        targets=seg1_subset,
                        ancillas=ancillas,
                        num_qubits=n1 + n2 - j,
                    )
                index += perms


def iter_same_width_matchings(n: int, start: int = 0) -> Iterator[Matching]:
    """Lazily yield every bijection between two ``n``-qubit registers,
    from candidate *start* on."""
    return iter_matchings("same-width", n, n, start=start)


def iter_subset_matchings(
    n1: int, n2: int, start: int = 0
) -> Iterator[Matching]:
    """Lazily yield Eq. 1's subset-injection matchings, from candidate
    *start* on.

    For each overlap size ``j``: choose the ``j`` segment-2 qubits
    that cross the boundary, choose ``j`` segment-1 attachment points,
    and try every bijection between the two subsets.  The remaining
    segment-2 qubits (ascending) land on fresh ancillas ``n1, n1+1,
    ...`` — the attacker's guess that they never met segment 1.
    """
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
    :class:`Matching` per row of :func:`matching_blocks`."""
    matching_count(kind, n1, n2)  # validates before the first item
    return (
        block.matching(row)
        for block in matching_blocks(kind, n1, n2, start, stop)
        for row in range(len(block))
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
