"""Lazy candidate-matching streams for the collusion attacks.

A *matching* is one guess at how the two colluding compilers' segments
fit together: an assignment of every segment-2 compact qubit to a slot
of the candidate register.  Slots ``0 .. n1-1`` are segment 1's compact
qubits; matched segment-2 qubits share one of them, unmatched
segment-2 qubits take fresh ancillas ``n1, n1+1, ...`` in ascending
compact order.

Two streams are provided:

* :func:`iter_same_width_matchings` — the Saki-scenario space: every
  bijection between two equal-width registers (``n!`` candidates, no
  ancillas);
* :func:`iter_subset_matchings` — Eq. 1's mismatched-width space: for
  every overlap size ``j``, every ``j``-subset of segment-2 qubits,
  every ``j``-subset of segment-1 attachment points and every
  bijection between them — ``sum_j C(n2,j) C(n1,j) j!`` candidates.

Both are generators: the ``n!``-sized (or worse) candidate lists are
**never materialised**.  Enumeration order is canonical and
deterministic — ``j`` ascending, subsets in lexicographic
:func:`itertools.combinations` order, bijections in
:func:`itertools.permutations` order — so a candidate's position in
the stream (its *index*) is stable across runs, worker counts and
machines.  The parallel search relies on this to slice the stream into
chunks that reassemble bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, permutations
from typing import Dict, Iterator, Tuple

from ..circuits.circuit import QuantumCircuit

__all__ = [
    "Matching",
    "iter_matchings",
    "iter_same_width_matchings",
    "iter_subset_matchings",
    "matching_count",
    "matching_slice",
    "permutations_from",
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


def permutations_from(
    items: Tuple[int, ...], start: int
) -> Iterator[Tuple[int, ...]]:
    """Permutations of sorted *items* in lexicographic order, starting
    at rank *start*.

    The first permutation is unranked directly (factorial number
    system, ``O(k^2)``); successors come from the standard in-place
    next-permutation step — so skipping a prefix costs nothing per
    skipped element, unlike slicing :func:`itertools.permutations`.
    """
    k = len(items)
    if start >= math.factorial(k):
        return
    if start == 0:
        yield from permutations(items)
        return
    pool = list(items)
    perm: list = []
    rank = start
    for i in range(k, 0, -1):
        block = math.factorial(i - 1)
        position, rank = divmod(rank, block)
        perm.append(pool.pop(position))
    while True:
        yield tuple(perm)
        # next lexicographic permutation (Narayana's algorithm)
        i = k - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = k - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])


def iter_same_width_matchings(n: int, start: int = 0) -> Iterator[Matching]:
    """Lazily yield every bijection between two ``n``-qubit registers.

    *start* fast-forwards by unranking the start-th permutation
    directly — no enumeration of the skipped prefix — so chunked
    workers pay nothing for the stream before their slice.
    """
    if n < 0:
        raise ValueError("qubit count must be non-negative")
    stream = permutations_from(tuple(range(n)), start)
    for index, perm in enumerate(stream, start=start):
        pairs = tuple((src, dst) for src, dst in enumerate(perm))
        yield Matching(
            index=index, mapping=pairs, matched=pairs, num_qubits=n
        )


def iter_subset_matchings(
    n1: int, n2: int, start: int = 0
) -> Iterator[Matching]:
    """Lazily yield Eq. 1's subset-injection matchings.

    For each overlap size ``j``: choose the ``j`` segment-2 qubits
    that cross the boundary, choose ``j`` segment-1 attachment points,
    and try every bijection between the two subsets.  The remaining
    segment-2 qubits (ascending) land on fresh ancillas ``n1, n1+1,
    ...`` — the attacker's guess that they never met segment 1.

    *start* fast-forwards to that candidate index arithmetically:
    whole ``j`` blocks, segment-2-subset blocks and segment-1-subset
    blocks before it are skipped by size, never enumerated, so a
    worker's cost is ``O(skipped subsets)`` bookkeeping plus its own
    slice — not a re-enumeration of the prefix.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("qubit counts must be non-negative")
    index = 0
    width_base = n1 + n2
    for j in range(min(n1, n2) + 1):
        j_block = (
            math.comb(n2, j) * math.comb(n1, j) * math.factorial(j)
        )
        if index + j_block <= start:
            index += j_block
            continue
        subset_block = math.comb(n1, j) * math.factorial(j)
        perm_block = math.factorial(j)
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
                if index + perm_block <= start:
                    index += perm_block
                    continue
                offset = max(0, start - index)
                index += offset
                for perm in permutations_from(seg1_subset, offset):
                    matched = tuple(zip(seg2_subset, perm))
                    yield Matching(
                        index=index,
                        mapping=tuple(
                            sorted(matched + ancillas)
                        ),
                        matched=matched,
                        num_qubits=width_base - j,
                    )
                    index += 1


def iter_matchings(
    kind: str, n1: int, n2: int, start: int = 0
) -> Iterator[Matching]:
    """Stream dispatcher used by the parallel search workers.

    *kind* is ``"same-width"`` or ``"subset"``; the former requires
    ``n1 == n2``.
    """
    if kind == "same-width":
        if n1 != n2:
            raise ValueError(
                f"same-width stream needs equal widths, got {n1} != {n2}"
            )
        return iter_same_width_matchings(n1, start=start)
    if kind == "subset":
        return iter_subset_matchings(n1, n2, start=start)
    raise ValueError(f"unknown matching stream {kind!r}")


def matching_count(kind: str, n1: int, n2: int) -> int:
    """Exact size of the stream :func:`iter_matchings` would yield."""
    iter_matchings(kind, n1, n2)  # validates the kind and widths
    if kind == "same-width":
        return same_width_matching_count(n1)
    return subset_matching_count(n1, n2)


def matching_slice(
    kind: str, n1: int, n2: int, start: int, stop: int
) -> Iterator[Matching]:
    """Candidates ``start <= index < stop`` of the canonical stream.

    The prefix before *start* is skipped by the streams' own
    fast-forward, not enumerated candidate by candidate."""
    return islice(iter_matchings(kind, n1, n2, start=start), stop - start)


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
