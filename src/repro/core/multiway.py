"""K-way interlocking splits.

The paper's defence statement covers "two *or more* sub-circuits"
compiled by different compilers.  This module generalises
:func:`repro.core.split.interlocking_split` to ``k`` segments:

* segment boundaries are sampled as increasing per-qubit cut vectors
  and repaired to dependency-closed prefixes, so concatenating the
  segments in order reproduces a topological order of the obfuscated
  circuit (function preserved);
* the inserted R†/R pairs straddle the *first* boundary (the window
  construction guarantees a valid cut there); additional boundaries
  subdivide ``Cr`` further, shrinking what any single compiler sees.

With ``k = 2`` this reduces exactly to the standard interlocking split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.dag import CircuitDag
from .insertion import InsertionResult
from .split import (
    SplitBoundary,
    SplitSegment,
    _extract_segment,
    interlocking_split,
    segment_boundary,
)

__all__ = ["MultiwaySplitResult", "multiway_split"]


@dataclass
class MultiwaySplitResult:
    """An ordered list of k interlocking segments."""

    insertion: InsertionResult
    segments: List[SplitSegment]

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def qubit_counts(self) -> Tuple[int, ...]:
        return tuple(s.num_active_qubits for s in self.segments)

    def recombined(self) -> QuantumCircuit:
        """Concatenate all segments; functionally equals the original."""
        obf = self.insertion.obfuscated
        out = QuantumCircuit(
            obf.num_qubits,
            obf.num_clbits,
            f"{self.insertion.original.name}_restored",
        )
        for segment in self.segments:
            for index in segment.instruction_indices:
                out.extend([obf[index]])
        return out

    def boundaries(self) -> List[SplitBoundary]:
        """Boundary metadata between each pair of consecutive segments.

        Entry ``i`` describes the cut between segment ``i`` and segment
        ``i + 1`` — the per-pair view a colluding subset of compilers
        would attack with :mod:`repro.attacks`.
        """
        n = self.insertion.obfuscated.num_qubits
        return [
            segment_boundary(a, b, n)
            for a, b in zip(self.segments, self.segments[1:])
        ]

    def max_exposure(self) -> float:
        """Largest fraction of original gates any one compiler sees."""
        roles = self.insertion.roles
        total = sum(1 for r in roles if r == "original")
        if total == 0:
            return 0.0
        return max(
            sum(
                1
                for i in segment.instruction_indices
                if roles[i] == "original"
            )
            / total
            for segment in self.segments
        )


def multiway_split(
    insertion: InsertionResult,
    num_segments: int,
    seed: Optional[Union[int, np.random.Generator]] = None,
    max_attempts: int = 100,
) -> MultiwaySplitResult:
    """Split an obfuscated circuit into *num_segments* ordered shares."""
    if num_segments < 2:
        raise ValueError("need at least two segments")
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    # first boundary: the standard pair-straddling interlocking cut
    base = interlocking_split(insertion, seed=rng)
    segments: List[SplitSegment] = [base.segment1]
    remainder_indices = list(base.segment2.instruction_indices)
    obf = insertion.obfuscated
    dag = CircuitDag(obf)

    for cut_number in range(num_segments - 2):
        if len(remainder_indices) < 2:
            break
        piece = _cut_remainder(
            obf, dag, remainder_indices, rng, max_attempts
        )
        if piece is None:
            break
        left, right = piece
        segments.append(
            _extract_segment(obf, left, f"{obf.name}_seg{cut_number + 2}")
        )
        remainder_indices = right
    segments.append(
        _extract_segment(obf, remainder_indices, f"{obf.name}_seg_last")
    )
    return MultiwaySplitResult(insertion=insertion, segments=segments)


def _cut_remainder(
    obf: QuantumCircuit,
    dag: CircuitDag,
    indices: List[int],
    rng: np.random.Generator,
    max_attempts: int,
) -> Optional[Tuple[List[int], List[int]]]:
    """Split an index list into a dependency-valid (left, right) pair.

    Works on the sub-DAG induced by *indices*: picks a random target
    size, closes the selection under ancestors (within the remainder —
    earlier segments are already complete prefixes), and splits.
    """
    index_set = set(indices)
    for _ in range(max_attempts):
        target = int(rng.integers(1, len(indices)))
        seed_nodes = rng.choice(indices, size=target, replace=False)
        closed: Set[int] = set()
        frontier = [int(i) for i in seed_nodes]
        while frontier:
            node = frontier.pop()
            if node in closed:
                continue
            closed.add(node)
            frontier.extend(
                p
                for p in dag.graph.predecessors(node)
                if p in index_set and p not in closed
            )
        if 0 < len(closed) < len(indices):
            left = [i for i in indices if i in closed]
            right = [i for i in indices if i not in closed]
            return left, right
    return None
