"""Interlocking circuit splitting (the "Tetris" in TetrisLock).

The obfuscated circuit ``R†RC`` is cut into two segments along a
*per-qubit* boundary — a jagged, interlocking edge rather than a
straight vertical line (paper Figures 2 and 3):

* every inserted pair is forced across the boundary: the R† member
  lands in segment 1, the R member in segment 2, so neither compiler
  can cancel the random gates;
* portions of the original circuit (``Cl``) are interwoven with R†
  in segment 1, the rest (``Cr``) with R in segment 2;
* the two segments generally touch *different* numbers of qubits —
  the mismatched-qubit defense behind Eq. 1's attack complexity.

Validity: segment 1 must be a dependency-closed set of the obfuscated
circuit's DAG, so that executing segment 1 then segment 2 reproduces a
topological order of the whole circuit.  A random per-qubit cut is
repaired to the nearest closed set; pair-membership constraints are
re-checked and the cut resampled when violated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.dag import CircuitDag, layer_assignment
from ..circuits.instruction import Instruction
from .insertion import InsertionResult, ROLE_R, ROLE_RDG

__all__ = [
    "SplitBoundary",
    "SplitResult",
    "SplitSegment",
    "interlocking_split",
    "segment_boundary",
]


@dataclass
class SplitSegment:
    """One compiler-visible share of the obfuscated circuit."""

    full: QuantumCircuit  # on the original register (for stitching)
    compact: QuantumCircuit  # re-indexed to active qubits (adversary view)
    active_qubits: List[int]  # original indices, sorted
    compact_to_original: Dict[int, int]
    instruction_indices: List[int]  # into the obfuscated circuit

    @property
    def num_active_qubits(self) -> int:
        return len(self.active_qubits)

    def __repr__(self) -> str:
        return (
            f"SplitSegment(qubits={self.num_active_qubits}, "
            f"gates={self.compact.size()})"
        )


@dataclass(frozen=True)
class SplitBoundary:
    """Adversary-relevant metadata of one segment boundary.

    This is what the Eq. 1 subset matcher consumes: the per-segment
    active-qubit sets (original register indices) and the qubits that
    cross the boundary — active in both segments — given as pairs of
    *compact* indices, one per side.  Everything an attacker must
    guess, and everything the generous oracle knows.
    """

    num_qubits: int  # original register width
    seg1_active: Tuple[int, ...]  # original indices, sorted
    seg2_active: Tuple[int, ...]
    shared_qubits: Tuple[int, ...]  # original indices crossing the cut
    crossing_pairs: Tuple[Tuple[int, int], ...]  # (seg1 compact, seg2 compact)

    @property
    def widths(self) -> Tuple[int, int]:
        return (len(self.seg1_active), len(self.seg2_active))

    @property
    def mismatched(self) -> bool:
        a, b = self.widths
        return a != b

    @property
    def candidate_width(self) -> int:
        """Register width of the true recombination in the attacker
        frame: segment-1 qubits plus one fresh ancilla per unmatched
        segment-2 qubit."""
        n1, n2 = self.widths
        return n1 + n2 - len(self.shared_qubits)

    def true_matching(self) -> Dict[int, int]:
        """Ground-truth seg2-compact -> candidate-slot assignment.

        Crossing qubits land on their segment-1 compact slot; the
        remaining segment-2 qubits take fresh ancillas ``n1, n1+1,
        ...`` in ascending compact order — the same convention the
        candidate enumeration in :mod:`repro.attacks.matching` uses,
        so this mapping is one of the enumerated candidates.
        """
        n1 = len(self.seg1_active)
        mapping = {c2: c1 for c1, c2 in self.crossing_pairs}
        ancilla = n1
        for q2 in range(len(self.seg2_active)):
            if q2 not in mapping:
                mapping[q2] = ancilla
                ancilla += 1
        return mapping


def segment_boundary(
    segment1: SplitSegment, segment2: SplitSegment, num_qubits: int
) -> SplitBoundary:
    """Boundary metadata between two segments of one split."""
    shared = sorted(
        set(segment1.active_qubits) & set(segment2.active_qubits)
    )
    inv1 = {o: c for c, o in segment1.compact_to_original.items()}
    inv2 = {o: c for c, o in segment2.compact_to_original.items()}
    return SplitBoundary(
        num_qubits=num_qubits,
        seg1_active=tuple(segment1.active_qubits),
        seg2_active=tuple(segment2.active_qubits),
        shared_qubits=tuple(shared),
        crossing_pairs=tuple((inv1[q], inv2[q]) for q in shared),
    )


@dataclass
class SplitResult:
    """The two interlocking segments plus boundary metadata."""

    insertion: InsertionResult
    segment1: SplitSegment  # R† | Cl
    segment2: SplitSegment  # R  | Cr
    cut_layers: Dict[int, int]  # per-qubit boundary (last layer in seg 1)
    seed: Optional[int] = None

    @property
    def qubit_counts(self) -> Tuple[int, int]:
        return (
            self.segment1.num_active_qubits,
            self.segment2.num_active_qubits,
        )

    @property
    def mismatched_qubits(self) -> bool:
        """True when the segments expose different qubit counts."""
        a, b = self.qubit_counts
        return a != b

    def boundary(self) -> SplitBoundary:
        """Boundary metadata (active sets + crossing pairs) for the
        subset matcher in :mod:`repro.attacks`."""
        return segment_boundary(
            self.segment1,
            self.segment2,
            self.insertion.obfuscated.num_qubits,
        )

    def recombined(self) -> QuantumCircuit:
        """Logical de-obfuscation: segment 1 then segment 2.

        Functionally identical to the original circuit (the inserted
        pairs cancel once the segments are joined).
        """
        obf = self.insertion.obfuscated
        out = QuantumCircuit(obf.num_qubits, obf.num_clbits,
                             f"{self.insertion.original.name}_restored")
        for index in self.segment1.instruction_indices:
            out.extend([obf[index]])
        for index in self.segment2.instruction_indices:
            out.extend([obf[index]])
        return out

    def exposure_fraction(self) -> Tuple[float, float]:
        """Fraction of *original* gates visible to each compiler."""
        roles = self.insertion.roles
        total = sum(1 for r in roles if r == "original")
        if total == 0:
            return (0.0, 0.0)
        seg1 = sum(
            1
            for i in self.segment1.instruction_indices
            if roles[i] == "original"
        )
        seg2 = sum(
            1
            for i in self.segment2.instruction_indices
            if roles[i] == "original"
        )
        return (seg1 / total, seg2 / total)


def _extract_segment(
    obfuscated: QuantumCircuit, indices: Sequence[int], name: str
) -> SplitSegment:
    instructions: List[Instruction] = [obfuscated[i] for i in indices]
    active: Set[int] = set()
    for inst in instructions:
        active.update(inst.qubits)
    active_sorted = sorted(active)
    full = QuantumCircuit(obfuscated.num_qubits, name=name)
    full.extend(instructions)
    mapping = {orig: compact for compact, orig in enumerate(active_sorted)}
    compact = QuantumCircuit(len(active_sorted), name=f"{name}_compact")
    for inst in instructions:
        compact.extend([inst.remap(mapping)])
    return SplitSegment(
        full=full,
        compact=compact,
        active_qubits=active_sorted,
        compact_to_original={c: o for o, c in mapping.items()},
        instruction_indices=list(indices),
    )


def interlocking_split(
    insertion: InsertionResult,
    seed: Optional[Union[int, np.random.Generator]] = None,
    max_attempts: int = 200,
    balance: float = 0.5,
) -> SplitResult:
    """Split an obfuscated circuit along a random interlocking boundary.

    *balance* biases the per-qubit cut position (0 = everything right,
    1 = everything left).  The sampler retries until a cut satisfies
    the pair constraint (R† left, R right); with at least one inserted
    pair this succeeds quickly because each pair occupies two adjacent
    layers and the cut is sampled per qubit.
    """
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    obf = insertion.obfuscated
    if len(obf) == 0:
        raise ValueError("cannot split an empty circuit")
    layers = layer_assignment(obf)
    num_layers = max(layers) + 1 if layers else 0
    dag = CircuitDag(obf)
    rdg_indices = set(insertion.indices_with_role(ROLE_RDG))
    r_indices = set(insertion.indices_with_role(ROLE_R))

    last_error: Optional[str] = None
    for _ in range(max_attempts):
        cut = _sample_cut(rng, obf.num_qubits, num_layers, balance, insertion)
        seed_set = {
            i
            for i, inst in enumerate(obf)
            if all(layers[i] <= cut[q] for q in inst.qubits)
        }
        seed_set |= rdg_indices
        segment1_set = dag.downward_closure(seed_set)
        # pair constraint: R members must stay in segment 2
        offending = segment1_set & r_indices
        if offending:
            # drop R members and their dependants, then re-check R†
            removal = set(offending)
            for index in offending:
                removal |= dag.descendants(index)
            segment1_set -= removal
            if not rdg_indices <= segment1_set:
                last_error = "pair constraint unsatisfiable for this cut"
                continue
        if not segment1_set or len(segment1_set) == len(obf):
            last_error = "degenerate cut (one empty segment)"
            continue
        left, right = dag.split_indices(segment1_set)
        segment1 = _extract_segment(obf, left, f"{obf.name}_seg1")
        segment2 = _extract_segment(obf, right, f"{obf.name}_seg2")
        effective_cut = _effective_cut(obf, layers, segment1_set)
        return SplitResult(
            insertion=insertion,
            segment1=segment1,
            segment2=segment2,
            cut_layers=effective_cut,
        )
    raise RuntimeError(
        f"could not find a valid interlocking cut in {max_attempts} "
        f"attempts (last error: {last_error})"
    )


def _sample_cut(
    rng: np.random.Generator,
    num_qubits: int,
    num_layers: int,
    balance: float,
    insertion: InsertionResult,
) -> Dict[int, int]:
    """Random per-qubit cut layer, biased to straddle inserted pairs.

    For qubits touched by a pair, the cut is placed exactly between the
    R† layer and the R layer so the pair is guaranteed split; other
    qubits get an independent uniform cut around the balance point.
    """
    cut: Dict[int, int] = {}
    pair_qubits: Dict[int, Tuple[int, int]] = {}
    for pair in insertion.pairs:
        for q in pair.qubits:
            pair_qubits[q] = (pair.rdg_layer, pair.r_layer)
    for q in range(num_qubits):
        if q in pair_qubits:
            rdg_layer, _ = pair_qubits[q]
            cut[q] = rdg_layer  # last layer included in segment 1
            continue
        center = balance * num_layers
        spread = max(num_layers / 2.0, 1.0)
        value = int(round(rng.normal(center, spread / 2.0)))
        cut[q] = int(np.clip(value, -1, num_layers - 1))
    return cut


def _effective_cut(
    obf: QuantumCircuit, layers: List[int], segment1_set: Set[int]
) -> Dict[int, int]:
    """Actual boundary after closure repair: last seg-1 layer per qubit."""
    cut: Dict[int, int] = {q: -1 for q in range(obf.num_qubits)}
    for index in segment1_set:
        for q in obf[index].qubits:
            cut[q] = max(cut[q], layers[index])
    return cut
