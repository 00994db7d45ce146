"""Structural-leakage analysis of obfuscated circuits.

Quantifies the qualitative security arguments of the paper:

* **Boundary detectability** (Sec. II-C): against block-insertion
  schemes, "an adversary can identify the boundary between the original
  circuit and the inserted random portion".  We score how well a simple
  detector — gate-type histogram distance in a sliding window — locates
  the true block boundary, for the Das baseline vs TetrisLock (whose
  inserted gates sit in otherwise-occupied layers and match the host
  circuit's gate types, leaving no seam).
* **Exposure entropy**: how much of the original circuit each compiler
  sees, and how much structural information (two-qubit interaction
  graph) leaks per segment.
* **Insertion blend score**: fraction of inserted gates whose type
  already appears in the host circuit (the paper's tailoring rule
  drives this to 1).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

from ..circuits.circuit import QuantumCircuit
from ..core.insertion import InsertionResult

__all__ = [
    "gate_histogram",
    "window_divergence_profile",
    "boundary_detection_score",
    "interaction_graph_edges",
    "segment_structural_leakage",
    "insertion_blend_score",
]


def gate_histogram(instructions) -> Counter:
    """Gate-name histogram of an instruction sequence."""
    return Counter(
        inst.name for inst in instructions if inst.is_gate
    )


def _normalised(counter: Counter) -> Dict[str, float]:
    total = sum(counter.values())
    if total == 0:
        return {}
    return {key: value / total for key, value in counter.items()}


def _histogram_distance(a: Counter, b: Counter) -> float:
    """Total variation distance between two gate-type histograms."""
    pa, pb = _normalised(a), _normalised(b)
    keys = set(pa) | set(pb)
    return 0.5 * sum(abs(pa.get(k, 0) - pb.get(k, 0)) for k in keys)


def window_divergence_profile(
    circuit: QuantumCircuit, window: int = 4
) -> List[float]:
    """Sliding-window gate-histogram divergence along the gate list.

    Position ``i`` compares the *window* gates before and after gate
    ``i``; a spike marks a structural seam — the signal a
    boundary-detection adversary thresholds on.
    """
    gates = circuit.gates()
    profile: List[float] = []
    for i in range(len(gates)):
        before = gates[max(0, i - window): i]
        after = gates[i: i + window]
        if not before or not after:
            profile.append(0.0)
            continue
        profile.append(
            _histogram_distance(gate_histogram(before), gate_histogram(after))
        )
    return profile


def boundary_detection_score(
    circuit: QuantumCircuit,
    true_boundaries: Sequence[int],
    window: int = 4,
    tolerance: int = 2,
) -> float:
    """How confidently the divergence detector finds a known seam.

    Returns the rank-percentile of the best true-boundary position in
    the divergence profile: 1.0 means a true boundary is the single
    strongest seam in the circuit; 0.0 means boundaries look like every
    other position (perfect blending).
    """
    if not true_boundaries:
        raise ValueError("need at least one boundary position")
    profile = window_divergence_profile(circuit, window)
    if not profile or max(profile) == 0.0:
        return 0.0
    best_true = max(
        profile[max(0, b - tolerance): b + tolerance + 1]
        and max(profile[max(0, b - tolerance): b + tolerance + 1])
        or 0.0
        for b in true_boundaries
        if b < len(profile) + tolerance
    )
    stronger = sum(1 for value in profile if value > best_true)
    return 1.0 - stronger / len(profile)


def interaction_graph_edges(circuit: QuantumCircuit) -> set:
    """Undirected two-qubit interaction edges of a circuit."""
    edges = set()
    for inst in circuit.gates():
        qubits = inst.qubits
        for i in range(len(qubits)):
            for j in range(i + 1, len(qubits)):
                edges.add(tuple(sorted((qubits[i], qubits[j]))))
    return edges


def segment_structural_leakage(
    original: QuantumCircuit, segment: QuantumCircuit
) -> float:
    """Fraction of the original interaction graph visible in a segment."""
    reference = interaction_graph_edges(original)
    if not reference:
        return 0.0
    visible = interaction_graph_edges(segment)
    return len(reference & visible) / len(reference)


def insertion_blend_score(insertion: InsertionResult) -> float:
    """Fraction of inserted gates whose type occurs in the original.

    The paper's tailoring rule (X/CX for arithmetic circuits, H for
    Grover-style) aims for 1.0: inserted gates are indistinguishable by
    type from the host circuit's own gates.
    """
    host_types = set(gate_histogram(insertion.original.gates()))
    inserted = [
        *insertion.r_instructions(),
        *insertion.rdg_instructions(),
    ]
    if not inserted:
        return 1.0
    blended = sum(1 for inst in inserted if inst.name in host_types)
    return blended / len(inserted)
