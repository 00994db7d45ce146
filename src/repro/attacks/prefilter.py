"""Cheap structural prefilters for the candidate-matching search.

Checking a candidate costs ``O(2^n)`` numpy work at best (composed
truth tables) and ``O(4^n)`` at worst (unitary).  Most matchings can
be rejected far cheaper from structure alone: a matching is only worth
simulating when the candidate it induces *looks like* the reference —
same per-qubit gate histogram, same interaction-graph edge multiset.

Both filters compare against the oracle's reference circuit, which is
the same generosity assumption the oracle itself makes (see
:mod:`repro.attacks.oracle`).  They are **necessary conditions for
structural identity, not for functional equivalence**: a wrong
matching whose candidate happens to compute the right function through
*different* gate structure would be pruned, so match counts with
prefiltering enabled can undercount exotic ties.  The ground-truth
matching always survives — its candidate is the reference circuit
instruction for instruction — so attack *success* is never filtered
away.  Disable prefiltering (``SearchOptions(prefilter=False)``) for
exact per-candidate accounting.

Neither filter ever builds a circuit or adds a histogram per
candidate: the histogram stage is tabulated once per search, so a
matching costs one set-containment test over its ``(segment-2 qubit,
slot)`` pairs, and only matchings that pass it pay the ``O(edges)``
edge-multiset test.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from ..circuits.circuit import QuantumCircuit
from .matching import Matching

__all__ = ["StructuralPrefilter", "edge_histogram", "qubit_histograms"]


def qubit_histograms(circuit: QuantumCircuit) -> List[Counter]:
    """Per-qubit multiset of ``(gate name, operand position)`` pairs.

    Position matters: a CX control and a CX target are different roles
    and must stay distinguishable under relabelling.
    """
    histograms: List[Counter] = [Counter() for _ in range(circuit.num_qubits)]
    for inst in circuit:
        if not inst.is_gate:
            continue
        for position, qubit in enumerate(inst.qubits):
            histograms[qubit][(inst.name, position)] += 1
    return histograms


def edge_histogram(circuit: QuantumCircuit) -> Counter:
    """Multiset of ``(gate name, operand tuple)`` for multi-qubit gates.

    Operand order is preserved (control vs target), so this is the
    labelled interaction multigraph of the circuit.
    """
    edges: Counter = Counter()
    for inst in circuit:
        if inst.is_gate and len(inst.qubits) >= 2:
            edges[(inst.name, inst.qubits)] += 1
    return edges


class StructuralPrefilter:
    """Rejects matchings whose candidate cannot equal the reference
    structurally.

    Two stages, cheapest first:

    1. **gate-histogram compatibility** — every candidate slot's
       combined per-qubit histogram (segment 1's plus the mapped
       segment-2 qubit's) must equal the reference's histogram for
       that slot (tabulated per slot and segment-2 qubit);
    2. **interaction-graph compatibility** — the candidate's labelled
       edge multiset (segment-1 edges plus segment-2 edges pushed
       through the mapping) must equal the reference's.
    """

    def __init__(
        self,
        segment1: QuantumCircuit,
        segment2: QuantumCircuit,
        reference: QuantumCircuit,
    ) -> None:
        h1 = qubit_histograms(segment1)
        h2 = qubit_histograms(segment2)
        ref = qubit_histograms(reference)
        self._reference_width = reference.num_qubits
        slots = range(max(len(h1) + len(h2), len(ref)))
        h1 += [Counter()] * (len(slots) - len(h1))
        ref += [Counter()] * (len(slots) - len(ref))
        # counts are positive: adding an empty histogram changes nothing
        self._fits = frozenset(
            (q2, slot)
            for slot in slots
            for q2, h in enumerate(h2)
            if h1[slot] + h == ref[slot]
        )
        self._misfits_alone = [s for s in slots if h1[s] != ref[s]]
        self._e1 = edge_histogram(segment1)
        self._seg2_edges: List[Tuple[str, Tuple[int, ...]]] = [
            (inst.name, inst.qubits)
            for inst in segment2
            if inst.is_gate and len(inst.qubits) >= 2
        ]
        self._ref_edges = edge_histogram(reference)

    # ------------------------------------------------------------------
    def admits(self, matching: Matching) -> bool:
        """True when the matching survives both structural filters."""
        if not self._fits.issuperset(matching.mapping):
            return False
        lookup: Dict[int, int] = dict(matching.mapping)
        width = max(matching.num_qubits, self._reference_width)
        taken = set(lookup.values())
        if any(s < width and s not in taken for s in self._misfits_alone):
            return False

        if self._seg2_edges or self._e1 or self._ref_edges:
            candidate_edges = Counter(self._e1)
            for name, qubits in self._seg2_edges:
                candidate_edges[
                    (name, tuple(lookup[q] for q in qubits))
                ] += 1
            if candidate_edges != self._ref_edges:
                return False
        return True
