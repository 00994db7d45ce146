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
candidate.  The histogram stage is tabulated once per search as a
boolean ``(segment-2 qubit, slot)`` fit table plus the slots that fail
when left to segment 1, and it runs on a whole
:class:`~repro.attacks.matching.Block` of candidates at once
(:meth:`StructuralPrefilter.admitted`): the ancilla pairs and the
slots left to segment 1 are the same for every row, so they reject
whole blocks with no per-row work, and one gather of the fit table
masks the rest.  Only rows that pass the mask pay the ``O(edges)``
edge-multiset test.  :meth:`StructuralPrefilter.admits` is the
one-row case.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from .matching import Block, Matching

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
        self._fits = np.array(
            [[h1[slot] + h == ref[slot] for slot in slots] for h in h2],
            dtype=bool,
        ).reshape(len(h2), len(slots))
        self._misfits_alone = [s for s in slots if h1[s] != ref[s]]
        self._e1 = edge_histogram(segment1)
        self._seg2_edges: List[Tuple[str, Tuple[int, ...]]] = [
            (inst.name, inst.qubits)
            for inst in segment2
            if inst.is_gate and len(inst.qubits) >= 2
        ]
        self._ref_edges = edge_histogram(reference)

    # ------------------------------------------------------------------
    def admitted(self, block: Block) -> np.ndarray:
        """Boolean mask of the *block*'s rows that survive both filters.

        The ancilla pairs and the slots left to segment 1 are the same
        for every row, so they reject the whole block at once; one
        gather of the fit table masks the rest, and only rows the mask
        passes pay the edge-multiset test.
        """
        rows = np.zeros(len(block), dtype=bool)
        if not all(self._fits[q2, slot] for q2, slot in block.ancillas):
            return rows
        width = max(block.num_qubits, self._reference_width)
        taken = block.taken()
        if any(s < width and s not in taken for s in self._misfits_alone):
            return rows
        matched = np.array(block.matched, dtype=np.intp)
        rows[:] = self._fits[matched, block.slots].all(axis=1)
        for row in np.flatnonzero(rows):
            lookup = block.matching(row).mapping_dict()
            edges = Counter(self._e1)
            for name, qubits in self._seg2_edges:
                edges[(name, tuple(lookup[q] for q in qubits))] += 1
            rows[row] = edges == self._ref_edges
        return rows

    def admits(self, matching: Matching) -> bool:
        """True when the matching survives both structural filters."""
        return bool(self.admitted(Block.of(matching))[0])
