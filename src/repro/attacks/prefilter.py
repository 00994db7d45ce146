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
boolean ``(segment-2 qubit, slot)`` fit table, and it runs on
:class:`~repro.attacks.matching.Rows` of candidates at once
(:meth:`StructuralPrefilter.admitted`).  A row's ancilla pairs depend
only on its segment-2 subset and the slots it leaves to segment 1 only
on its segment-1 subset, so two per-overlap group tables
(:meth:`StructuralPrefilter.group_fits`) reject whole subset groups
before any row is unranked: the search hands them to
:func:`~repro.attacks.matching.matching_rows`, which expands rows only
for the admitted groups.  One gather of the fit table masks the
survivors, and only rows that pass it pay the ``O(edges)``
edge-multiset test.  :meth:`StructuralPrefilter.admits` is the one-row
case.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from .matching import GroupTables, Matching, Rows, _subsets

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
        circuits = (segment1, segment2, reference)
        histograms = [qubit_histograms(circuit) for circuit in circuits]
        keys = {k: i for i, k in enumerate(set().union(*sum(histograms, [])))}
        width = max(segment1.num_qubits + segment2.num_qubits,
                    reference.num_qubits)
        # (qubit, gate role) count tables, zero rows past each circuit
        h1, h2, ref = (np.zeros((rows, len(keys)), dtype=np.int64)
                       for rows in (width, segment2.num_qubits, width))
        for table, histogram in zip((h1, h2, ref), histograms):
            for qubit, counts in enumerate(histogram):
                for key, count in counts.items():
                    table[qubit, keys[key]] = count
        self._reference_width = reference.num_qubits
        # (segment-2 qubit, slot): the two histograms add up to the slot's
        self._fits = (h1 + h2[:, None] == ref).all(axis=2)
        # slots that misfit when segment 1 keeps them alone
        self._alone = (h1 != ref).any(axis=1)
        self._groups: Dict[int, GroupTables] = {}
        self._e1 = edge_histogram(segment1)
        self._seg2_edges: List[Tuple[str, Tuple[int, ...]]] = [
            (inst.name, inst.qubits)
            for inst in segment2
            if inst.is_gate and len(inst.qubits) >= 2
        ]
        self._ref_edges = edge_histogram(reference)

    # ------------------------------------------------------------------
    def group_fits(self, n1: int, n2: int, j: int) -> GroupTables:
        """Overlap *j*'s group tables: whether each segment-2 subset's
        ancilla pairs fit, and whether each segment-1 subset leaves only
        slots that fit alone (none does when a reference slot past the
        candidate register misfits): the *groups* of
        :func:`~repro.attacks.matching.matching_rows`."""
        if j not in self._groups:
            chosen1 = _subsets(n1, j)[0]
            unmatched = _subsets(n2, j)[1]
            fits1 = self._alone[chosen1].sum(axis=1) == self._alone[:n1].sum()
            self._groups[j] = (
                self._fits[unmatched, n1 + np.arange(n2 - j)].all(axis=1),
                fits1 & ~self._alone[n1 + n2 - j:self._reference_width].any(),
            )
        return self._groups[j]

    def admitted(self, rows: Rows) -> np.ndarray:
        """Boolean mask of the *rows* that survive both filters.

        The group tables mask rows by subset group (every row of a
        group-first walk passes them); one gather of the fit table masks
        the rest, and only rows the mask passes pay the edge-multiset
        test.
        """
        fits2, fits1 = self.group_fits(rows.n1, rows.n2, rows.overlap)
        admitted = fits2[rows.seg2] & fits1[rows.seg1]
        passed = np.flatnonzero(admitted)
        if not len(passed):
            return admitted
        slots = rows.select(passed).slots
        fit = self._fits[np.arange(rows.n2), slots].all(axis=1)
        admitted[passed] = fit
        for row, lookup in zip(passed[fit], slots[fit].tolist()):
            edges = Counter(self._e1)
            for name, qubits in self._seg2_edges:
                edges[(name, tuple(lookup[q] for q in qubits))] += 1
            admitted[row] = edges == self._ref_edges
        return admitted

    def admits(self, matching: Matching) -> bool:
        """True when the matching survives both structural filters."""
        return bool(self.admitted(Rows.of(matching))[0])
