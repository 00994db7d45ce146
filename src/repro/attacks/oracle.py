"""Functional-equivalence oracle for candidate recombinations.

The attack evaluation needs one question answered per candidate: *does
this recombined circuit compute the protected function?*  The oracle
here is generous to the attacker — it holds a reference circuit in the
attacker's own frame (built from the ground-truth matching, see
:func:`repro.attacks.problem.problem_from_split`) and answers with an
exact equivalence check — so reported success statistics upper-bound a
real attacker who lacks such an oracle.

Two check paths, chosen automatically:

* **truth table** — when both reference and candidate are classical
  reversible (NOT/CNOT/Toffoli/MCT/SWAP/Fredkin, i.e. every RevLib
  benchmark and the default obfuscation gate pool), the function is a
  permutation of ``2^n`` bitstrings.  A matching's table is composed
  from the segments' tables, simulated once per search: no circuit.
  :meth:`EquivalenceOracle.verdicts` checks all
  :class:`~repro.attacks.matching.Rows` of one overlap at once, in
  tiers of inputs: every row on input 0, which alone rejects nearly
  every wrong matching, the survivors on the rest of the first
  :data:`_PROBE`, and only the rows that pass those on the rest of all
  ``2^width`` inputs, each tier in slices of bounded size;
* **unitary** — otherwise the full matrix is built through the shared
  batched gate kernels (:func:`repro.simulator.unitary.circuit_unitary`)
  and compared up to global phase, each matching recombined first.
  Searches refuse candidates over :data:`MAX_UNITARY_QUBITS` here.

Candidates of different widths are compared after padding the narrower
side with idle qubits: a candidate that computes ``original (x)
identity`` on spare ancillas has recovered the function.  Padded
reference tables/unitaries are cached per width, so streaming
thousands of candidates re-derives nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..simulator.unitary import circuit_unitary, equal_up_to_global_phase
from ..synth.truthtable import is_reversible, reversible_table
from .matching import Matching, Rows, recombine_candidate

__all__ = [
    "MAX_UNITARY_QUBITS", "EquivalenceOracle", "is_reversible", "pad_table"
]

# Widest candidate the unitary path may check: a 2^12 x 2^12 complex
# matrix is 256 MB, and each further qubit quadruples it.
MAX_UNITARY_QUBITS = 12

# Most table elements one slice of the composed check holds in an
# array: 8 MB of int64 per array, whatever the number of rows.
_GATHER_BUDGET = 1 << 20
# Inputs a row is probed on, after input 0, before its full table is
# composed.
_PROBE = 8


def _pad(table: np.ndarray, num_qubits: int, width: int) -> np.ndarray:
    """:func:`pad_table` as an array."""
    if width < num_qubits:
        raise ValueError("cannot pad a table to a narrower register")
    inputs = np.arange(1 << width)
    low = (1 << num_qubits) - 1
    return table[inputs & low] | (inputs & ~low)


def pad_table(table: List[int], num_qubits: int, width: int) -> List[int]:
    """Extend a truth table with pass-through high qubits.

    The padded function applies *table* to the low *num_qubits* bits
    and leaves bits ``num_qubits .. width-1`` untouched — the function
    of the same circuit on a wider idle register.
    """
    return _pad(np.asarray(table), num_qubits, width).tolist()


def _pad_unitary(matrix: np.ndarray, num_qubits: int, width: int) -> np.ndarray:
    """``I (x) U`` — the unitary on a wider register with idle top
    qubits (little-endian: high qubits are the most significant index
    bits, hence the identity on the left of the Kronecker product)."""
    if width == num_qubits:
        return matrix
    return np.kron(np.eye(2 ** (width - num_qubits)), matrix)


class EquivalenceOracle:
    """Checks candidate circuits, or matchings of the given *segments*,
    against a fixed reference function."""

    def __init__(
        self,
        reference: QuantumCircuit,
        use_truth_table: Optional[bool] = None,
        atol: float = 1e-7,
        segments: Optional[Tuple[QuantumCircuit, QuantumCircuit]] = None,
    ) -> None:
        if reference.has_measurements():
            raise ValueError("oracle reference must be measurement-free")
        self.reference = reference
        self.atol = atol
        if use_truth_table is None:
            use_truth_table = is_reversible(reference)
        elif use_truth_table and not is_reversible(reference):
            raise ValueError(
                "truth-table oracle requires a classical-reversible "
                "reference circuit"
            )
        self.use_truth_table = use_truth_table
        self.segments = segments
        self._tables: Dict[int, np.ndarray] = {}
        self._unitaries: Dict[int, np.ndarray] = {}
        # composes: matchings are checked on the segments' truth tables
        self.composes = bool(use_truth_table and segments) and all(
            map(is_reversible, segments)
        )
        if self.composes:
            self._table1, self._table2 = map(reversible_table, segments)

    # ------------------------------------------------------------------
    def _table(self, width: int) -> np.ndarray:
        if width not in self._tables:
            n = self.reference.num_qubits
            if n not in self._tables:
                self._tables[n] = reversible_table(self.reference)
            self._tables[width] = _pad(self._tables[n], n, width)
        return self._tables[width]

    def _unitary(self, width: int) -> np.ndarray:
        if width not in self._unitaries:
            n = self.reference.num_qubits
            if n not in self._unitaries:
                self._unitaries[n] = circuit_unitary(self.reference)
            self._unitaries[width] = _pad_unitary(self._unitaries[n], n, width)
        return self._unitaries[width]

    def _agree(
        self, slots: np.ndarray, after1: np.ndarray, reference: np.ndarray
    ) -> np.ndarray:
        """Which rows of *slots* send every segment-1 output *after1* to
        its *reference* entry: segment 2 reads its qubit ``q`` from slot
        ``slots[r, q]`` and writes it back there; other slots keep
        segment 1's bit."""
        q = np.arange(slots.shape[1])[:, None]
        slots = slots[:, :, None]
        inputs = (((after1 >> slots) & 1) << q).sum(axis=1)
        outputs = self._table2[inputs][:, None, :]
        written = (((outputs >> q) & 1) << slots).sum(axis=1)
        kept = after1 & ~np.left_shift(1, slots).sum(axis=1)
        return ((kept | written) == reference).all(axis=1)

    def _compose(self, rows: Rows) -> np.ndarray:
        """Segment 1's table, then segment 2's on each row's slots.

        Rows are checked in tiers of inputs: input 0, then the rest of
        the first :data:`_PROBE`, then the rest of all ``2^width``; each
        tier checks only the rows every earlier one passed, so the last
        makes the verdict exact.  Input 0 alone rejects nearly every
        wrong row.  Each tier runs in slices of rows whose arrays hold
        at most :data:`_GATHER_BUDGET` elements.
        """
        width = max(rows.num_qubits, self.reference.num_qubits)
        # segment 1's output on every input; bits above its qubits pass
        after1 = _pad(self._table1, rows.n1, width)
        reference = self._table(width)
        verdicts = np.ones(len(rows), dtype=bool)
        bounds = sorted({0, 1, min(_PROBE, len(reference)), len(reference)})
        for lo, hi in zip(bounds, bounds[1:]):
            step = max(1, _GATHER_BUDGET // ((hi - lo) * (rows.n2 + 1)))
            left = np.flatnonzero(verdicts)
            for first in range(0, len(left), step):
                part = left[first:first + step]
                verdicts[part] = self._agree(
                    rows.slots[part], after1[lo:hi], reference[lo:hi]
                )
        return verdicts

    def verdicts(self, rows: Rows) -> np.ndarray:
        """Boolean verdict of every one of the *rows* (a matching each)."""
        if self.composes:
            return self._compose(rows)
        if self.segments is None:
            raise ValueError("checking a matching needs segments")
        return np.array([
            self._check_circuit(recombine_candidate(
                *self.segments, dict(enumerate(slots)), rows.num_qubits
            ))
            for slots in rows.slots.tolist()
        ], dtype=bool)

    # ------------------------------------------------------------------
    def check(self, candidate: Union[QuantumCircuit, Matching]) -> bool:
        """True when *candidate* computes the reference function
        (idle-qubit padding applied to the narrower side)."""
        if isinstance(candidate, Matching):
            return bool(self.verdicts(Rows.of(candidate))[0])
        return self._check_circuit(candidate)

    def _check_circuit(self, candidate: QuantumCircuit) -> bool:
        width = max(candidate.num_qubits, self.reference.num_qubits)
        if self.use_truth_table and is_reversible(candidate):
            table = reversible_table(candidate)
            return np.array_equal(
                _pad(table, candidate.num_qubits, width), self._table(width)
            )
        return equal_up_to_global_phase(
            _pad_unitary(
                circuit_unitary(candidate), candidate.num_qubits, width
            ),
            self._unitary(width),
            atol=self.atol,
        )
