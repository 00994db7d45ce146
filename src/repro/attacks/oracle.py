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
  :meth:`EquivalenceOracle.verdicts` composes a whole
  :class:`~repro.attacks.matching.Block` of matchings at once — one
  gather and one row-wise compare per bounded slice of rows;
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
from ..synth.truthtable import simulate_reversible
from .matching import Block, Matching, recombine_candidate

__all__ = [
    "MAX_UNITARY_QUBITS", "EquivalenceOracle", "is_reversible", "pad_table"
]

_REVERSIBLE_NAMES = {"x", "cx", "ccx", "swap", "cswap"}

# Widest candidate the unitary path may check: a 2^12 x 2^12 complex
# matrix is 256 MB, and each further qubit quadruples it.
MAX_UNITARY_QUBITS = 12

# Most table elements one slice of the composed check holds in an
# array: 8 MB of int64 per array, whatever the block size.
_GATHER_BUDGET = 1 << 20


def is_reversible(circuit: QuantumCircuit) -> bool:
    """True when every gate is classical-reversible (truth-table safe)."""
    return all(
        inst.name in _REVERSIBLE_NAMES or inst.name.startswith("mcx")
        for inst in circuit
        if inst.is_gate
    )


def pad_table(table: List[int], num_qubits: int, width: int) -> List[int]:
    """Extend a truth table with pass-through high qubits.

    The padded function applies *table* to the low *num_qubits* bits
    and leaves bits ``num_qubits .. width-1`` untouched — the function
    of the same circuit on a wider idle register.
    """
    if width < num_qubits:
        raise ValueError("cannot pad a table to a narrower register")
    if width == num_qubits:
        return table
    mask = (1 << num_qubits) - 1
    return [
        table[x & mask] | (x & ~mask) for x in range(1 << width)
    ]


def _pad_unitary(matrix: np.ndarray, num_qubits: int, width: int) -> np.ndarray:
    """``I (x) U`` — the unitary on a wider register with idle top
    qubits (little-endian: high qubits are the most significant index
    bits, hence the identity on the left of the Kronecker product)."""
    if width == num_qubits:
        return matrix
    return np.kron(np.eye(2 ** (width - num_qubits)), matrix)


def _bits(values: np.ndarray, count: int) -> np.ndarray:
    """``count x len(values)`` 0/1 matrix: row ``b`` holds bit ``b``."""
    return (values >> np.arange(count)[:, None]) & 1


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
        self._padded_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # composes: matchings are checked on the segments' truth tables
        self.composes = bool(use_truth_table and segments) and all(
            map(is_reversible, segments)
        )
        if self.composes:
            self._table1, table2 = (
                np.asarray(simulate_reversible(s).table) for s in segments
            )
            self._planes1 = _bits(self._table1, segments[0].num_qubits)
            self._planes2 = _bits(table2, segments[1].num_qubits)

    # ------------------------------------------------------------------
    def _table(self, width: int) -> np.ndarray:
        if width not in self._tables:
            self._tables[width] = np.asarray(pad_table(
                simulate_reversible(self.reference).table,
                self.reference.num_qubits,
                width,
            ))
        return self._tables[width]

    def _padded(self, width: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ancilla bits of every ``2^width`` input and the reference
        table shaped ``(2^(width - n1), 2^n1)``."""
        if width not in self._padded_tables:
            n1 = len(self._planes1)
            self._padded_tables[width] = (
                _bits(np.arange(1 << (width - n1)), width - n1),
                self._table(width).reshape(-1, 1 << n1),
            )
        return self._padded_tables[width]

    def _unitary(self, width: int) -> np.ndarray:
        if width not in self._unitaries:
            n = self.reference.num_qubits
            if n not in self._unitaries:
                self._unitaries[n] = circuit_unitary(self.reference)
            self._unitaries[width] = _pad_unitary(self._unitaries[n], n, width)
        return self._unitaries[width]

    def _compose(self, block: Block) -> np.ndarray:
        """Segment 1's table, then segment 2's on each row's slots.

        Each ``2^width`` table is an outer OR over an input's low ``n1``
        bits (segment 1's) and its ancilla bits above them.  The ancilla
        reads, the written slots and the bits segment 2 leaves alone are
        the same for every row; per row it is one gather of segment 2's
        output planes and one compare, in slices of rows whose arrays
        hold at most :data:`_GATHER_BUDGET` elements each.
        """
        n1 = len(self._planes1)
        width = max(block.num_qubits, self.reference.num_qubits)
        high_bits, reference = self._padded(width)
        high = np.arange(1 << (width - n1))
        # slot bit -> segment 2's input bit q2; its output bit q2 -> slot
        pairs = np.array(block.ancillas, dtype=np.intp).reshape(-1, 2)
        q2s, ancillas = pairs.T
        read_high = np.zeros(width - n1, dtype=np.int64)
        read_high[ancillas - n1] = np.left_shift(1, q2s)
        high_inputs = (read_high @ high_bits)[:, None]
        write_ancillas = np.left_shift(1, ancillas) @ self._planes2[q2s]
        written = sum(1 << slot for slot in block.taken())
        kept = ((high & ~(written >> n1)) << n1)[:, None] | (
            self._table1 & ~written
        )
        matched = np.array(block.matched, dtype=np.intp)
        reads = np.left_shift(1, matched)
        planes2 = self._planes2[matched]
        slots = block.slots
        verdicts = np.empty(len(block), dtype=bool)
        # rows x j x 2^n1 and rows x 2^width both stay within the budget
        step = max(1, _GATHER_BUDGET // (len(matched) + 1 << width))
        for lo in range(0, len(block), step):
            rows = slots[lo:lo + step]
            outputs = write_ancillas | (np.left_shift(1, rows) @ planes2)
            inputs = high_inputs | (reads @ self._planes1[rows])[:, None, :]
            inputs += (np.arange(len(rows)) * outputs.shape[1])[:, None, None]
            verdicts[lo:lo + step] = (
                (np.take(outputs, inputs) | kept) == reference
            ).all(axis=(1, 2))
        return verdicts

    def verdicts(self, block: Block) -> np.ndarray:
        """Boolean verdict of every row of *block* (a matching each)."""
        if self.composes:
            return self._compose(block)
        if self.segments is None:
            raise ValueError("checking a matching needs segments")
        return np.array([
            self._check_circuit(recombine_candidate(
                *self.segments, matching.mapping_dict(), matching.num_qubits
            ))
            for matching in map(block.matching, range(len(block)))
        ], dtype=bool)

    # ------------------------------------------------------------------
    def check(self, candidate: Union[QuantumCircuit, Matching]) -> bool:
        """True when *candidate* computes the reference function
        (idle-qubit padding applied to the narrower side)."""
        if isinstance(candidate, Matching):
            return bool(self.verdicts(Block.of(candidate))[0])
        return self._check_circuit(candidate)

    def _check_circuit(self, candidate: QuantumCircuit) -> bool:
        width = max(candidate.num_qubits, self.reference.num_qubits)
        if self.use_truth_table and is_reversible(candidate):
            table = pad_table(
                simulate_reversible(candidate).table,
                candidate.num_qubits,
                width,
            )
            return np.array_equal(table, self._table(width))
        return equal_up_to_global_phase(
            _pad_unitary(
                circuit_unitary(candidate), candidate.num_qubits, width
            ),
            self._unitary(width),
            atol=self.atol,
        )
