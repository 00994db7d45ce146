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
  permutation of ``2^n`` bitstrings simulated with integer ops —
  orders of magnitude cheaper than any statevector;
* **unitary** — otherwise the full matrix is built through the shared
  batched gate kernels (:func:`repro.simulator.unitary.circuit_unitary`
  evolves all ``2^n`` basis states as one batch, one
  :mod:`repro.simulator.kernels` call per fused plan op)
  and compared up to global phase.

Candidates of different widths are compared after padding the narrower
side with idle qubits: a candidate that computes ``original (x)
identity`` on spare ancillas has recovered the function.  Padded
reference tables/unitaries are cached per width, so streaming
thousands of candidates re-derives nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..simulator.unitary import circuit_unitary, equal_up_to_global_phase
from ..synth.truthtable import simulate_reversible

__all__ = ["EquivalenceOracle", "is_reversible", "pad_table"]

_REVERSIBLE_NAMES = {"x", "cx", "ccx", "swap", "cswap"}


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


class EquivalenceOracle:
    """Checks candidate circuits against a fixed reference function."""

    def __init__(
        self,
        reference: QuantumCircuit,
        use_truth_table: Optional[bool] = None,
        atol: float = 1e-7,
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
        self._tables: Dict[int, List[int]] = {}
        self._unitaries: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _table(self, width: int) -> List[int]:
        if width not in self._tables:
            n = self.reference.num_qubits
            base = self._tables.get(n)
            if base is None:
                base = simulate_reversible(self.reference).table
                self._tables[n] = base
            self._tables[width] = pad_table(base, n, width)
        return self._tables[width]

    def _unitary(self, width: int) -> np.ndarray:
        if width not in self._unitaries:
            n = self.reference.num_qubits
            base = self._unitaries.get(n)
            if base is None:
                base = circuit_unitary(self.reference)
                self._unitaries[n] = base
            self._unitaries[width] = _pad_unitary(base, n, width)
        return self._unitaries[width]

    # ------------------------------------------------------------------
    def check(self, candidate: QuantumCircuit) -> bool:
        """True when *candidate* computes the reference function
        (idle-qubit padding applied to the narrower side)."""
        width = max(candidate.num_qubits, self.reference.num_qubits)
        if self.use_truth_table and is_reversible(candidate):
            table = pad_table(
                simulate_reversible(candidate).table,
                candidate.num_qubits,
                width,
            )
            return table == self._table(width)
        return equal_up_to_global_phase(
            _pad_unitary(
                circuit_unitary(candidate), candidate.num_qubits, width
            ),
            self._unitary(width),
            atol=self.atol,
        )
