"""Dense statevector engine.

State layout
------------
The state is an ``ndarray`` of shape ``(2,) * n`` where axis ``i`` is
qubit ``i``.  Computational-basis indices are little-endian: basis state
``k`` assigns bit ``(k >> q) & 1`` to qubit ``q``, and bitstrings are
printed with qubit 0 right-most — matching Qiskit so that results can
be compared one-to-one with the paper's tooling.

Gate matrices follow the project-wide "first listed qubit = most
significant" convention (see :mod:`repro.circuits.gates`); the kernel
in :meth:`Statevector.apply_matrix` contracts accordingly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate
from .counts import counts_from_outcomes, remap_bits
from .kernels import apply_matrix_state

__all__ = ["Statevector", "format_bitstring", "bitstring_to_index"]

_ATOL = 1e-9


def format_bitstring(index: int, num_bits: int) -> str:
    """Little-endian basis index -> bitstring with bit 0 right-most."""
    return format(index, f"0{num_bits}b")


def bitstring_to_index(bitstring: str) -> int:
    """Inverse of :func:`format_bitstring`."""
    return int(bitstring, 2)


class Statevector:
    """A pure n-qubit state with in-place gate application."""

    def __init__(self, num_qubits: int, data: Optional[np.ndarray] = None):
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = int(num_qubits)
        if data is None:
            tensor = np.zeros((2,) * self.num_qubits, dtype=complex)
            tensor[(0,) * self.num_qubits] = 1.0
        else:
            tensor = np.asarray(data, dtype=complex)
            if tensor.size != 2 ** self.num_qubits:
                raise ValueError("data size does not match qubit count")
            tensor = tensor.reshape((2,) * self.num_qubits)
            norm = np.linalg.norm(tensor)
            if abs(norm - 1.0) > 1e-6:
                raise ValueError("statevector must be normalised")
        self._tensor = tensor

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_basis_state(cls, num_qubits: int, index: int) -> "Statevector":
        """|index> in little-endian convention."""
        if not 0 <= index < 2 ** num_qubits:
            raise ValueError("basis index out of range")
        state = cls(num_qubits)
        state._tensor[(0,) * num_qubits] = 0.0
        bits = tuple((index >> q) & 1 for q in range(num_qubits))
        state._tensor[bits] = 1.0
        return state

    @classmethod
    def from_bitstring(cls, bitstring: str) -> "Statevector":
        """Build |bitstring> (qubit 0 = right-most character)."""
        return cls.from_basis_state(len(bitstring), int(bitstring, 2))

    def copy(self) -> "Statevector":
        out = Statevector(self.num_qubits)
        out._tensor = self._tensor.copy()
        return out

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def to_vector(self) -> np.ndarray:
        """Flat little-endian amplitude vector of length ``2**n``."""
        if self.num_qubits == 0:
            return self._tensor.reshape(1).copy()
        axes = tuple(reversed(range(self.num_qubits)))
        return self._tensor.transpose(axes).reshape(-1).copy()

    def probabilities(self) -> np.ndarray:
        """Little-endian measurement probability vector."""
        vec = self.to_vector()
        return (vec.conj() * vec).real

    def amplitude(self, index: int) -> complex:
        bits = tuple((index >> q) & 1 for q in range(self.num_qubits))
        return complex(self._tensor[bits])

    def norm(self) -> float:
        return float(np.linalg.norm(self._tensor))

    def inner(self, other: "Statevector") -> complex:
        """<self|other>."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit counts differ")
        return complex(np.vdot(self._tensor, other._tensor))

    def fidelity(self, other: "Statevector") -> float:
        """|<self|other>|^2."""
        return abs(self.inner(other)) ** 2

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "Statevector":
        """Apply a ``2^k x 2^k`` matrix to *qubits* in place.

        The matrix need not be unitary (Kraus operators from the
        trajectory sampler are applied through the same kernel);
        normalisation is the caller's responsibility in that case.
        """
        k = len(qubits)
        if matrix.shape != (2 ** k, 2 ** k):
            raise ValueError("matrix shape does not match qubit count")
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise IndexError(f"qubit {q} out of range")
        if len(set(qubits)) != k:
            raise ValueError("duplicate qubits")
        if k == 0:
            return self
        matrix = np.asarray(matrix, dtype=complex)
        self._tensor = apply_matrix_state(self._tensor, matrix, qubits)
        return self

    def apply_gate(self, gate: Gate, qubits: Sequence[int]) -> "Statevector":
        return self.apply_matrix(gate.matrix, qubits)

    def evolve(self, circuit: QuantumCircuit) -> "Statevector":
        """Apply every unitary of *circuit* (measures/barriers skipped).

        The circuit is traced once into a cached, fused noise-free
        :class:`~repro.execution.noise_plan.NoisePlan` and executed in
        one pass.
        Validation is per-circuit (circuits validate their instructions
        at construction), not per-instruction as :meth:`apply_matrix`
        does for ad-hoc matrices.
        """
        from ..execution.plan_cache import get_plan

        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit width does not match state")
        compiled = get_plan(circuit)
        batch = self._tensor.reshape((1,) + self._tensor.shape)
        self._tensor = compiled.execute(batch).reshape(self._tensor.shape)
        return self

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def probability_of_outcome(self, qubit: int, outcome: int) -> float:
        """Probability of measuring *qubit* in state *outcome*."""
        sliced = np.take(self._tensor, outcome, axis=qubit)
        return float(np.sum(np.abs(sliced) ** 2))

    def measure_qubit(
        self, qubit: int, rng: np.random.Generator
    ) -> int:
        """Projectively measure one qubit, collapsing the state."""
        p1 = self.probability_of_outcome(qubit, 1)
        outcome = 1 if rng.random() < p1 else 0
        self.collapse(qubit, outcome)
        return outcome

    def collapse(self, qubit: int, outcome: int) -> "Statevector":
        """Project *qubit* onto *outcome* and renormalise."""
        keep = np.take(self._tensor, outcome, axis=qubit)
        norm = np.linalg.norm(keep)
        if norm < _ATOL:
            raise ValueError("cannot collapse onto a zero-probability branch")
        new_tensor = np.zeros_like(self._tensor)
        index: List[Union[slice, int]] = [slice(None)] * self.num_qubits
        index[qubit] = outcome
        new_tensor[tuple(index)] = keep / norm
        self._tensor = new_tensor
        return self

    def sample_counts(
        self,
        shots: int,
        rng: Union[np.random.Generator, int, None] = None,
        qubits: Optional[Sequence[int]] = None,
    ) -> Dict[str, int]:
        """Sample *shots* measurement outcomes without collapsing.

        *rng* must be a ``numpy`` Generator or an integer seed —
        sampling from OS entropy would break the repo-wide
        bit-identical-reruns contract that every cache key and
        checkpoint depends on.

        Returns a ``bitstring -> count`` dict.  When *qubits* is given,
        only those qubits appear in the bitstring (qubits[0] being the
        right-most / least-significant character position... the output
        is ordered with qubits[0] right-most).
        """
        if rng is None:
            raise ValueError(
                "sample_counts requires an explicit rng: pass a seeded "
                "np.random.Generator or an integer seed (unseeded "
                "sampling is non-deterministic)"
            )
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        probs = self.probabilities()
        total = probs.sum()
        # renormalise only on real drift (non-unitary Kraus evolution);
        # for normalised states this skips an O(2^n) divide per call.
        # 1e-9 is well inside rng.choice's own sum-to-1 tolerance.
        if abs(total - 1.0) > 1e-9:
            probs = probs / total
        outcomes = rng.choice(len(probs), size=shots, p=probs)
        # vectorised histogram: one np.unique pass (plus a bit-gather
        # when marginalising onto a qubit subset), no per-shot loop
        if qubits is None:
            return counts_from_outcomes(outcomes, self.num_qubits)
        bit_map = [(q, position) for position, q in enumerate(qubits)]
        return counts_from_outcomes(
            remap_bits(outcomes, bit_map), len(qubits)
        )

    def most_probable_bitstring(self) -> str:
        """The highest-probability outcome (ties -> lowest index)."""
        probs = self.probabilities()
        return format_bitstring(int(np.argmax(probs)), self.num_qubits)

    def __repr__(self) -> str:
        return f"Statevector(num_qubits={self.num_qubits})"
