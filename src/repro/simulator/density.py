"""Exact density-matrix simulation.

Exponentially heavier than the statevector engine (``4^n`` memory), but
exact under noise — no sampling error.  Used by the test suite to
validate the trajectory sampler against closed-form channel action, and
handy for the 4–5 qubit benchmarks where ``4^5 = 1024``-dimensional
operators are trivial.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.channels import QuantumChannel
from ..noise.model import NoiseModel
from .counts import Counts, counts_from_outcomes
from .kernels import apply_matrix_state
from .statevector import Statevector

__all__ = ["DensityMatrix", "DensityMatrixSimulator"]


class DensityMatrix:
    """An n-qubit density operator stored as a ``(2,)*2n`` tensor.

    Row axes ``0..n-1`` are qubits 0..n-1; column axes ``n..2n-1``
    mirror them.
    """

    def __init__(self, num_qubits: int, data: Optional[np.ndarray] = None):
        self.num_qubits = int(num_qubits)
        dim = 2 ** self.num_qubits
        if data is None:
            rho = np.zeros((dim, dim), dtype=complex)
            rho[0, 0] = 1.0
        else:
            rho = np.asarray(data, dtype=complex)
            if rho.shape != (dim, dim):
                raise ValueError("density matrix shape mismatch")
        # matrix index ordering is little-endian; convert to tensor with
        # axis i = qubit i by reshaping through the big-endian layout
        self._tensor = self._matrix_to_tensor(rho)

    # -- layout helpers --------------------------------------------------
    def _matrix_to_tensor(self, rho: np.ndarray) -> np.ndarray:
        n = self.num_qubits
        tensor = rho.reshape((2,) * (2 * n))
        # reshape yields big-endian axes (qubit n-1 first); reverse both
        # row and column groups to get axis i = qubit i
        row_axes = tuple(reversed(range(n)))
        col_axes = tuple(reversed(range(n, 2 * n)))
        # contiguous so the shared 1q/2q kernels can take their fast
        # reshape-view paths
        return np.ascontiguousarray(tensor.transpose(row_axes + col_axes))

    def to_matrix(self) -> np.ndarray:
        """Little-endian ``2^n x 2^n`` matrix."""
        n = self.num_qubits
        row_axes = tuple(reversed(range(n)))
        col_axes = tuple(reversed(range(n, 2 * n)))
        dim = 2 ** n
        return self._tensor.transpose(row_axes + col_axes).reshape(dim, dim)

    @classmethod
    def from_statevector(cls, state: Statevector) -> "DensityMatrix":
        vec = state.to_vector()
        return cls(state.num_qubits, np.outer(vec, vec.conj()))

    # -- evolution --------------------------------------------------------
    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "DensityMatrix":
        """rho -> U rho U^dagger on *qubits*."""
        n = self.num_qubits
        mat = np.asarray(matrix, dtype=complex)
        # the (2,)*2n tensor is treated as a 2n-axis state: left
        # multiply on the row axes, conjugate on the column axes —
        # both through the shared kernels
        tensor = apply_matrix_state(self._tensor, mat, list(qubits))
        col_axes = [n + q for q in qubits]
        self._tensor = apply_matrix_state(tensor, mat.conj(), col_axes)
        return self

    def apply_channel(
        self, channel: QuantumChannel, qubits: Sequence[int]
    ) -> "DensityMatrix":
        """rho -> sum_i K_i rho K_i^dagger on *qubits*."""
        accumulator = None
        original = self._tensor
        for op in channel.kraus_operators:
            self._tensor = original
            self.apply_matrix(op, qubits)
            if accumulator is None:
                accumulator = self._tensor
            else:
                accumulator = accumulator + self._tensor
        self._tensor = accumulator
        return self

    # -- measurement --------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """Little-endian diagonal (measurement distribution)."""
        return np.clip(np.diag(self.to_matrix()).real, 0.0, None)

    def trace(self) -> float:
        return float(np.trace(self.to_matrix()).real)

    def purity(self) -> float:
        mat = self.to_matrix()
        return float(np.trace(mat @ mat).real)

    def fidelity_with_state(self, state: Statevector) -> float:
        """<psi| rho |psi>."""
        vec = state.to_vector()
        return float((vec.conj() @ self.to_matrix() @ vec).real)


class DensityMatrixSimulator:
    """Exact noisy simulator over density matrices."""

    def __init__(
        self,
        noise_model: Optional[NoiseModel] = None,
        *,
        fuse: str = "full",
    ) -> None:
        """*fuse* sets the fusion level of noiseless evolution through
        the compiled-plan tier (see :mod:`repro.execution.plan`); noisy
        evolution executes the traced per-instruction stream so noise
        channels keep their per-gate anchors."""
        self.noise_model = noise_model
        self.fuse = fuse

    def evolve(self, circuit: QuantumCircuit) -> DensityMatrix:
        """Run all gates + channels; measurements are deferred to sampling."""
        from ..execution.plan_cache import get_plan

        rho = DensityMatrix(circuit.num_qubits)
        compiled = get_plan(circuit, self.fuse)
        if self.noise_model is None:
            rho._tensor = compiled.execute_density(rho._tensor)
            return rho
        for op in compiled.source_ops:
            if not op.identity:
                rho.apply_matrix(op.matrix, op.qubits)
            for bound in self.noise_model.errors_for(op.instruction):
                rho.apply_channel(bound.channel, bound.resolve(op.instruction))
        return rho

    def output_distribution(self, circuit: QuantumCircuit) -> np.ndarray:
        """Exact outcome distribution including readout errors.

        Measurement mapping is ignored (measure-all semantics over all
        qubits) — sufficient for the RevLib evaluation circuits, which
        measure every qubit in order.
        """
        rho = self.evolve(circuit)
        probs = rho.probabilities()
        probs = probs / probs.sum()
        if self.noise_model is None or not self.noise_model.has_readout_errors():
            return probs
        n = circuit.num_qubits
        for qubit in range(n):
            error = self.noise_model.readout_error(qubit)
            if error is None:
                continue
            matrix = error.assignment_matrix()
            probs = _apply_bit_stochastic(probs, matrix, qubit, n)
        return probs

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: Optional[Union[int, np.random.Generator]] = None,
    ) -> Counts:
        """Sample *shots* outcomes from the exact distribution."""
        probs = self.output_distribution(circuit)
        rng = np.random.default_rng(seed)
        outcomes = rng.choice(len(probs), size=shots, p=probs)
        return counts_from_outcomes(
            outcomes, circuit.num_qubits, shots=shots
        )


def _apply_bit_stochastic(
    probs: np.ndarray, matrix: np.ndarray, qubit: int, num_qubits: int
) -> np.ndarray:
    """Apply a 2x2 stochastic matrix to one bit of a distribution."""
    tensor = probs.reshape((2,) * num_qubits)
    # flat little-endian -> axis 0 is the most significant = qubit n-1
    axis = num_qubits - 1 - qubit
    tensor = np.moveaxis(tensor, axis, 0)
    flipped = np.tensordot(matrix, tensor, axes=(1, 0))
    tensor = np.moveaxis(flipped, 0, axis)
    return tensor.reshape(-1)
