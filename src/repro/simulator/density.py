"""The exact engine: a terminal noise plan evolved on the density tensor.

The plan's span ops and channel anchors fold, in program order, into
blocks on at most two qubits; each block is one superoperator on its
row and column axes — ``U (x) conj(U)`` per run of gates, the binding's
memoised ``sum_i K_i (x) conj(K_i)`` per channel (Wood, Biamonte & Cory,
arXiv:1111.6950).  A wider span op (a fused diagonal run spans up to 12
qubits) runs as ``U rho U^dagger`` instead.  The shots are one draw
from the final distribution; :func:`repro.execution.select_engine` says
when this beats trajectories.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from .counts import Counts, counts_from_outcomes
from .kernels import _kron, embed
from .noisy import report_outcomes, site_draws
from .statevector import Statevector

__all__ = [
    "DensityMatrix",
    "DensityMatrixSimulator",
    "evolve_plan",
    "run_density_plan",
]

# a block grows while its qubits stay within this bound (superoperators
# of 16 x 16); a wider span op is a block alone, run as U rho U^dagger
_MAX_BLOCK_QUBITS = 2


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
    """Exact evolution of a circuit through its cached noise plan."""

    def __init__(self, noise_model: Optional[NoiseModel] = None) -> None:
        self.noise_model = noise_model

    def evolve(self, circuit: QuantumCircuit) -> DensityMatrix:
        """The final state; measurements must be terminal (deferred)."""
        from ..execution import plan_cache

        plan = plan_cache.get_noise_plan(circuit, self.noise_model)
        rho = DensityMatrix(plan.num_qubits)
        rho._tensor = evolve_plan(plan)
        return rho


def _blocks(plan) -> Iterator[Tuple[Tuple[int, ...], List[Tuple]]]:
    """The plan's span ops and channel bindings in program order, as
    ``(block qubits, [(kind, item), ...])`` groups of <= 2 qubits (a
    wider op is a group alone)."""
    block, items = (), []
    for step in plan.steps:
        kind = step[0]
        if kind == "measure":
            raise ValueError("the exact engine needs terminal measurements")
        for item in step[1] if kind == "span" else (step[1],):
            union = tuple(sorted(set(block).union(item.qubits)))
            if items and len(union) > _MAX_BLOCK_QUBITS:
                yield block, items
                union, items = tuple(sorted(item.qubits)), []
            block = union
            items.append((kind, item))
    if items:
        yield block, items


def _block_matrix(block: Tuple[int, ...], items: List[Tuple]) -> np.ndarray:
    """A block's superoperator.  Span ops multiply in the block's
    Hilbert space and join as ``U (x) conj(U)`` before each channel (a
    closing ``None`` channel flushes the last run)."""
    factors, unitary = [], None
    for kind, item in items + [("channel", None)]:
        if kind == "span":
            op = embed(item.to_matrix(), item.qubits, block)
            unitary = op if unitary is None else op @ unitary
            continue
        if unitary is not None:
            factors.append(_kron(unitary, unitary.conj()))
            unitary = None
        if item is not None:
            factors.append(item.superoperator(block))
    return functools.reduce(lambda acc, factor: factor @ acc, factors)


def _conjugate(op, rho: np.ndarray) -> None:
    """``U rho U^dagger`` in place in *rho*, ``(2^k, 2^k, rest)`` for a
    k-qubit span op: a diagonal as two multiplies, a matrix as two GEMMs."""
    if op.kind == "diagonal":
        rho *= op.diag[:, None, None]
        rho *= op.diag.conj()[None, :, None]
    else:
        product = op.matrix @ rho.reshape(len(rho), -1)
        np.matmul(op.matrix.conj(), product.reshape(rho.shape), out=rho)


def evolve_plan(plan) -> np.ndarray:
    """The ``(2,)*2n`` density tensor (rows on axes ``0..n-1``, columns
    on ``n..2n-1``) after every step of a terminal *plan*."""
    n = plan.num_qubits
    shape = (2,) * (2 * n)
    tensor = np.zeros(1 << (2 * n), dtype=complex)
    tensor[0] = 1.0
    # tensor axis i holds density axis layout[i]: a block moves its axes
    # to the front (one copy) and its product leaves them there
    layout = list(range(2 * n))
    for block, items in _blocks(plan):
        kind, op = items[0]
        wide = kind == "span" and len(block) > _MAX_BLOCK_QUBITS
        if wide:
            block = op.qubits  # in its own order: the first is the MSB
        targets = list(block) + [n + q for q in block]
        order = targets + [axis for axis in layout if axis not in targets]
        moved = tensor.reshape(shape).transpose(
            [layout.index(axis) for axis in order]
        )
        if wide:
            tensor = moved.reshape(1 << len(block), 1 << len(block), -1)
            _conjugate(op, tensor)
        else:
            matrix = _block_matrix(block, items)
            tensor = matrix @ moved.reshape(len(matrix), -1)
        layout = order
    return np.ascontiguousarray(
        tensor.reshape(shape).transpose(np.argsort(layout))
    )


def run_density_plan(plan, shots: int, *, entropy: int) -> Counts:
    """Evolve a terminal *plan* exactly and report *shots* samples.

    The final-state and readout sites draw their uniforms by the
    ensemble's rule (:func:`~repro.simulator.noisy.site_draws`): site
    ``s`` from child ``s`` of ``SeedSequence(entropy)``, equal to the
    ones :func:`~repro.simulator.noisy.run_noise_plan` reports through
    at the same entropy."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    rho = DensityMatrix(plan.num_qubits)
    rho._tensor = evolve_plan(plan)
    probs = rho.probabilities()
    draws = site_draws(plan, shots, entropy=entropy, steps=False)
    cumulative = np.cumsum(probs / probs.sum())
    outcomes = np.minimum(
        np.searchsorted(cumulative, draws[plan.sample_site]), probs.size - 1
    )
    values = report_outcomes(plan, outcomes, draws, 0, shots)
    return counts_from_outcomes(values, plan.width, shots=shots)
