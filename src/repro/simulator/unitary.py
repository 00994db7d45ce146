"""Whole-circuit unitary construction and equivalence checks.

Building the full ``2^n x 2^n`` unitary is exponential, but the paper's
benchmarks top out at 12 qubits (4096-dimensional), well within reach.
Functional-equivalence checks are the backbone of the test suite: the
de-obfuscated circuit must implement the same unitary (up to global
phase, and up to a qubit permutation after routing) as the original.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit

__all__ = [
    "circuit_unitary",
    "equal_up_to_global_phase",
    "circuits_equivalent",
    "permutation_matrix",
]


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """The little-endian unitary matrix of *circuit*.

    Column ``k`` is the state produced from basis input ``|k>``.
    Raises :class:`ValueError` when the circuit contains measurements.
    The circuit runs through its cached, fused noise-free plan (see
    :mod:`repro.execution.noise_plan`) — the attack oracles call this
    on the same circuits the engines simulate, sharing one trace.
    """
    from ..execution.plan_cache import get_plan

    if circuit.has_measurements():
        raise ValueError("cannot build a unitary for a measured circuit")
    n = circuit.num_qubits
    dim = 2 ** n
    # evolve all basis states at once as a (dim, 2, ..., 2) batch —
    # one kernel pass per gate instead of one full evolution per column
    eye = np.eye(dim, dtype=complex).reshape((dim,) + (2,) * n)
    if n:
        # reshape of row k yields big-endian qubit axes; flip to the
        # batch layout (axis i+1 = qubit i)
        eye = eye.transpose((0,) + tuple(range(n, 0, -1)))
    batch = get_plan(circuit).execute(np.ascontiguousarray(eye))
    if n:
        batch = batch.transpose((0,) + tuple(range(n, 0, -1)))
    # row k is the little-endian output vector for input |k>; the
    # unitary wants it as column k
    return np.ascontiguousarray(batch.reshape(dim, dim).T)


def equal_up_to_global_phase(
    a: np.ndarray, b: np.ndarray, atol: float = 1e-7
) -> bool:
    """True when ``a = e^{i phi} b`` for some phase ``phi``."""
    if a.shape != b.shape:
        return False
    # find the largest-magnitude entry of b to anchor the phase
    flat_index = int(np.argmax(np.abs(b)))
    anchor_b = b.flat[flat_index]
    anchor_a = a.flat[flat_index]
    if abs(anchor_b) < atol:
        return bool(np.allclose(a, b, atol=atol))
    if abs(anchor_a) < atol:
        return False
    phase = anchor_a / anchor_b
    phase /= abs(phase)
    return bool(np.allclose(a, phase * b, atol=atol))


def permutation_matrix(
    permutation: Dict[int, int], num_qubits: int
) -> np.ndarray:
    """Unitary for the qubit relabelling ``q -> permutation[q]``.

    Acting on basis state ``|k>``, bit ``q`` of ``k`` moves to position
    ``permutation[q]`` of the output index.
    """
    dim = 2 ** num_qubits
    matrix = np.zeros((dim, dim))
    for k in range(dim):
        out = 0
        for q in range(num_qubits):
            out |= ((k >> q) & 1) << permutation.get(q, q)
        matrix[out, k] = 1.0
    return matrix


def circuits_equivalent(
    a: QuantumCircuit,
    b: QuantumCircuit,
    output_permutation: Optional[Dict[int, int]] = None,
    atol: float = 1e-7,
) -> bool:
    """Unitary equivalence of two circuits up to global phase.

    *output_permutation* accounts for routing: circuit *b* is considered
    equivalent when ``P . U_b`` matches ``U_a``, with ``P`` the
    permutation that carries b's output qubit ``q`` back to
    ``output_permutation[q]``.
    """
    if a.num_qubits != b.num_qubits:
        return False
    u_a = circuit_unitary(a)
    u_b = circuit_unitary(b)
    if output_permutation:
        u_b = permutation_matrix(output_permutation, b.num_qubits) @ u_b
    return equal_up_to_global_phase(u_a, u_b, atol=atol)
