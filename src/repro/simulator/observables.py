"""Pauli observables and expectation values.

Utility layer used by analysis notebooks and tests: expectation values
of Pauli strings on statevectors, and Z-basis expectations estimated
directly from measurement counts (the only kind available on
hardware without basis-change circuits).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .statevector import Statevector

__all__ = [
    "pauli_string_matrix",
    "expectation_value",
    "z_expectation_from_counts",
    "parity_expectation_from_counts",
]

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string_matrix(label: str) -> np.ndarray:
    """Matrix of a Pauli string; right-most character acts on qubit 0.

    ``pauli_string_matrix("ZI")`` is Z on qubit 1, identity on qubit 0
    (little-endian, consistent with bitstring conventions).
    """
    label = label.upper()
    if not label or set(label) - set("IXYZ"):
        raise ValueError(f"invalid Pauli string {label!r}")
    matrix = np.array([[1.0 + 0j]])
    for char in label:  # left-most char = highest qubit = left kron factor
        matrix = np.kron(matrix, _PAULI[char])
    return matrix


def expectation_value(state: Statevector, label: str) -> float:
    """<psi| P |psi> for a Pauli string *label*."""
    if len(label) != state.num_qubits:
        raise ValueError(
            f"Pauli string length {len(label)} != {state.num_qubits} qubits"
        )
    vec = state.to_vector()
    matrix = pauli_string_matrix(label)
    return float((vec.conj() @ matrix @ vec).real)


def z_expectation_from_counts(
    counts: Mapping[str, int], qubit: int
) -> float:
    """<Z_qubit> estimated from a counts histogram."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty counts")
    value = 0.0
    for bitstring, count in counts.items():
        bit = int(bitstring[::-1][qubit]) if qubit < len(bitstring) else 0
        value += (1.0 - 2.0 * bit) * count
    return value / total


def parity_expectation_from_counts(
    counts: Mapping[str, int], qubits: Sequence[int]
) -> float:
    """<Z_{q1} Z_{q2} ...> estimated from counts."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty counts")
    value = 0.0
    for bitstring, count in counts.items():
        reversed_bits = bitstring[::-1]
        parity = 0
        for q in qubits:
            if q < len(reversed_bits):
                parity ^= int(reversed_bits[q])
        value += (1.0 - 2.0 * parity) * count
    return value / total
