"""Small library of well-known algorithm circuits.

Used by the examples: the paper's Sec. V-A prescribes Hadamard-based
random insertion for "other types of circuits, such as those
implementing Grover's algorithm", so we need a Grover construction to
exercise that path.  Bernstein-Vazirani and GHZ builders round out the
demo material.
"""

from __future__ import annotations

import math
from typing import Optional

from .circuit import QuantumCircuit

__all__ = ["grover_circuit", "bernstein_vazirani_circuit", "ghz_circuit",
           "qft_circuit"]


def _oracle_marked(circuit: QuantumCircuit, marked: int, qubits) -> None:
    """Phase-flip the |marked> state using X-conjugated MCZ (via MCX+H)."""
    n = len(qubits)
    for position, q in enumerate(qubits):
        if not (marked >> position) & 1:
            circuit.x(q)
    if n == 1:
        circuit.z(qubits[0])
    else:
        target = qubits[-1]
        circuit.h(target)
        circuit.mcx(list(qubits[:-1]), target)
        circuit.h(target)
    for position, q in enumerate(qubits):
        if not (marked >> position) & 1:
            circuit.x(q)


def grover_circuit(
    num_qubits: int,
    marked: int = 0,
    iterations: Optional[int] = None,
) -> QuantumCircuit:
    """Grover search for the single *marked* basis state.

    *iterations* defaults to the optimal
    ``round(pi/4 * sqrt(2^n))`` count.
    """
    if num_qubits < 1:
        raise ValueError("Grover needs at least one qubit")
    if not 0 <= marked < 2 ** num_qubits:
        raise ValueError("marked state out of range")
    if iterations is None:
        # floor(pi/4 * sqrt(N)) is the optimal count; rounding up
        # overrotates (e.g. n=2 would hit probability 1/4 instead of 1)
        iterations = max(
            1, int(math.pi / 4 * math.sqrt(2 ** num_qubits))
        )
    qubits = list(range(num_qubits))
    circuit = QuantumCircuit(num_qubits, name=f"grover{num_qubits}")
    for q in qubits:
        circuit.h(q)
    for _ in range(iterations):
        _oracle_marked(circuit, marked, qubits)
        # diffusion operator
        for q in qubits:
            circuit.h(q)
        _oracle_marked(circuit, 0, qubits)
        for q in qubits:
            circuit.h(q)
    return circuit


def bernstein_vazirani_circuit(secret: str) -> QuantumCircuit:
    """Bernstein-Vazirani circuit recovering *secret* in one query.

    The right-most character of *secret* is qubit 0; the ancilla is the
    highest qubit.
    """
    n = len(secret)
    if n == 0 or set(secret) - {"0", "1"}:
        raise ValueError("secret must be a non-empty bitstring")
    circuit = QuantumCircuit(n + 1, name="bernstein_vazirani")
    ancilla = n
    circuit.x(ancilla)
    for q in range(n + 1):
        circuit.h(q)
    for position, bit in enumerate(reversed(secret)):
        if bit == "1":
            circuit.cx(position, ancilla)
    for q in range(n):
        circuit.h(q)
    return circuit


def ghz_circuit(num_qubits: int) -> QuantumCircuit:
    """GHZ state preparation."""
    if num_qubits < 2:
        raise ValueError("GHZ needs at least two qubits")
    circuit = QuantumCircuit(num_qubits, name=f"ghz{num_qubits}")
    circuit.h(0)
    for q in range(num_qubits - 1):
        circuit.cx(q, q + 1)
    return circuit


def qft_circuit(num_qubits: int) -> QuantumCircuit:
    """Quantum Fourier transform (no final swap reversal)."""
    if num_qubits < 1:
        raise ValueError("QFT needs at least one qubit")
    circuit = QuantumCircuit(num_qubits, name=f"qft{num_qubits}")
    for target in reversed(range(num_qubits)):
        circuit.h(target)
        for control in reversed(range(target)):
            angle = math.pi / (2 ** (target - control))
            circuit.cp(angle, control, target)
    return circuit
