"""Circuits whose qubits are born late: the trajectory ensemble gives a
qubit an axis only at the first step that touches it, so these pin the
births at the last gate and at the final sample."""

from repro.circuits import QuantumCircuit


def late_birth_circuit():
    """5 qubits on the Valencia layout; qubit 4 is first touched by the
    last gate, and every qubit is measured."""
    qc = QuantumCircuit(5, 5)
    qc.u3(1.1, 0.3, 0.2, 0).cx(0, 1).u3(0.7, 0.1, 0.4, 1).cx(1, 2)
    qc.h(2).cx(1, 3).u3(0.5, 0.2, 0.1, 3).cx(3, 4)
    for qubit in range(5):
        qc.measure(qubit, qubit)
    return qc


def untouched_qubit_circuit():
    """4 qubits; qubit 3 is measured but no gate touches it."""
    qc = QuantumCircuit(4, 4)
    qc.u3(1.1, 0.3, 0.2, 0).cx(0, 1).cx(1, 2).h(2).u3(0.4, 0.0, 0.3, 1)
    for qubit in range(4):
        qc.measure(qubit, qubit)
    return qc
