"""Tests for Pauli observables and counts-based expectations."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, ghz_circuit
from repro.execution import run
from repro.simulator import (
    Statevector,
    expectation_value,
    parity_expectation_from_counts,
    pauli_string_matrix,
    z_expectation_from_counts,
)


class TestPauliMatrices:
    def test_single_paulis(self):
        assert np.allclose(pauli_string_matrix("Z"), [[1, 0], [0, -1]])
        assert np.allclose(pauli_string_matrix("X"), [[0, 1], [1, 0]])

    def test_little_endian_order(self):
        """'ZI' = Z on qubit 1: |01> (q1=0) has eigenvalue +1."""
        matrix = pauli_string_matrix("ZI")
        state = np.zeros(4)
        state[1] = 1.0  # q0 = 1, q1 = 0
        assert (state @ matrix @ state).real == pytest.approx(1.0)
        state = np.zeros(4)
        state[2] = 1.0  # q1 = 1
        assert (state @ matrix @ state).real == pytest.approx(-1.0)

    def test_invalid_labels(self):
        with pytest.raises(ValueError):
            pauli_string_matrix("")
        with pytest.raises(ValueError):
            pauli_string_matrix("ZQ")

    def test_hermitian_and_unitary(self):
        matrix = pauli_string_matrix("XYZ")
        assert np.allclose(matrix, matrix.conj().T)
        assert np.allclose(matrix @ matrix, np.eye(8))


class TestExpectationValues:
    def test_computational_basis(self):
        state = Statevector.from_bitstring("01")
        assert expectation_value(state, "IZ") == pytest.approx(-1.0)
        assert expectation_value(state, "ZI") == pytest.approx(1.0)

    def test_plus_state(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        state = Statevector(1).evolve(qc)
        assert expectation_value(state, "X") == pytest.approx(1.0)
        assert expectation_value(state, "Z") == pytest.approx(0.0, abs=1e-12)

    def test_ghz_parity(self):
        state = Statevector(3).evolve(ghz_circuit(3))
        assert expectation_value(state, "XXX") == pytest.approx(1.0)
        assert expectation_value(state, "ZZI") == pytest.approx(1.0)
        assert expectation_value(state, "ZII") == pytest.approx(0.0,
                                                                abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expectation_value(Statevector(2), "Z")


class TestCountsExpectations:
    def test_z_from_counts(self):
        counts = {"0": 75, "1": 25}
        assert z_expectation_from_counts(counts, 0) == pytest.approx(0.5)

    def test_z_from_counts_multiqubit(self):
        counts = {"10": 100}
        assert z_expectation_from_counts(counts, 0) == pytest.approx(1.0)
        assert z_expectation_from_counts(counts, 1) == pytest.approx(-1.0)

    def test_parity_from_counts(self):
        counts = {"11": 50, "00": 50}
        assert parity_expectation_from_counts(
            counts, [0, 1]
        ) == pytest.approx(1.0)

    def test_parity_matches_statevector_on_ghz(self):
        circuit = ghz_circuit(3).measure_all()
        counts = run(circuit, shots=4000, seed=0)
        estimated = parity_expectation_from_counts(counts, [0, 1])
        assert estimated == pytest.approx(1.0, abs=0.05)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            z_expectation_from_counts({}, 0)
        with pytest.raises(ValueError):
            parity_expectation_from_counts({}, [0])
