"""Tests for truth tables and MCX decompositions."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.random_circuits import random_reversible_circuit
from repro.simulator import circuit_unitary, equal_up_to_global_phase
from repro.synth import (
    TruthTable,
    ccx_decomposition,
    expand_mcx_gates,
    mcx_decomposition,
    mcz_parity_network,
    simulate_reversible,
)


class TestTruthTable:
    def test_identity(self):
        table = TruthTable.identity(3)
        assert table.is_identity()
        assert table.num_lines == 3

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            TruthTable([0, 0, 1, 1])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            TruthTable([0, 1, 2])

    def test_inverse(self):
        table = TruthTable([2, 0, 3, 1])
        inv = table.inverse()
        assert table.compose(inv).is_identity()

    def test_compose_order(self):
        f = TruthTable([1, 0, 2, 3])  # flip bit0 when bit1=0
        g = TruthTable([2, 3, 0, 1])  # flip bit1
        assert f.compose(g)(0) == g(f(0))

    def test_from_function(self):
        table = TruthTable.from_function(lambda x: x ^ 0b11, 2)
        assert table(0) == 3

    def test_hamming_cost_and_fixed_points(self):
        table = TruthTable([1, 0, 2, 3])
        assert table.fixed_points() == 2
        assert table.hamming_cost() == 2

    def test_output_bit(self):
        table = TruthTable([2, 3, 0, 1])
        assert table.output_bit(0, 1) == 1
        assert table.output_bit(0, 0) == 0


class TestSimulateReversible:
    def test_x_gate(self):
        qc = QuantumCircuit(2)
        qc.x(1)
        assert simulate_reversible(qc).table == [2, 3, 0, 1]

    def test_cx_gate(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        # |q1 q0>: 00->00, 01->11, 10->10, 11->01
        assert simulate_reversible(qc).table == [0, 3, 2, 1]

    def test_mcx(self):
        qc = QuantumCircuit(4)
        qc.mcx([0, 1, 2], 3)
        table = simulate_reversible(qc)
        assert table(0b0111) == 0b1111
        assert table(0b0011) == 0b0011

    def test_non_reversible_gate_rejected(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        with pytest.raises(ValueError):
            simulate_reversible(qc)

    def test_matches_statevector(self):
        qc = random_reversible_circuit(3, 10, seed=4)
        table = simulate_reversible(qc)
        unitary = circuit_unitary(qc)
        for x in range(8):
            expected_col = np.zeros(8)
            expected_col[table(x)] = 1.0
            assert np.allclose(unitary[:, x], expected_col)


class TestDecompositions:
    def test_ccx_decomposition_matrix(self):
        qc = QuantumCircuit(3)
        qc.extend(ccx_decomposition(0, 1, 2))
        ref = QuantumCircuit(3)
        ref.ccx(0, 1, 2)
        assert equal_up_to_global_phase(
            circuit_unitary(ref), circuit_unitary(qc)
        )

    @pytest.mark.parametrize("controls,total", [(3, 5), (4, 6), (5, 8)])
    def test_mcx_with_dirty_ancillas(self, controls, total):
        free = list(range(controls + 1, total))
        qc = QuantumCircuit(total)
        qc.extend(mcx_decomposition(list(range(controls)), controls, free))
        ref = QuantumCircuit(total)
        ref.mcx(list(range(controls)), controls)
        assert equal_up_to_global_phase(
            circuit_unitary(ref), circuit_unitary(qc)
        )
        assert all(len(i.qubits) <= 3 for i in qc.gates())

    @pytest.mark.parametrize("controls", [2, 3, 4])
    def test_mcx_without_ancillas(self, controls):
        total = controls + 1
        qc = QuantumCircuit(total)
        qc.extend(mcx_decomposition(list(range(controls)), controls, []))
        ref = QuantumCircuit(total)
        ref.mcx(list(range(controls)), controls)
        assert equal_up_to_global_phase(
            circuit_unitary(ref), circuit_unitary(qc)
        )

    def test_mcz_parity_network_matrix(self):
        qc = QuantumCircuit(3)
        qc.extend(mcz_parity_network([0, 1, 2]))
        expected = np.eye(8, dtype=complex)
        expected[7, 7] = -1
        assert equal_up_to_global_phase(circuit_unitary(qc), expected)

    def test_mcx_trivial_arities(self):
        assert mcx_decomposition([], 0, [])[0].name == "x"
        assert mcx_decomposition([0], 1, [])[0].name == "cx"
        assert mcx_decomposition([0, 1], 2, [])[0].name == "ccx"

    def test_expand_preserves_function(self):
        qc = QuantumCircuit(6)
        qc.x(0).mcx([0, 1, 2, 3], 4).cx(4, 5).mcx([1, 2, 3, 4], 5)
        expanded = expand_mcx_gates(qc)
        assert simulate_reversible(expanded) == simulate_reversible(qc)
        assert all(
            not inst.name.startswith("mcx") for inst in expanded.gates()
        )

    def test_expand_leaves_small_gates(self):
        qc = QuantumCircuit(3)
        qc.ccx(0, 1, 2).cx(0, 1)
        expanded = expand_mcx_gates(qc)
        assert expanded == qc
