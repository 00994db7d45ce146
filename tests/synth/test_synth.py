"""Tests for truth tables and MCX decompositions."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.random_circuits import random_reversible_circuit
from repro.core import insert_random_pairs
from repro.revlib import benchmark_circuit, benchmark_names
from repro.simulator import circuit_unitary, equal_up_to_global_phase
from repro.synth import (
    TruthTable,
    ccx_decomposition,
    expand_mcx_gates,
    mcx_decomposition,
    mcz_parity_network,
    simulate_reversible,
)
from repro.synth.truthtable import reversible_table
from reference_truthtable import simulate_reversible_loops


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
    def test_array_form_is_the_table(self):
        circuit = benchmark_circuit("rd53")
        table = reversible_table(circuit)
        assert table.dtype == np.int64
        assert table.tolist() == simulate_reversible(circuit).table

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


def every_gate_circuit(num_qubits, num_gates, seed):
    """A random circuit over x, cx, ccx, mcx (3+ controls), swap and
    cswap, with a barrier in the middle."""
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits)
    kinds = ("x", "cx", "ccx", "mcx", "swap", "cswap")
    for index in range(num_gates):
        if index == num_gates // 2:
            qc.barrier()
        kind = kinds[index % len(kinds)]
        arity = {"x": 1, "cx": 2, "swap": 2, "ccx": 3, "cswap": 3}.get(
            kind, int(rng.integers(4, num_qubits + 1))
        )
        qubits = [int(q) for q in rng.choice(num_qubits, arity, replace=False)]
        if kind == "mcx":
            qc.mcx(qubits[:-1], qubits[-1])
        else:
            getattr(qc, kind)(*qubits)
    return qc


class TestArrayTableAgainstLoops:
    """The array ``simulate_reversible`` against the per-entry loops of
    :func:`reference_truthtable.simulate_reversible_loops`."""

    @pytest.mark.parametrize("name", benchmark_names(table1_only=True))
    def test_benchmarks_and_their_rc_circuits(self, name):
        circuit = benchmark_circuit(name).remove_final_measurements()
        rc = insert_random_pairs(circuit, gate_limit=4, seed=0).rc_circuit()
        for qc in (circuit, rc):
            assert simulate_reversible(qc) == simulate_reversible_loops(qc)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_with_every_gate_kind(self, seed):
        qc = every_gate_circuit(4 + seed % 3, 30, seed)
        names = {inst.name for inst in qc if inst.is_gate}
        assert {"x", "cx", "ccx", "swap", "cswap"} <= names
        assert any(name.startswith("mcx") for name in names)
        table = simulate_reversible(qc)
        assert table == simulate_reversible_loops(qc)
        assert all(type(value) is int for value in table.table)


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
