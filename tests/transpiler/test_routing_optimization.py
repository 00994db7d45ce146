"""Tests for routing, optimisation passes and the transpile pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit, random_circuit
from repro.noise import fake_valencia
from repro.simulator import circuit_unitary, equal_up_to_global_phase
from repro.transpiler import (
    CouplingMap,
    Layout,
    cancel_inverse_pairs,
    fuse_single_qubit_runs,
    optimize_circuit,
    remove_identities,
    route_circuit,
    routed_equivalent,
    translate_to_basis,
    transpile,
)


class TestRouting:
    def test_adjacent_gates_untouched(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1).cx(1, 2)
        result = route_circuit(qc, CouplingMap.line(3))
        assert result.swap_count == 0
        assert result.circuit.size() == 2

    def test_distant_gate_gets_swaps(self):
        qc = QuantumCircuit(4)
        qc.cx(0, 3)
        result = route_circuit(qc, CouplingMap.line(4))
        assert result.swap_count >= 1
        cmap = CouplingMap.line(4)
        for inst in result.circuit.gates():
            if len(inst.qubits) == 2:
                assert cmap.is_adjacent(*inst.qubits)

    def test_all_two_qubit_gates_adjacent_after_routing(self):
        qc = random_circuit(5, 20, gate_pool=["h", "cx", "t"], seed=8)
        cmap = CouplingMap.line(5)
        result = route_circuit(qc, cmap)
        for inst in result.circuit.gates():
            if len(inst.qubits) == 2:
                assert cmap.is_adjacent(*inst.qubits)

    def test_layout_tracked(self):
        qc = QuantumCircuit(4)
        qc.cx(0, 3)
        result = route_circuit(qc, CouplingMap.line(4))
        # some virtual qubit moved
        assert result.initial_layout != result.final_layout

    def test_measures_follow_layout(self):
        qc = QuantumCircuit(3, 3)
        qc.cx(0, 2).measure(0, 0)
        result = route_circuit(qc, CouplingMap.line(3))
        measure = [i for i in result.circuit if i.is_measure][0]
        assert measure.qubits[0] == result.final_layout.physical(0)

    def test_wide_circuit_rejected(self):
        with pytest.raises(ValueError):
            route_circuit(QuantumCircuit(5), CouplingMap.line(3))

    def test_three_qubit_gate_rejected(self):
        qc = QuantumCircuit(3)
        qc.ccx(0, 1, 2)
        with pytest.raises(ValueError):
            route_circuit(qc, CouplingMap.line(3))


class TestOptimisationPasses:
    def test_remove_identities(self):
        qc = QuantumCircuit(1)
        qc.i(0).x(0).rz(0.0, 0).u3(0, 0, 0, 0)
        assert remove_identities(qc).size() == 1

    @pytest.mark.parametrize("turns, kept", [(1, 1), (2, 0)])
    def test_crz_full_turn_is_z_on_control(self, turns, kept):
        qc = QuantumCircuit(2)
        qc.h(0).crz(turns * 2 * np.pi, 0, 1)
        out = remove_identities(qc)
        assert out.count_ops()["crz"] == kept
        assert equal_up_to_global_phase(
            circuit_unitary(out), circuit_unitary(qc)
        )

    def test_cancel_adjacent_self_inverse(self):
        qc = QuantumCircuit(2)
        qc.x(0).x(0).cx(0, 1).cx(0, 1)
        assert cancel_inverse_pairs(qc).size() == 0

    def test_cancel_parameterised_inverse(self):
        qc = QuantumCircuit(1)
        qc.rz(0.7, 0).rz(-0.7, 0)
        assert cancel_inverse_pairs(qc).size() == 0

    def test_cancellation_blocked_by_interleaved_gate(self):
        qc = QuantumCircuit(2)
        qc.x(0).cx(0, 1).x(0)
        assert cancel_inverse_pairs(qc).size() == 3

    def test_cancellation_requires_same_qubits(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1).cx(0, 2)
        assert cancel_inverse_pairs(qc).size() == 2

    def test_cascading_cancellation(self):
        qc = QuantumCircuit(1)
        qc.h(0).x(0).x(0).h(0)
        assert cancel_inverse_pairs(qc).size() == 0

    def test_fuse_single_qubit_runs(self):
        qc = QuantumCircuit(1)
        qc.h(0).t(0).h(0).s(0)
        fused = fuse_single_qubit_runs(qc)
        assert fused.size() <= 1
        assert equal_up_to_global_phase(
            circuit_unitary(qc), circuit_unitary(fused)
        )

    def test_fusion_stops_at_two_qubit_gates(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).h(0)
        fused = fuse_single_qubit_runs(qc)
        assert equal_up_to_global_phase(
            circuit_unitary(qc), circuit_unitary(fused)
        )
        assert fused.count_ops()["cx"] == 1

    def test_optimize_levels(self):
        qc = QuantumCircuit(1)
        qc.x(0).x(0)
        assert optimize_circuit(qc, level=0).size() == 2
        assert optimize_circuit(qc, level=1).size() == 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_optimisation_preserves_function(self, seed):
        qc = random_circuit(3, 15, seed=seed)
        opt = optimize_circuit(translate_to_basis(qc), level=3)
        assert equal_up_to_global_phase(
            circuit_unitary(qc), circuit_unitary(opt)
        )


class TestTranspilePipeline:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_random_circuits_route_correctly(self, seed):
        qc = random_circuit(
            4, 12, gate_pool=["h", "x", "t", "cx", "cz", "ccx"], seed=seed
        )
        result = transpile(qc, coupling=CouplingMap.line(4))
        assert routed_equivalent(qc, result)

    def test_backend_target(self):
        qc = random_circuit(5, 10, gate_pool=["h", "cx"], seed=2)
        result = transpile(qc, backend=fake_valencia())
        assert routed_equivalent(qc, result)
        assert all(
            inst.name in ("id", "u1", "u2", "u3", "cx")
            for inst in result.circuit.gates()
        )

    def test_initial_layout_respected(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        result = transpile(
            qc, coupling=CouplingMap.line(3), initial_layout=[2, 1, 0]
        )
        assert result.initial_layout.physical(0) == 2
        assert routed_equivalent(qc, result)

    def test_layout_object_accepted(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        result = transpile(
            qc,
            coupling=CouplingMap.line(3),
            initial_layout=Layout({0: 1, 1: 2}),
        )
        assert routed_equivalent(qc, result)

    def test_no_target_means_all_to_all(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 2)
        result = transpile(qc)
        assert result.swap_count == 0

    def test_trivial_layout_method(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        result = transpile(
            qc, coupling=CouplingMap.line(2), layout_method="trivial"
        )
        assert result.initial_layout.physical(0) == 0

    def test_unknown_layout_method_rejected(self):
        with pytest.raises(ValueError):
            transpile(
                QuantumCircuit(1),
                coupling=CouplingMap.line(1),
                layout_method="magic",
            )

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError):
            transpile(QuantumCircuit(6), backend=fake_valencia())

    def test_optimization_level_zero_keeps_structure(self):
        qc = QuantumCircuit(1)
        qc.x(0).x(0)
        result = transpile(
            qc, coupling=CouplingMap.line(1), optimization_level=0
        )
        assert result.circuit.size() == 2


class TestInitialLayoutValidation:
    """Bad layout pins must fail fast with a clear ValueError.

    Regression: duplicate or out-of-range physical qubits used to
    escape as a bare ``StopIteration`` from layout completion (or
    silently mis-route).
    """

    def _qc(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        return qc

    def test_duplicate_physical_qubits_rejected(self):
        with pytest.raises(ValueError, match="not injective"):
            transpile(
                self._qc(),
                coupling=CouplingMap.line(3),
                initial_layout=[1, 1],
            )

    def test_out_of_range_physical_qubit_rejected(self):
        with pytest.raises(ValueError, match="outside the device"):
            transpile(
                self._qc(),
                coupling=CouplingMap.line(3),
                initial_layout=[0, 5],
            )

    def test_negative_physical_qubit_rejected(self):
        with pytest.raises(ValueError, match="outside the device"):
            transpile(
                self._qc(),
                coupling=CouplingMap.line(3),
                initial_layout=[0, -1],
            )

    def test_overlong_pin_rejected(self):
        # used to raise StopIteration once free wires ran out
        with pytest.raises(ValueError, match="virtual qubit"):
            transpile(
                self._qc(),
                coupling=CouplingMap.line(2),
                initial_layout=[0, 1, 2],
            )

    def test_layout_object_with_out_of_range_virtual_rejected(self):
        with pytest.raises(ValueError, match="virtual qubit"):
            transpile(
                self._qc(),
                coupling=CouplingMap.line(2),
                initial_layout=Layout({0: 0, 5: 1}),
            )
