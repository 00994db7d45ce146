"""Cross-module integration tests: full flows spanning several packages."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, from_qasm, to_qasm
from repro.core import (
    SplitCompilationFlow,
    TetrisLockObfuscator,
    insert_random_pairs,
    interlocking_split,
)
from repro.execution import run
from repro.noise import valencia_like_backend
from repro.revlib import benchmark_circuit, parse_real, write_real
from repro.simulator import circuit_unitary, equal_up_to_global_phase
from repro.synth import simulate_reversible
from repro.transpiler import routed_equivalent, transpile


class TestFormatInteroperability:
    def test_real_to_qasm_roundtrip_preserves_function(self):
        """RevLib .real -> circuit -> QASM -> circuit, function intact.

        MCX gates must be expanded first (QASM 2 has no MCT).
        """
        from repro.synth import expand_mcx_gates

        circuit = expand_mcx_gates(benchmark_circuit("rd73"))
        restored = from_qasm(to_qasm(circuit))
        assert simulate_reversible(restored) == simulate_reversible(
            circuit
        )

    def test_obfuscated_circuit_survives_serialisation(self):
        circuit = benchmark_circuit("4gt13")
        insertion = insert_random_pairs(circuit, gate_limit=4, seed=1)
        text = write_real(insertion.obfuscated)
        reparsed = parse_real(text)
        assert simulate_reversible(reparsed) == simulate_reversible(
            circuit
        )


class TestCompileAndSimulateFlows:
    def test_transpiled_benchmark_still_computes_its_function(self):
        """Transpile -> noiseless simulate -> the documented output."""
        record_name = "4mod5"
        circuit = benchmark_circuit(record_name)
        backend = valencia_like_backend(circuit.num_qubits)
        result = transpile(circuit, backend=backend, optimization_level=2)
        assert routed_equivalent(circuit, result)
        measured = result.circuit.copy()
        measured.num_clbits = circuit.num_qubits
        for v in range(circuit.num_qubits):
            measured.measure(result.final_layout.physical(v), v)
        counts = run(measured, shots=300, seed=2)
        expected = format(
            simulate_reversible(circuit)(0), f"0{circuit.num_qubits}b"
        )
        assert counts.most_frequent() == expected

    def test_split_compilation_beats_single_exposure(self):
        """End-to-end check of the core security/utility trade-off:
        the restored circuit is as accurate as the unprotected one
        (within noise), while each compiler saw only part of the IP."""
        circuit = benchmark_circuit("one_bit_adder")
        backend = valencia_like_backend(circuit.num_qubits)
        noise = backend.noise_model()

        # unprotected run
        plain = transpile(circuit, backend=backend, optimization_level=2)
        plain_measured = plain.circuit.copy()
        plain_measured.num_clbits = circuit.num_qubits
        for v in range(circuit.num_qubits):
            plain_measured.measure(plain.final_layout.physical(v), v)
        plain_counts = run(
            plain_measured, shots=1500, noise_model=noise, seed=3
        )

        # protected run
        flow = SplitCompilationFlow(
            backend, obfuscator=TetrisLockObfuscator(seed=4), seed=4
        )
        compiled = flow.run(circuit)
        protected_counts = run(
            compiled.measured_circuit(), shots=1500,
            noise_model=noise, seed=5,
        )
        expected = format(
            simulate_reversible(circuit)(0), f"0{circuit.num_qubits}b"
        )
        plain_accuracy = plain_counts.fraction(expected)
        protected_accuracy = protected_counts.fraction(expected)
        assert plain_accuracy > 0.5
        assert abs(plain_accuracy - protected_accuracy) < 0.15

        # partial exposure held during compilation
        left, right = compiled.split.exposure_fraction()
        assert left < 1.0 and right < 1.0

    def test_grover_protection_flow(self):
        """Non-reversible (superposition) circuits work end to end."""
        from repro.circuits import grover_circuit

        circuit = grover_circuit(3, marked=5, iterations=2)
        insertion = TetrisLockObfuscator(
            gate_pool=("h",), seed=6
        ).obfuscate(circuit)
        split = interlocking_split(insertion, seed=7)
        restored = split.recombined()
        assert equal_up_to_global_phase(
            circuit_unitary(restored), circuit_unitary(circuit)
        )

    def test_depth_claim_on_whole_suite_after_transpile(self):
        """The 0-depth-overhead claim holds at the logical level for
        every benchmark and every seed tested."""
        from repro.revlib import paper_suite

        rng = np.random.default_rng(8)
        for record in paper_suite():
            circuit = record.circuit()
            for _ in range(3):
                insertion = insert_random_pairs(
                    circuit, gate_limit=4, seed=rng
                )
                assert insertion.obfuscated.depth() == circuit.depth()
                assert insertion.rc_circuit().depth() <= circuit.depth()
