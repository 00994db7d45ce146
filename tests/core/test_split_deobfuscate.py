"""Tests for the interlocking split and split-compilation stitching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitDag, QuantumCircuit
from repro.core import (
    SplitCompilationFlow,
    TetrisLockObfuscator,
    insert_random_pairs,
    interlocking_split,
)
from repro.core.deobfuscate import recombine_physical
from repro.core.insertion import ROLE_R, ROLE_RDG
from repro.noise import fake_valencia, valencia_like_backend
from repro.revlib import benchmark_circuit, benchmark_names
from repro.simulator import circuit_unitary, equal_up_to_global_phase
from repro.synth import simulate_reversible
from repro.transpiler import transpile


class TestInterlockingSplit:
    @pytest.mark.parametrize("name", ["4gt13", "4mod5", "rd53"])
    def test_segments_partition_the_circuit(self, name):
        insertion = insert_random_pairs(
            benchmark_circuit(name), gate_limit=4, seed=0
        )
        split = interlocking_split(insertion, seed=1)
        indices1 = split.segment1.instruction_indices
        indices2 = split.segment2.instruction_indices
        assert sorted(indices1 + indices2) == list(
            range(len(insertion.obfuscated))
        )

    def test_segment1_dependency_closed(self):
        insertion = insert_random_pairs(
            benchmark_circuit("rd53"), gate_limit=4, seed=2
        )
        split = interlocking_split(insertion, seed=3)
        dag = CircuitDag(insertion.obfuscated)
        assert dag.is_dependency_closed(
            set(split.segment1.instruction_indices)
        )

    def test_pairs_straddle_the_boundary(self):
        insertion = insert_random_pairs(
            benchmark_circuit("rd53"), gate_limit=4, seed=4
        )
        assert insertion.num_pairs >= 1
        split = interlocking_split(insertion, seed=5)
        seg1 = set(split.segment1.instruction_indices)
        seg2 = set(split.segment2.instruction_indices)
        for pair in insertion.pairs:
            assert pair.rdg_index in seg1
            assert pair.r_index in seg2

    @pytest.mark.parametrize("name", benchmark_names(table1_only=True))
    def test_recombination_restores_function(self, name):
        circuit = benchmark_circuit(name)
        insertion = insert_random_pairs(circuit, gate_limit=4, seed=6)
        split = interlocking_split(insertion, seed=7)
        assert simulate_reversible(
            split.recombined()
        ) == simulate_reversible(circuit)

    def test_compact_views_reindexed(self):
        insertion = insert_random_pairs(
            benchmark_circuit("rd53"), gate_limit=4, seed=8
        )
        split = interlocking_split(insertion, seed=9)
        for segment in (split.segment1, split.segment2):
            compact = segment.compact
            assert compact.num_qubits == segment.num_active_qubits
            assert compact.active_qubits() == set(
                range(compact.num_qubits)
            )
            # compact -> original mapping is consistent
            for compact_q, original_q in segment.compact_to_original.items():
                assert original_q in segment.active_qubits

    def test_exposure_fractions_sum_to_one(self):
        insertion = insert_random_pairs(
            benchmark_circuit("4gt11"), gate_limit=4, seed=10
        )
        split = interlocking_split(insertion, seed=11)
        left, right = split.exposure_fraction()
        assert left + right == pytest.approx(1.0)
        assert 0 < left < 1

    def test_mismatched_qubits_occur(self):
        """Across seeds, some splits expose different qubit counts."""
        insertion_seed = 12
        mismatches = 0
        for seed in range(12):
            insertion = insert_random_pairs(
                benchmark_circuit("4mod5"), gate_limit=4,
                seed=insertion_seed + seed,
            )
            split = interlocking_split(insertion, seed=seed)
            mismatches += split.mismatched_qubits
        assert mismatches > 0

    def test_empty_circuit_rejected(self):
        insertion = insert_random_pairs(QuantumCircuit(2), seed=0)
        with pytest.raises(ValueError):
            interlocking_split(insertion, seed=0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_split_valid_for_any_seed(self, seed):
        """Property: split + recombine is always function-preserving."""
        circuit = benchmark_circuit("mini_alu")
        insertion = insert_random_pairs(circuit, gate_limit=4, seed=seed)
        split = interlocking_split(insertion, seed=seed)
        assert simulate_reversible(
            split.recombined()
        ) == simulate_reversible(circuit)


class TestSplitCompilation:
    @pytest.mark.parametrize("name", ["4gt13", "one_bit_adder", "4mod5"])
    def test_full_flow_functionally_correct(self, name):
        """Obfuscate -> split -> compile x2 -> stitch == original."""
        circuit = benchmark_circuit(name)
        backend = valencia_like_backend(circuit.num_qubits)
        flow = SplitCompilationFlow(backend, seed=21)
        compiled = flow.run(circuit)

        # the stitched physical circuit must equal the original up to
        # the input/output layout permutations
        from repro.simulator import permutation_matrix

        n = backend.num_qubits
        padded = QuantumCircuit(n)
        padded.extend(circuit.instructions)
        u_logical = circuit_unitary(padded)
        u_physical = circuit_unitary(compiled.restored)
        p_init = permutation_matrix(
            compiled.compiled1.initial_layout.to_dict(), n
        )
        p_final = permutation_matrix(compiled.output_layout.to_dict(), n)
        expected = p_final @ u_logical @ p_init.conj().T
        assert equal_up_to_global_phase(u_physical, expected, atol=1e-6)

    def test_measured_circuit_reads_virtual_order(self):
        circuit = benchmark_circuit("4gt13")
        backend = valencia_like_backend(circuit.num_qubits)
        compiled = SplitCompilationFlow(backend, seed=33).run(circuit)
        measured = compiled.measured_circuit()
        from repro.execution import run

        counts = run(measured, shots=200, seed=1)
        expected = format(
            simulate_reversible(circuit)(0), f"0{circuit.num_qubits}b"
        )
        assert counts.most_frequent() == expected

    def test_stitch_rejects_unpinned_layouts(self):
        circuit = benchmark_circuit("4gt13")
        backend = valencia_like_backend(4)
        insertion = TetrisLockObfuscator(seed=1).obfuscate(circuit)
        split = interlocking_split(insertion, seed=2)
        compiled1 = transpile(split.segment1.full, backend=backend)
        compiled2 = transpile(
            split.segment2.full, backend=backend,
            initial_layout=[3, 2, 1, 0],
        )
        if compiled2.initial_layout != compiled1.final_layout:
            with pytest.raises(ValueError):
                recombine_physical(compiled1, compiled2)

    def test_different_compiler_levels_allowed(self):
        circuit = benchmark_circuit("4gt13")
        backend = valencia_like_backend(4)
        flow = SplitCompilationFlow(
            backend, compiler1_level=0, compiler2_level=3, seed=5
        )
        compiled = flow.run(circuit)
        assert compiled.restored.size() > 0


class TestRecombineErrorPaths:
    def _pinned_pair(self):
        circuit = benchmark_circuit("4gt13")
        backend = valencia_like_backend(4)
        insertion = TetrisLockObfuscator(seed=1).obfuscate(circuit)
        split = interlocking_split(insertion, seed=2)
        compiled1 = transpile(split.segment1.full, backend=backend)
        compiled2 = transpile(
            split.segment2.full,
            backend=backend,
            initial_layout=compiled1.final_layout,
        )
        return compiled1, compiled2

    def test_mismatched_layout_pin_rejected(self):
        compiled1, compiled2 = self._pinned_pair()
        # shift the pin: virtual 0 and 1 swapped relative to segment 1
        broken = transpile(
            compiled2.circuit,
            coupling=compiled2.coupling,
            initial_layout=[1, 0, 2, 3],
            optimization_level=0,
        )
        if broken.initial_layout == compiled1.final_layout:
            pytest.skip("pin coincidentally matched")
        with pytest.raises(ValueError, match="pinned"):
            recombine_physical(compiled1, broken)

    def test_mismatched_devices_rejected(self):
        from repro.transpiler import CouplingMap, Layout
        from repro.transpiler.transpile import TranspileResult

        compiled1, compiled2 = self._pinned_pair()
        wide = QuantumCircuit(5, 0, "wide")
        wider = TranspileResult(
            circuit=wide,
            initial_layout=compiled1.final_layout,
            final_layout=Layout({v: v for v in range(5)}),
            coupling=CouplingMap.line(5),
            source_num_qubits=5,
            swap_count=0,
        )
        with pytest.raises(ValueError, match="different devices"):
            recombine_physical(compiled1, wider)
