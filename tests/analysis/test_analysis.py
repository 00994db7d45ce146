"""Tests for leakage analysis and schedule/fidelity estimation."""

import pytest

from repro.analysis import (
    boundary_detection_score,
    estimate_success_probability,
    gate_histogram,
    insertion_blend_score,
    interaction_graph_edges,
    schedule_circuit,
    segment_structural_leakage,
    window_divergence_profile,
)
from repro.baselines import das_insertion
from repro.circuits import QuantumCircuit
from repro.core import insert_random_pairs, interlocking_split
from repro.noise import fake_valencia, valencia_like_backend
from repro.revlib import benchmark_circuit
from repro.transpiler import transpile


class TestLeakageMetrics:
    def test_gate_histogram(self):
        qc = QuantumCircuit(2)
        qc.x(0).x(1).cx(0, 1)
        hist = gate_histogram(qc.gates())
        assert hist == {"x": 2, "cx": 1}

    def test_divergence_profile_flat_for_uniform_circuit(self):
        qc = QuantumCircuit(2)
        for _ in range(10):
            qc.cx(0, 1)
        profile = window_divergence_profile(qc)
        assert max(profile) == 0.0

    def test_divergence_profile_spikes_at_seam(self):
        qc = QuantumCircuit(3)
        for _ in range(6):
            qc.ccx(0, 1, 2)
        for _ in range(6):
            qc.h(0)
        profile = window_divergence_profile(qc, window=4)
        assert max(profile) == 1.0
        assert profile.index(max(profile)) in range(4, 9)

    def test_boundary_detection_on_das_baseline(self):
        """Block insertion leaves a detectable seam more often than
        TetrisLock's in-slot insertion (paper Sec. II-C)."""
        circuit = benchmark_circuit("4gt11")
        das = das_insertion(circuit, 6, "front", seed=1)
        das_score = boundary_detection_score(
            das.obfuscated, [len(das.random_block)]
        )
        tetris = insert_random_pairs(circuit, gate_limit=4, seed=1)
        pair_positions = [p.r_index for p in tetris.pairs]
        tetris_score = boundary_detection_score(
            tetris.obfuscated, pair_positions
        )
        assert 0.0 <= tetris_score <= 1.0
        assert das_score >= 0.5  # the block seam is visible

    def test_interaction_graph(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1).ccx(0, 1, 2)
        assert interaction_graph_edges(qc) == {(0, 1), (0, 2), (1, 2)}

    def test_segment_leakage_fractions(self):
        circuit = benchmark_circuit("rd53")
        insertion = insert_random_pairs(circuit, gate_limit=4, seed=2)
        split = interlocking_split(insertion, seed=3)
        leak1 = segment_structural_leakage(circuit, split.segment1.full)
        leak2 = segment_structural_leakage(circuit, split.segment2.full)
        assert 0.0 <= leak1 <= 1.0
        assert 0.0 <= leak2 <= 1.0
        # neither compiler sees the complete interaction graph... unless
        # the inserted gates accidentally cover it; the combined view can
        assert leak1 < 1.0 or leak2 < 1.0

    def test_blend_score_with_tailored_pool(self):
        circuit = benchmark_circuit("4mod5")  # X/CX/CCX host
        insertion = insert_random_pairs(
            circuit, gate_limit=4, gate_pool=("x", "cx"), seed=4
        )
        assert insertion_blend_score(insertion) == 1.0

    def test_blend_score_with_foreign_pool(self):
        circuit = benchmark_circuit("4mod5")
        insertion = insert_random_pairs(
            circuit, gate_limit=4, gate_pool=("h",), seed=4
        )
        if insertion.num_pairs:
            assert insertion_blend_score(insertion) == 0.0

    def test_boundary_requires_positions(self):
        with pytest.raises(ValueError):
            boundary_detection_score(QuantumCircuit(1), [])


class TestSchedule:
    def test_durations_accumulate(self):
        backend = fake_valencia()
        qc = QuantumCircuit(2)
        qc.u3(0.1, 0.2, 0.3, 0).cx(0, 1)
        schedule = schedule_circuit(qc, backend)
        assert schedule.total_duration_us == pytest.approx(
            0.0355 + 0.40, abs=1e-6
        )
        assert len(schedule.spans) == 2
        assert schedule.spans[1].start_us == pytest.approx(0.0355)

    def test_parallel_gates_overlap(self):
        qc = QuantumCircuit(2)
        qc.u3(0.1, 0.2, 0.3, 0).u3(0.1, 0.2, 0.3, 1)
        schedule = schedule_circuit(qc, fake_valencia())
        assert schedule.total_duration_us == pytest.approx(0.0355)

    def test_virtual_gates_are_free(self):
        qc = QuantumCircuit(1)
        qc.u1(0.4, 0)
        schedule = schedule_circuit(qc, fake_valencia())
        assert schedule.total_duration_us == 0.0

    def test_idle_time(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).u3(0.1, 0.2, 0.3, 0)
        schedule = schedule_circuit(qc, fake_valencia())
        assert schedule.qubit_idle_us(1) == pytest.approx(0.0355)


class TestFidelityEstimate:
    def test_estimate_tracks_simulation(self):
        """The analytic estimate lands in the simulated ballpark."""
        backend = valencia_like_backend(4)
        compiled = transpile(
            benchmark_circuit("4gt13"), backend=backend,
            optimization_level=2,
        )
        estimate = estimate_success_probability(
            compiled.circuit, backend
        )
        from repro.execution import run
        from repro.synth import simulate_reversible

        circuit = compiled.circuit.copy()
        circuit.num_clbits = 4
        for v in range(4):
            circuit.measure(compiled.final_layout.physical(v), v)
        counts = run(
            circuit, shots=2000, noise_model=backend.noise_model(), seed=5
        )
        expected = format(
            simulate_reversible(benchmark_circuit("4gt13"))(0), "04b"
        )
        simulated = counts.fraction(expected)
        assert abs(estimate - simulated) < 0.25

    def test_more_gates_lower_estimate(self):
        backend = valencia_like_backend(5)
        small = transpile(
            benchmark_circuit("4gt13"), backend=backend
        ).circuit
        large = transpile(
            benchmark_circuit("4gt11"), backend=backend
        ).circuit
        assert estimate_success_probability(
            large, backend
        ) < estimate_success_probability(small, backend)
