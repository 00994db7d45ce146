"""Cross-validation of the trajectory and density-matrix engines."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.execution import run
from repro.metrics import tvd
from repro.noise import (
    NoiseModel,
    ReadoutError,
    bit_flip,
    depolarizing,
    fake_valencia,
)
from repro.simulator import (
    DensityMatrix,
    DensityMatrixSimulator,
    Statevector,
)


def bell_circuit(measured=True):
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1)
    if measured:
        qc.measure_all()
    return qc


class TestNoiselessPaths:
    def test_trajectory_matches_statevector(self):
        counts = run(bell_circuit(), shots=2000, seed=1)
        assert set(counts) == {"00", "11"}
        assert counts["00"] == pytest.approx(1000, abs=120)

    def test_unmeasured_circuit_measures_all(self):
        counts = run(bell_circuit(measured=False), shots=100, seed=2)
        assert set(counts) <= {"00", "11"}
        assert sum(counts.values()) == 100

    def test_seed_determinism(self):
        a = run(bell_circuit(), shots=500, seed=7)
        b = run(bell_circuit(), shots=500, seed=7)
        assert a == b

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            run(bell_circuit(), shots=0)


class TestMidCircuitMeasurement:
    def test_trajectory_handles_mid_circuit(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0).measure(0, 0)
        qc.x(0)  # gate after measurement forces per-shot path
        counts = run(qc, shots=300, method="trajectory", seed=5)
        assert set(counts) <= {"0", "1"}


class TestAgainstDensityMatrix:
    def _exact_vs_sampled(self, noise_model, shots=20000, seed=11):
        circuit = bell_circuit(measured=False)
        exact = DensityMatrixSimulator(noise_model).output_distribution(
            circuit
        )
        sampled = run(
            bell_circuit(), shots=shots, noise_model=noise_model, seed=seed
        )
        sampled_probs = {
            format(i, "02b"): 0.0 for i in range(4)
        }
        sampled_probs.update(sampled.probabilities())
        exact_probs = {
            format(i, "02b"): float(p) for i, p in enumerate(exact)
        }
        return tvd(exact_probs, sampled_probs)

    def test_bit_flip_channel(self):
        model = NoiseModel().add_all_qubit_quantum_error(
            bit_flip(0.05), ["cx"]
        )
        assert self._exact_vs_sampled(model) < 0.02

    def test_depolarizing_channel(self):
        model = NoiseModel().add_all_qubit_quantum_error(
            depolarizing(0.08, 2), ["cx"]
        )
        assert self._exact_vs_sampled(model) < 0.02

    def test_fake_valencia_model(self):
        model = fake_valencia().noise_model()
        assert self._exact_vs_sampled(model) < 0.02

    def test_per_shot_matches_density_too(self):
        model = NoiseModel().add_all_qubit_quantum_error(
            bit_flip(0.1), ["h"]
        )
        circuit = bell_circuit(measured=False)
        exact = DensityMatrixSimulator(model).output_distribution(circuit)
        sampled = run(
            bell_circuit(), shots=6000, noise_model=model, seed=13
        )
        exact_probs = {
            format(i, "02b"): float(p) for i, p in enumerate(exact)
        }
        assert tvd(exact_probs, sampled.probabilities()) < 0.03


class TestReadoutErrors:
    def test_readout_flips_deterministic_output(self):
        model = NoiseModel().add_readout_error(ReadoutError(0.3, 0.0), 0)
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        counts = run(qc, shots=5000, noise_model=model, seed=1)
        assert counts.fraction("1") == pytest.approx(0.3, abs=0.03)

    def test_readout_asymmetry(self):
        model = NoiseModel().add_readout_error(ReadoutError(0.0, 0.4), 0)
        qc = QuantumCircuit(1, 1)
        qc.x(0).measure(0, 0)
        counts = run(qc, shots=5000, noise_model=model, seed=2)
        assert counts.fraction("0") == pytest.approx(0.4, abs=0.03)


class TestDensityMatrix:
    def test_pure_state_purity(self):
        rho = DensityMatrix.from_statevector(Statevector.from_bitstring("10"))
        assert rho.purity() == pytest.approx(1.0)
        assert rho.trace() == pytest.approx(1.0)

    def test_depolarizing_reduces_purity(self):
        rho = DensityMatrix(1)
        rho.apply_channel(depolarizing(0.5), [0])
        assert rho.purity() < 1.0
        assert rho.trace() == pytest.approx(1.0)

    def test_gate_application_matches_statevector(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).t(1)
        state = Statevector(2).evolve(qc)
        rho = DensityMatrixSimulator().evolve(qc)
        assert rho.fidelity_with_state(state) == pytest.approx(1.0)

    def test_bit_flip_analytic(self):
        """rho after p-bit-flip on |0> has exactly p weight on |1>."""
        rho = DensityMatrix(1)
        rho.apply_channel(bit_flip(0.2), [0])
        assert rho.probabilities() == pytest.approx([0.8, 0.2])

    def test_output_distribution_with_readout(self):
        model = NoiseModel().add_readout_error(ReadoutError(0.25, 0.0), 1)
        probs = DensityMatrixSimulator(model).output_distribution(
            QuantumCircuit(2)
        )
        assert probs[0] == pytest.approx(0.75)
        assert probs[2] == pytest.approx(0.25)
