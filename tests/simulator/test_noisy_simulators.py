"""Cross-validation of the trajectory and density-matrix engines."""

import numpy as np
import pytest

from reference_sim import apply_readout

from repro.circuits import QuantumCircuit
from repro.execution import plan_cache, run
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
from repro.execution import build_noise_plan
from repro.simulator import density, noisy
from repro.simulator.density import evolve_plan
from repro.simulator.noisy import report_outcomes, site_draws


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


def _exact_distribution(circuit, noise_model):
    """The exact engine's measure-all distribution, readout included."""
    probs = DensityMatrixSimulator(noise_model).evolve(circuit).probabilities()
    return apply_readout(probs / probs.sum(), noise_model)


def _one_gate_noise(channel):
    """A 1-qubit circuit whose one ``id`` gate carries *channel*."""
    qc = QuantumCircuit(1)
    qc.i(0)
    model = NoiseModel().add_all_qubit_quantum_error(channel, ["id"])
    return DensityMatrixSimulator(model).evolve(qc)


class TestAgainstDensityMatrix:
    def _exact_vs_sampled(self, noise_model, shots=20000, seed=11):
        circuit = bell_circuit(measured=False)
        exact = _exact_distribution(circuit, noise_model)
        sampled = run(
            bell_circuit(), shots=shots, noise_model=noise_model,
            method="trajectory", seed=seed,
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
        exact = _exact_distribution(circuit, model)
        sampled = run(
            bell_circuit(), shots=6000, noise_model=model,
            method="trajectory", seed=13,
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


class TestSiteDraws:
    """Both engines draw by one rule (``noisy.site_draws``)."""

    @staticmethod
    def _plan():
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).cx(1, 2)
        qc.measure_all()
        return build_noise_plan(qc, fake_valencia().noise_model())

    def test_engines_report_through_equal_uniforms(self, monkeypatch):
        plan = self._plan()
        seen = {}
        for name, module in (("trajectory", noisy), ("density", density)):

            def capture(plan, outcomes, draws, lo, hi, _name=name):
                seen[_name] = draws
                return report_outcomes(plan, outcomes, draws, lo, hi)

            monkeypatch.setattr(module, "report_outcomes", capture)
        noisy.run_noise_plan(plan, 64, entropy=2024)
        density.run_density_plan(plan, 64, entropy=2024)
        sites = [plan.sample_site]
        sites += [entry[3] for entry in plan.entries if entry[3] is not None]
        assert len(sites) == 1 + plan.num_qubits
        children = np.random.SeedSequence(2024).spawn(plan.num_sites)
        for site in sites:
            np.testing.assert_array_equal(
                seen["trajectory"][site], seen["density"][site]
            )
            # child ``s`` of the entropy's spawn, as before
            np.testing.assert_array_equal(
                seen["density"][site],
                np.random.default_rng(children[site]).random(64),
            )

    def test_step_sites_are_rows_of_one_matrix(self):
        plan = self._plan()
        draws = site_draws(plan, 16, entropy=5)
        seed = np.random.SeedSequence(5, spawn_key=(plan.num_sites,))
        matrix = np.random.default_rng(seed).random((plan.num_sites, 16))
        assert plan.num_channels == plan.sample_site > 0
        for site in range(plan.sample_site):
            np.testing.assert_array_equal(draws[site], matrix[site])
        # the exact engine reads only the terminal sites
        exact = site_draws(plan, 16, entropy=5, steps=False)
        assert exact[: plan.sample_site] == [None] * plan.sample_site
        for site in range(plan.sample_site, plan.num_sites):
            np.testing.assert_array_equal(exact[site], draws[site])

class TestDensityMatrix:
    def test_pure_state_purity(self):
        rho = DensityMatrix.from_statevector(Statevector.from_bitstring("10"))
        assert rho.purity() == pytest.approx(1.0)
        assert rho.trace() == pytest.approx(1.0)

    def test_depolarizing_reduces_purity(self):
        rho = _one_gate_noise(depolarizing(0.5))
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
        rho = _one_gate_noise(bit_flip(0.2))
        assert rho.probabilities() == pytest.approx([0.8, 0.2])

    def test_output_distribution_with_readout(self):
        # P(read 1 | qubit 1 in 0) = 0.25: the exact state is |00>, and
        # evenly spaced readout draws flip exactly a quarter of the shots
        model = NoiseModel().add_readout_error(ReadoutError(0.25, 0.0), 1)
        plan = plan_cache.get_noise_plan(QuantumCircuit(2), model)
        diagonal = np.diagonal(evolve_plan(plan).reshape(4, 4)).real
        np.testing.assert_array_equal(diagonal, [1, 0, 0, 0])
        shots = 1000
        even = (np.arange(shots) + 0.5) / shots
        draws = {e[3]: even for e in plan.entries if e[3] is not None}
        values = report_outcomes(
            plan, np.zeros(shots, dtype=np.int64), draws, 0, shots
        )
        assert np.bincount(values, minlength=4).tolist() == [750, 0, 250, 0]
