"""The unified execution layer: engine names, dispatch, cross-engine agreement."""

import functools

import pytest
from birth_circuits import late_birth_circuit, untouched_qubit_circuit

from repro.circuits import QuantumCircuit, random_circuit
from repro.execution import ENGINES, run, select_engine
from repro.metrics import tvd
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import TetrisLockPipeline
from repro.noise import depolarizing, fake_valencia, valencia_like_backend
from repro.noise.model import NoiseModel
from repro.revlib import benchmark_circuit
from repro.simulator import DensityMatrixSimulator
from repro.transpiler import transpile


def _terminal_circuit():
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1).measure_all()
    return qc


def _mid_circuit():
    qc = QuantumCircuit(2, 2)
    qc.h(0).measure(0, 0).x(0).measure(0, 1)
    return qc


def _noise():
    model = NoiseModel("depol")
    model.add_all_qubit_quantum_error(depolarizing(0.02), ["h", "x", "cx"])
    return model


class TestRegistry:
    def test_builtin_engines_present(self):
        assert ENGINES == ("density", "statevector", "trajectory")

    def test_get_engine_unknown_name(self):
        with pytest.raises(ValueError, match="unknown method 'stabilizer'"):
            run(_terminal_circuit(), 10, method="stabilizer")


class TestDispatch:
    def test_noiseless_terminal_uses_statevector(self):
        assert select_engine(_terminal_circuit(), shots=1000) == "statevector"

    def test_trivial_noise_model_counts_as_noiseless(self):
        assert (
            select_engine(
                _terminal_circuit(), shots=1000, noise_model=NoiseModel()
            )
            == "statevector"
        )

    def test_noisy_terminal_uses_trajectory(self):
        # 2^n amplitudes per shot against 4^n exact: one shot of a
        # 2-qubit circuit is cheaper as a trajectory
        assert (
            select_engine(_terminal_circuit(), shots=1, noise_model=_noise())
            == "trajectory"
        )

    def test_noisy_terminal_dispatch_weighs_width_against_shots(self):
        assert (
            select_engine(
                _terminal_circuit(), shots=1000, noise_model=_noise()
            )
            == "density"
        )
        wide = QuantumCircuit(10)
        wide.h(0).measure_all()
        model = valencia_like_backend(10).noise_model()
        assert (
            select_engine(wide, shots=100, noise_model=model) == "trajectory"
        )
        assert select_engine(wide, shots=1000, noise_model=model) == "density"
        # a 12-qubit density tensor would not fit the exact engine's
        # memory bound, however many shots
        wider = QuantumCircuit(12)
        wider.h(0).measure_all()
        model = valencia_like_backend(12).noise_model()
        assert (
            select_engine(wider, shots=100_000, noise_model=model)
            == "trajectory"
        )

    def test_mid_circuit_uses_trajectory(self):
        assert select_engine(_mid_circuit(), shots=1000) == "trajectory"
        assert (
            select_engine(_mid_circuit(), shots=1000, noise_model=_noise())
            == "trajectory"
        )

    def test_density_never_auto_selected_but_explicit(self):
        # noiseless runs never dispatch to the exact engine on their own
        assert select_engine(_terminal_circuit(), shots=200) == "statevector"
        counts = run(
            _terminal_circuit(), 200, method="density", seed=0
        )
        assert counts.shots == 200

    @pytest.mark.parametrize("noisy", [False, True])
    def test_engines_honour_the_clbit_map(self, noisy):
        # qubit 0 reads into clbit 1 and qubit 2 into clbit 0 of a
        # 2-bit register; qubit 1 is never reported
        circuit = QuantumCircuit(3, 2)
        circuit.x(0).measure(0, 1).measure(2, 0)
        noise = _noise() if noisy else None
        for method in ENGINES:
            if noisy and method == "statevector":
                continue
            counts = run(
                circuit, 100, method=method, noise_model=noise, seed=1
            )
            if noisy:
                assert set(counts) <= {"00", "01", "10", "11"}, method
                assert counts["10"] > 80, (method, dict(counts))
            else:
                assert dict(counts) == {"10": 100}, method

    def test_invalid_shots(self):
        with pytest.raises(ValueError, match="shots"):
            run(_terminal_circuit(), 0)

    def test_statevector_rejects_noise(self):
        with pytest.raises(ValueError, match="noiseless"):
            run(
                _terminal_circuit(), 10, method="statevector",
                noise_model=_noise(),
            )

    def test_statevector_rejects_mid_circuit(self):
        with pytest.raises(ValueError, match="terminal"):
            run(_mid_circuit(), 10, method="statevector")

    def test_density_rejects_mid_circuit(self):
        # the density engine samples one final distribution, so it
        # would report measure-all counts ({00, 01} here) where the
        # circuit's outcomes are {01, 10}
        with pytest.raises(ValueError, match="terminal"):
            run(_mid_circuit(), 10, method="density")
        counts = run(_mid_circuit(), 200, seed=3)
        assert set(counts) == {"01", "10"}


class TestCrossEngineAgreement:
    """Seeded random circuits through every engine must agree within
    shot noise (the dispatch layer must never change statistics)."""

    SHOTS = 4000

    def _exact_reference(self, circuit, noise_model=None):
        probs = DensityMatrixSimulator(noise_model).evolve(
            circuit
        ).probabilities()
        n = circuit.num_qubits
        return {format(i, f"0{n}b"): p for i, p in enumerate(probs)}

    @pytest.mark.parametrize("circuit_seed", [3, 17])
    def test_noiseless_engines_agree(self, circuit_seed):
        circuit = random_circuit(
            3, 8, gate_pool=["h", "x", "t", "cx", "cz"],
            seed=circuit_seed,
        )
        reference = self._exact_reference(circuit)
        circuit = circuit.measure_all()
        for method in ("statevector", "trajectory", "density"):
            counts = run(
                circuit, self.SHOTS, method=method, seed=42
            )
            distance = tvd(counts.probabilities(), reference)
            assert distance < 0.05, (method, distance)

    def test_noisy_engines_agree(self):
        noise = _noise()
        circuit = random_circuit(
            3, 6, gate_pool=["h", "x", "cx"], seed=8
        )
        reference = self._exact_reference(circuit, noise)
        circuit = circuit.measure_all()
        for method in ("trajectory", "density"):
            counts = run(
                circuit, self.SHOTS, method=method,
                noise_model=noise, seed=7,
            )
            distance = tvd(counts.probabilities(), reference)
            assert distance < 0.05, (method, distance)

    def test_auto_matches_explicit_statistics(self):
        """Auto dispatch runs the same engine the explicit name does."""
        circuit = _terminal_circuit()
        auto = run(circuit, 1000, seed=5)
        explicit = run(circuit, 1000, method="statevector", seed=5)
        assert auto == explicit

    def test_valencia_noise_cross_engine(self):
        noise = fake_valencia().noise_model()
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).measure_all()
        reference = run(
            circuit, 8000, method="density", noise_model=noise, seed=0
        )
        ensemble = run(
            circuit, 8000, method="trajectory", noise_model=noise, seed=1
        )
        assert tvd(reference.probabilities(),
                   ensemble.probabilities()) < 0.04


# seeded counts of the auto route (the exact engine) on _device_4gt13
AUTO_DEVICE_PIN = {
    "0000": 40, "0001": 21, "0010": 22, "0100": 4, "0101": 6,
    "1000": 26, "1010": 830, "1011": 33, "1110": 18,
}


def _device_4gt13():
    circuit = benchmark_circuit("4gt13")
    backend = valencia_like_backend(circuit.num_qubits)
    compiled = transpile(circuit, backend=backend).circuit.copy()
    compiled.num_clbits = max(compiled.num_clbits, compiled.num_qubits)
    for qubit in range(compiled.num_qubits):
        compiled.measure(qubit, qubit)
    return compiled, backend.noise_model()


class TestRegressionPins:
    """Seeded counts of the noisy engines, pinned bit for bit: a change
    that moves them changes what every noisy caller gets.  The
    trajectory pins force ``method="trajectory"``; the auto pins follow
    dispatch, which sends these small circuits to the exact engine."""

    def test_device_circuit_counts(self):
        compiled, model = _device_4gt13()
        counts = run(
            compiled, 1000, noise_model=model, method="trajectory", seed=7
        )
        assert dict(counts) == {
            "0000": 43, "0001": 18, "0010": 23, "0100": 2, "0101": 2,
            "1000": 28, "1010": 844, "1011": 29, "1110": 10, "1111": 1,
        }

    def test_device_circuit_counts_auto(self):
        compiled, model = _device_4gt13()
        assert select_engine(compiled, shots=1000, noise_model=model) == (
            "density"
        )
        counts = run(compiled, 1000, noise_model=model, seed=7)
        assert dict(counts) == AUTO_DEVICE_PIN

    def test_pipeline_counts(self, monkeypatch):
        monkeypatch.setattr(
            pipeline_module,
            "execute",
            functools.partial(run, method="trajectory"),
        )
        result = TetrisLockPipeline(shots=200, seed=3).evaluate(
            benchmark_circuit("4gt13")
        )
        assert dict(result.counts_original) == {
            "0000": 7, "0001": 1, "0010": 3, "0100": 5, "1000": 7,
            "1100": 171, "1101": 2, "1110": 3, "1111": 1,
        }
        assert dict(result.counts_obfuscated) == {
            "0000": 2, "0001": 6, "0011": 1, "0100": 1, "0101": 4,
            "0111": 2, "1000": 4, "1001": 176, "1011": 1, "1101": 2,
            "1111": 1,
        }
        assert dict(result.counts_restored) == {
            "0000": 14, "0010": 6, "0100": 2, "1000": 2, "1100": 168,
            "1101": 1, "1110": 7,
        }

    def test_pipeline_counts_auto(self):
        # the exact engine draws one entropy integer per simulation, as
        # the ensemble does: the insertion and split are unchanged
        result = TetrisLockPipeline(shots=200, seed=3).evaluate(
            benchmark_circuit("4gt13")
        )
        assert (result.inserted_gates, result.split_qubits) == (2, (4, 3))
        assert dict(result.counts_original) == {
            "0000": 5, "0001": 1, "0010": 2, "0100": 6, "1000": 6,
            "1010": 1, "1100": 172, "1101": 3, "1110": 4,
        }
        assert dict(result.counts_obfuscated) == {
            "0001": 5, "0101": 6, "0110": 1, "0111": 4, "1000": 8,
            "1001": 168, "1011": 4, "1101": 4,
        }
        assert dict(result.counts_restored) == {
            "0000": 13, "0001": 1, "0010": 3, "0100": 4, "1000": 4,
            "1100": 170, "1101": 2, "1110": 3,
        }

    def test_mid_circuit_counts(self):
        circuit = QuantumCircuit(3, 3)
        circuit.u3(1.1, 0.3, 0.2, 0).cx(0, 1).measure(0, 0)
        circuit.u3(0.7, 0.1, 0.4, 0).cx(0, 2).cx(1, 2)
        circuit.measure(0, 1).measure(2, 2)
        model = valencia_like_backend(3).noise_model()
        assert (
            select_engine(circuit, shots=1000, noise_model=model)
            == "trajectory"
        )
        counts = run(circuit, 1000, noise_model=model, seed=7)
        assert dict(counts) == {
            "000": 642, "001": 9, "010": 11, "011": 210, "100": 7,
            "101": 35, "110": 77, "111": 9,
        }

    def test_late_birth_counts(self):
        # qubit 4 is first touched by the last gate
        circuit = late_birth_circuit()
        model = valencia_like_backend(5).noise_model()
        counts = run(
            circuit, 1000, noise_model=model, method="trajectory", seed=7
        )
        assert dict(counts) == {
            "00000": 305, "00001": 19, "00010": 5, "00011": 9,
            "00100": 288, "00101": 15, "00110": 5, "00111": 4,
            "01000": 4, "01010": 1, "01011": 6, "01100": 3, "01101": 1,
            "01110": 2, "01111": 3, "10000": 6, "10010": 1, "10011": 2,
            "10100": 5, "10110": 3, "10111": 2, "11000": 19, "11001": 4,
            "11010": 42, "11011": 92, "11100": 17, "11101": 2,
            "11110": 37, "11111": 98,
        }

    def test_untouched_measured_qubit_counts(self):
        # qubit 3 is measured, and only its readout error acts on it
        circuit = untouched_qubit_circuit()
        model = valencia_like_backend(4).noise_model()
        counts = run(
            circuit, 1000, noise_model=model, method="trajectory", seed=7
        )
        assert dict(counts) == {
            "0000": 324, "0001": 10, "0010": 20, "0011": 122, "0100": 349,
            "0101": 6, "0110": 19, "0111": 138, "1000": 4, "1010": 1,
            "1011": 1, "1100": 4, "1111": 2,
        }
