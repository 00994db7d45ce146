"""Tests for device backends (FakeValencia and widenings)."""

import pytest

from repro.circuits.gates import CXGate, U3Gate
from repro.circuits.instruction import Instruction
from repro.noise import (
    Backend,
    GateCalibration,
    QubitCalibration,
    VALENCIA_BASIS_GATES,
    VALENCIA_COUPLING,
    fake_valencia,
    valencia_like_backend,
)


class TestFakeValencia:
    def test_topology(self):
        backend = fake_valencia()
        assert backend.num_qubits == 5
        assert backend.coupling_edges == VALENCIA_COUPLING
        assert backend.basis_gates == VALENCIA_BASIS_GATES

    def test_symmetric_edges(self):
        backend = fake_valencia()
        edges = backend.symmetric_edges()
        assert (0, 1) in edges and (1, 0) in edges
        assert len(edges) == 8

    def test_cx_error_lookup_both_directions(self):
        backend = fake_valencia()
        assert backend.cx_error(0, 1) == backend.cx_error(1, 0)
        with pytest.raises(KeyError):
            backend.cx_error(0, 4)

    def test_noise_model_covers_gates(self):
        model = fake_valencia().noise_model()
        names = model.noisy_gate_names
        assert "cx" in names
        assert "u3" in names

    def test_noise_model_binds_per_qubit(self):
        model = fake_valencia().noise_model()
        sq = model.errors_for(Instruction(U3Gate([1, 2, 3]), (2,)))
        assert len(sq) == 1
        cx = model.errors_for(Instruction(CXGate(), (0, 1)))
        # depolarizing pair + relax control + relax target
        assert len(cx) == 3

    def test_noise_model_has_readout_everywhere(self):
        model = fake_valencia().noise_model()
        for q in range(5):
            assert model.readout_error(q) is not None


class TestValenciaLike:
    def test_exact_five_returns_valencia(self):
        assert valencia_like_backend(5).coupling_edges == VALENCIA_COUPLING

    def test_truncation_below_five(self):
        backend = valencia_like_backend(3)
        assert backend.num_qubits == 3
        assert all(a < 3 and b < 3 for a, b in backend.coupling_edges)

    def test_widening_is_connected_line(self):
        backend = valencia_like_backend(12)
        assert backend.num_qubits == 12
        assert backend.coupling_edges == [(q, q + 1) for q in range(11)]
        assert len(backend.qubits) == 12

    def test_one_backend_and_noise_model_per_width(self):
        assert valencia_like_backend(5) is valencia_like_backend(5)
        model = valencia_like_backend(5).noise_model()
        assert valencia_like_backend(5).noise_model() is model
        assert valencia_like_backend(4).noise_model() is not model
        # the memo is not part of a backend's value
        assert fake_valencia() == valencia_like_backend(5)

    def test_widened_noise_model_builds(self):
        model = valencia_like_backend(8).noise_model()
        assert model.readout_error(7) is not None
        assert "cx" in model.noisy_gate_names


class TestBackendValidation:
    def test_calibration_length_checked(self):
        with pytest.raises(ValueError):
            Backend(
                name="bad",
                num_qubits=2,
                coupling_edges=[(0, 1)],
                basis_gates=["cx"],
                qubits=[QubitCalibration(100, 80, 0.01, 0.02)],
            )

    def test_edge_range_checked(self):
        with pytest.raises(ValueError):
            Backend(
                name="bad",
                num_qubits=2,
                coupling_edges=[(0, 5)],
                basis_gates=["cx"],
                qubits=[
                    QubitCalibration(100, 80, 0.01, 0.02)
                    for _ in range(2)
                ],
            )

    def test_gate_calibration_dataclass(self):
        cal = GateCalibration(error=0.01, duration_us=0.4)
        assert cal.error == 0.01
