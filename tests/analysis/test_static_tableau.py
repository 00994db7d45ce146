"""Stabilizer tableau: Clifford recognition and equivalence certificates."""

import numpy as np
import pytest
from reference_sim import LOWERINGS, plan_at, span_ops, traced_gates

from repro.analysis.static import (
    NotCliffordError,
    Tableau,
    certify_equivalence,
    clifford_images,
    tableau_from_ops,
)
from repro.analysis.static.tableau import diagonal_clifford_images
from repro.circuits import (
    QuantumCircuit,
    bernstein_vazirani_circuit,
    ghz_circuit,
)
from repro.execution.noise_plan import build_noise_plan
from repro.revlib import benchmark_circuit

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1.0, 1j])
_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=complex,
)
_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def _pauli_dense(x_bits, z_bits, phase, k):
    """Rebuild i^phase · (∏X)(∏Z) densely to cross-check decoded images."""
    out = np.array([[1.0 + 0j]])
    for t in range(k):
        factor = _I
        x, z = x_bits[t], z_bits[t]
        if x and z:
            # X·Z at one site
            factor = _X @ _Z
        elif x:
            factor = _X
        elif z:
            factor = _Z
        out = np.kron(out, factor)
    return (1j ** phase) * out


def _check_images_against_dense(matrix, k):
    """Decoded U P U† must equal the dense conjugation for every generator."""
    img_x, img_z = clifford_images(matrix, k)
    for t in range(k):
        for images, local in ((img_x, _X), (img_z, _Z)):
            p = np.array([[1.0 + 0j]])
            for s in range(k):
                p = np.kron(p, local if s == t else _I)
            expected = matrix @ p @ matrix.conj().T
            x_bits, z_bits, phase = images[t]
            got = _pauli_dense(x_bits, z_bits, phase, k)
            np.testing.assert_allclose(got, expected, atol=1e-10)


class TestCliffordRecognition:
    @pytest.mark.parametrize(
        "matrix,k",
        [(_H, 1), (_S, 1), (_X, 1), (_Y, 1), (_Z, 1), (_CX, 2), (_CZ, 2)],
    )
    def test_images_match_dense_conjugation(self, matrix, k):
        _check_images_against_dense(matrix, k)

    def test_fused_clifford_block(self):
        block = np.kron(_H, _I) @ _CX @ np.kron(_S, _H)
        _check_images_against_dense(block, 2)

    def test_t_gate_raises_not_clifford(self):
        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        with pytest.raises(NotCliffordError):
            clifford_images(t, 1)

    def test_diagonal_images_match_matrix_path(self):
        for diag in (np.diag(_S), np.diag(_CZ), np.diag(np.kron(_Z, _S))):
            k = int(np.log2(diag.size))
            via_diag = diagonal_clifford_images(diag, k)
            via_matrix = clifford_images(np.diag(diag), k)
            assert via_diag == via_matrix

    def test_diagonal_t_raises(self):
        with pytest.raises(NotCliffordError):
            diagonal_clifford_images(
                np.array([1.0, np.exp(1j * np.pi / 4)]), 1
            )


class TestTableau:
    def test_identity_tableaus_equal(self):
        assert Tableau(3).same_as(Tableau(3))

    def test_hh_is_identity(self):
        tab = Tableau(1)
        tab.apply_matrix(_H, (0,))
        tab.apply_matrix(_H, (0,))
        assert tab.same_as(Tableau(1))

    def test_order_sensitive(self):
        a, b = Tableau(2), Tableau(2)
        a.apply_matrix(_H, (0,))
        a.apply_matrix(_CX, (0, 1))
        b.apply_matrix(_CX, (0, 1))
        b.apply_matrix(_H, (0,))
        assert not a.same_as(b)
        diff = a.first_difference(b)
        assert diff is not None and "differ" in diff


class TestCertificates:
    @pytest.mark.parametrize("fusion", LOWERINGS)
    @pytest.mark.parametrize(
        "circuit_factory",
        [
            lambda: ghz_circuit(4),
            lambda: bernstein_vazirani_circuit("1011"),
            lambda: benchmark_circuit("graycode6"),
        ],
        ids=["ghz", "bv", "graycode6"],
    )
    def test_clifford_benchmarks_certified(self, circuit_factory, fusion):
        circuit = circuit_factory()
        plan = plan_at(circuit, fusion)
        cert = certify_equivalence(
            traced_gates(circuit), span_ops(plan), plan.num_qubits
        )
        assert cert.status == "certified", cert.detail
        assert cert.certified and cert.ok

    def test_non_clifford_reports_not_clifford(self):
        circuit = benchmark_circuit("4gt13")  # Toffoli-based
        plan = build_noise_plan(circuit)
        cert = certify_equivalence(
            traced_gates(circuit), span_ops(plan), plan.num_qubits
        )
        assert cert.status == "not_clifford"
        assert cert.ok and not cert.certified

    def test_mismatch_detected_with_generator_diff(self):
        qc = ghz_circuit(3)
        ops = list(span_ops(build_noise_plan(qc)))
        first = ops[0]
        k = len(first.qubits)
        z_embed = _Z
        for _ in range(k - 1):
            z_embed = np.kron(z_embed, _I)
        from repro.execution.plan import PlanOp

        ops[0] = PlanOp(
            "matrix", first.qubits, matrix=z_embed @ first.to_matrix()
        )
        cert = certify_equivalence(traced_gates(qc), tuple(ops), 3)
        assert cert.status == "mismatch"
        assert not cert.ok
        assert "differ" in cert.detail

    def test_certificate_to_dict(self):
        qc = ghz_circuit(3)
        cert = certify_equivalence(
            traced_gates(qc), span_ops(plan_at(qc, "1q")), 3
        )
        payload = cert.to_dict()
        assert payload["status"] == "certified"
        assert payload["num_qubits"] == 3

    def test_tableau_from_ops_wraps_op_index(self):
        qc = QuantumCircuit(1)
        qc.h(0).t(0)
        plan = plan_at(qc, "none")
        with pytest.raises(NotCliffordError) as excinfo:
            tableau_from_ops(span_ops(plan), 1)
        assert excinfo.value.op_index == 1
