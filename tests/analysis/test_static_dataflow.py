"""Dataflow pass: def-use chains, light cones, dead ops, lowering proofs."""

import numpy as np
import pytest
from reference_sim import LOWERINGS, plan_at, span_ops, traced_gates

from repro.analysis.static import (
    dead_ops,
    def_use_chains,
    light_cone,
    verify_lowering,
)
from repro.circuits import QuantumCircuit, ghz_circuit
from repro.execution.noise_plan import build_noise_plan
from repro.revlib import benchmark_circuit
from repro.revlib.benchmarks import benchmark_names


class TestChains:
    def test_def_use_chains_ghz(self):
        # ghz(3): h q0; cx q0,q1; cx q1,q2
        ops = traced_gates(ghz_circuit(3))
        chains = def_use_chains(ops)
        assert chains[0] == [0, 1]
        assert chains[1] == [1, 2]
        assert chains[2] == [2]

    def test_light_cone_backward(self):
        ops = traced_gates(ghz_circuit(3))
        # the cone of q2 is everything: cx(1,2) <- cx(0,1) <- h(0)
        assert light_cone(ops, [2]) == [0, 1, 2]
        # the cone of q0 alone stops at ops touching q0
        assert light_cone(ops, [0]) == [0, 1]

    def test_light_cone_disjoint_qubit(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).x(2)
        ops = traced_gates(qc)
        assert light_cone(ops, [2]) == [2]

    def test_dead_ops_flags_identity_products(self):
        qc = QuantumCircuit(1)
        qc.x(0).x(0)
        dead = dead_ops(span_ops(build_noise_plan(qc)))
        # x·x == I: the fused op is dead
        assert dead == [0]

    def test_dead_ops_empty_on_real_work(self):
        assert dead_ops(span_ops(build_noise_plan(ghz_circuit(3)))) == []


class TestVerifyLowering:
    @pytest.mark.parametrize("fusion", LOWERINGS)
    def test_all_benchmarks_verify(self, fusion):
        for name in benchmark_names():
            circuit = benchmark_circuit(name)
            plan = plan_at(circuit, fusion)
            report = verify_lowering(
                traced_gates(circuit), span_ops(plan), plan.num_qubits
            )
            assert report.ok, f"{name}@{fusion}: {report.violations}"

    def test_provenance_recorded(self):
        qc = ghz_circuit(3)
        ops = span_ops(build_noise_plan(qc))
        report = verify_lowering(traced_gates(qc), ops, 3)
        assert report.ok
        provenance = report.metadata["provenance"]
        assert len(provenance) == len(ops)
        consumed = [i for group in provenance for i in group]
        assert consumed == sorted(consumed)

    def test_self_inverse_pair_absorbed(self):
        """h,x,x fuses to h — last-match-wins must consume the x,x pair."""
        qc = QuantumCircuit(1)
        qc.h(0).x(0).x(0)
        ops = span_ops(build_noise_plan(qc))
        report = verify_lowering(traced_gates(qc), ops, 1)
        assert report.ok, report.violations

    def test_reordered_non_commuting_ops_rejected(self):
        qc = ghz_circuit(3)
        ops = list(span_ops(plan_at(qc, "none")))
        # swap h(0) and cx(0,1): they do not commute
        ops[0], ops[1] = ops[1], ops[0]
        report = verify_lowering(traced_gates(qc), tuple(ops), 3)
        assert not report.ok
        violation = report.violations[0]
        assert violation.rule == "lowering-order"
        # the report names the blocking source op precisely
        assert "blocked" in violation.message
        assert "h" in violation.message or "cx" in violation.message

    def test_dropped_op_is_coverage_violation(self):
        qc = ghz_circuit(3)
        ops = span_ops(plan_at(qc, "none"))
        report = verify_lowering(traced_gates(qc), ops[:-1], 3)
        assert not report.ok
        assert any(
            v.rule == "lowering-coverage" for v in report.violations
        )

    def test_wrong_matrix_rejected(self):
        qc = ghz_circuit(3)
        ops = list(span_ops(build_noise_plan(qc)))
        z = np.diag([1.0, -1.0]).astype(complex)
        first = ops[0]
        k = len(first.qubits)
        corrupted = first.to_matrix().copy()
        full_z = z
        for _ in range(k - 1):
            full_z = np.kron(full_z, np.eye(2))
        from repro.execution.plan import PlanOp

        ops[0] = PlanOp(
            "matrix", first.qubits, matrix=full_z @ corrupted
        )
        report = verify_lowering(traced_gates(qc), tuple(ops), 3)
        assert not report.ok

    def test_empty_circuit_trivially_verifies(self):
        qc = QuantumCircuit(2)
        ops = span_ops(build_noise_plan(qc))
        report = verify_lowering(traced_gates(qc), ops, 2)
        assert report.ok
