"""Tests for QASM I/O, random circuit generation and the drawer."""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits import (
    QasmError,
    QuantumCircuit,
    draw_circuit,
    from_qasm,
    random_circuit,
    random_reversible_circuit,
    to_qasm,
)
from repro.circuits.gates import GATE_REGISTRY, gate_from_name
from repro.simulator import circuit_unitary, equal_up_to_global_phase
from repro.transpiler.cache import circuit_structural_hash


# every registered gate: name -> (parameter count, qubit count)
_GATES = {
    name: (cls.num_params, cls.num_qubits)
    for name, cls in sorted(GATE_REGISTRY.items())
}
_ANGLES = st.floats(
    -8 * math.pi, 8 * math.pi, allow_nan=False, allow_infinity=False
) | st.sampled_from(
    [0.0, -0.0, math.pi, -math.pi / 2, math.pi / 3, 1e-300, 2.5e-13]
)


@st.composite
def _circuits(draw):
    """Random circuits of 1-6 qubits over the full gate pool, with
    barriers and (mid-circuit) measures interleaved."""
    num_qubits = draw(st.integers(1, 6))
    num_clbits = draw(st.integers(0, 6))
    qc = QuantumCircuit(num_qubits, num_clbits)
    names = [n for n, (_, k) in _GATES.items() if k <= num_qubits]
    ops = names + ["barrier"] + (["measure"] if num_clbits else [])
    for _ in range(draw(st.integers(0, 25))):
        name = draw(st.sampled_from(ops))
        if name == "measure":
            qc.measure(
                draw(st.integers(0, num_qubits - 1)),
                draw(st.integers(0, num_clbits - 1)),
            )
            continue
        width = (
            draw(st.integers(1, num_qubits))
            if name == "barrier"
            else _GATES[name][1]
        )
        qubits = draw(st.permutations(range(num_qubits)))[:width]
        if name == "barrier":
            qc.barrier(*qubits)
            continue
        params = [draw(_ANGLES) for _ in range(_GATES[name][0])]
        qc.append(gate_from_name(name, params), qubits)
    return qc


def _bell():
    qc = QuantumCircuit(2, 2)
    qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
    return qc


class TestQasmWriter:
    def test_header(self):
        qasm = to_qasm(QuantumCircuit(3, 2))
        assert "OPENQASM 2.0;" in qasm
        assert "qreg q[3];" in qasm
        assert "creg c[2];" in qasm

    def test_gate_lines(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).rz(math.pi / 2, 1)
        qasm = to_qasm(qc)
        assert "h q[0];" in qasm
        assert "cx q[0],q[1];" in qasm
        assert "rz(pi/2) q[1];" in qasm

    def test_measure_line(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        assert "measure q[0] -> c[0];" in to_qasm(qc)

    def test_barrier_line(self):
        qc = QuantumCircuit(2)
        qc.barrier()
        assert "barrier q[0],q[1];" in to_qasm(qc)

    def test_mcx_rejected(self):
        qc = QuantumCircuit(5)
        qc.mcx([0, 1, 2, 3], 4)
        with pytest.raises(QasmError):
            to_qasm(qc)


class TestQasmReader:
    def test_roundtrip_preserves_semantics(self):
        qc = random_circuit(
            3, 15,
            gate_pool=["h", "x", "z", "s", "t", "cx", "cz", "swap",
                       "rx", "ry", "rz", "ccx"],
            seed=5,
        )
        restored = from_qasm(to_qasm(qc))
        assert equal_up_to_global_phase(
            circuit_unitary(qc), circuit_unitary(restored)
        )

    @settings(max_examples=300, deadline=None)
    @given(qc=_circuits())
    @example(qc=_bell())
    def test_roundtrip_structural_equality(self, qc):
        assert from_qasm(to_qasm(qc)) == qc

    def test_comments_ignored(self):
        program = """
        OPENQASM 2.0; // header comment
        include "qelib1.inc";
        qreg q[1];
        x q[0]; // flip
        """
        qc = from_qasm(program)
        assert qc.size() == 1

    def test_pi_expressions(self):
        qc = from_qasm(
            'OPENQASM 2.0; qreg q[1]; rz(pi/4) q[0]; rz(-pi) q[0]; '
            "rz(2*pi/3) q[0];"
        )
        angles = [inst.operation.params[0] for inst in qc]
        assert angles == pytest.approx(
            [math.pi / 4, -math.pi, 2 * math.pi / 3]
        )

    def test_missing_qreg_rejected(self):
        with pytest.raises(QasmError):
            from_qasm("OPENQASM 2.0; x q[0];")

    def test_unknown_gate_rejected(self):
        with pytest.raises(QasmError):
            from_qasm("OPENQASM 2.0; qreg q[1]; frob q[0];")

    def test_registers_resolve_in_declaration_order(self):
        qc = from_qasm(
            "OPENQASM 2.0; qreg a[2]; qreg b[2]; creg m[1]; creg n[2]; "
            "x b[0]; cx a[1],b[1]; measure b[1] -> n[1];"
        )
        assert (qc.num_qubits, qc.num_clbits) == (4, 3)
        assert [(inst.name, inst.qubits, inst.clbits) for inst in qc] == [
            ("x", (2,), ()),
            ("cx", (1, 3), ()),
            ("measure", (3,), (2,)),
        ]

    @pytest.mark.parametrize("program, message", [
        ("qreg q[2]; x r[1];", "undeclared register 'r'"),
        ("qreg q[2]; x q[5];", "out of range"),
        ("qreg q[2]; creg c[1]; measure q[0] -> c[1];", "out of range"),
        ("qreg q[2]; creg c[1]; measure q[0] -> d[0];", "undeclared"),
        ("qreg q[2]; qreg q[1];", "declared twice"),
        ("qreg q[2]; barrier q;", "broadcast operands are unsupported"),
        ("qreg q[2]; cx q[0] q[1];", "broadcast operands are unsupported"),
        ("qreg q[2]; creg c[2]; measure q -> c;",
         "broadcast operands are unsupported"),
    ])
    def test_bad_register_operand_rejected(self, program, message):
        with pytest.raises(QasmError, match=message):
            from_qasm("OPENQASM 2.0; " + program)

    @pytest.mark.parametrize("statement", [
        "rx q[0]",
        "u3(1,2) q[0]",
        "cx q[0]",
        "x(0.1) q[0]",
        "mcx3(1) q[0],q[1],q[2],q[3]",
    ])
    def test_bad_gate_arity_rejected(self, statement):
        with pytest.raises(QasmError, match=re.escape(repr(statement))):
            from_qasm(f"OPENQASM 2.0; qreg q[4]; {statement};")

    def test_malicious_parameter_rejected(self):
        with pytest.raises(QasmError):
            from_qasm(
                "OPENQASM 2.0; qreg q[1]; rz(__import__) q[0];"
            )
        # a ~370M-digit integer if evaluated exactly: must fail fast
        started = time.perf_counter()
        with pytest.raises(QasmError):
            from_qasm("OPENQASM 2.0; qreg q[1]; rz(9**9**9) q[0];")
        assert time.perf_counter() - started < 0.5


class TestRandomCircuits:
    def test_gate_count(self):
        qc = random_circuit(4, 25, seed=0)
        assert qc.size() == 25

    def test_seed_reproducibility(self):
        a = random_circuit(4, 20, seed=42)
        b = random_circuit(4, 20, seed=42)
        assert a == b

    def test_pool_respected(self):
        qc = random_circuit(3, 30, gate_pool=["x", "cx"], seed=1)
        assert set(qc.count_ops()) <= {"x", "cx"}

    def test_arity_exceeding_width_rejected(self):
        with pytest.raises(ValueError):
            random_circuit(1, 5, gate_pool=["cx"], seed=0)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            random_circuit(0, 5)

    def test_reversible_pool(self):
        qc = random_reversible_circuit(4, 30, seed=3)
        assert set(qc.count_ops()) <= {"x", "cx", "ccx"}

    def test_reversible_single_qubit(self):
        qc = random_reversible_circuit(1, 5, seed=3)
        assert set(qc.count_ops()) == {"x"}

    def test_parameterised_pool(self):
        qc = random_circuit(2, 10, gate_pool=["u3", "cp"], seed=9)
        for inst in qc:
            assert len(inst.operation.params) in (1, 3)

    def test_full_registry_pool_pinned(self):
        # digest captured before gates stated their own arity and
        # parameter count: the draws must not move
        qc = random_circuit(6, 300, gate_pool=sorted(GATE_REGISTRY), seed=3)
        assert set(qc.count_ops()) == set(GATE_REGISTRY)
        assert (
            circuit_structural_hash(qc) == "16db83fb116d76e8583489baf260ea34"
        )

    def test_mcx_pool(self):
        qc = random_circuit(5, 4, gate_pool=["mcx3"], seed=0)
        assert qc.count_ops() == {"mcx3": 4}
        assert all(len(inst.qubits) == 4 for inst in qc)


class TestDrawer:
    def test_wire_per_qubit(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 2)
        art = draw_circuit(qc)
        assert len(art.splitlines()) == 3
        assert "H" in art

    def test_cx_symbols(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        art = draw_circuit(qc)
        lines = art.splitlines()
        assert "*" in lines[0]
        assert "X" in lines[1]

    def test_vertical_connector(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 2)
        art = draw_circuit(qc)
        assert "|" in art.splitlines()[1]

    def test_empty_circuit(self):
        art = draw_circuit(QuantumCircuit(2))
        assert len(art.splitlines()) == 2
