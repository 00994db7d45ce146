"""Basis translation to the IBM {id, u1, u2, u3, cx} gate set.

The FakeValencia device (paper Sec. V-A) executes exactly this basis.
Single-qubit gates go through the ZYZ/U3 route; two-qubit standard
gates use fixed textbook identities; Toffoli and wider MCX gates are
first expanded by :mod:`repro.synth.decompose`; arbitrary 1-qubit
unitaries are Euler-decomposed; controlled arbitrary unitaries use the
ABC construction.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import (
    CXGate,
    MCXGate,
    U1Gate,
    U2Gate,
    U3Gate,
    UnitaryGate,
)
from ..circuits.instruction import Instruction
from ..synth.decompose import ccx_decomposition, expand_mcx_gates
from .euler import u3_angles, zyz_angles

__all__ = ["translate_to_basis", "BASIS_GATES", "translate_instruction"]

BASIS_GATES = ("id", "u1", "u2", "u3", "cx")

_PI = math.pi


def _u3(theta: float, phi: float, lam: float, qubit: int) -> Instruction:
    return Instruction(U3Gate([theta, phi, lam]), (qubit,))


def _u1(lam: float, qubit: int) -> Instruction:
    return Instruction(U1Gate([lam]), (qubit,))


def _u2(phi: float, lam: float, qubit: int) -> Instruction:
    return Instruction(U2Gate([phi, lam]), (qubit,))


def _cx(control: int, target: int) -> Instruction:
    return Instruction(CXGate(), (control, target))


def _h(qubit: int) -> Instruction:
    return _u2(0.0, _PI, qubit)


def _controlled_unitary(
    matrix: np.ndarray, control: int, target: int
) -> List[Instruction]:
    """ABC decomposition of a controlled 2x2 unitary into u1/u3 + 2 CX.

    ``U = e^{i a} Rz(b) Ry(g) Rz(d)``; with
    ``A = Rz(b) Ry(g/2)``, ``B = Ry(-g/2) Rz(-(d+b)/2)``,
    ``C = Rz((d-b)/2)`` we have ``A X B X C = U`` and ``A B C = I``,
    so ``CU = (u1(a) on control) . A cx B cx C``.
    """
    alpha, beta, gamma, delta = zyz_angles(matrix)
    instructions: List[Instruction] = []
    # circuit order: C first
    c_angle = (delta - beta) / 2.0
    if abs(c_angle) > 1e-12:
        instructions.append(_u1(c_angle, target))
    instructions.append(_cx(control, target))
    # B = Ry(-g/2) Rz(-(d+b)/2): as u3 the rz acts first
    instructions.extend(
        _matrix_to_basis(
            _rz_ry(-(delta + beta) / 2.0, -gamma / 2.0), target
        )
    )
    instructions.append(_cx(control, target))
    instructions.extend(
        _matrix_to_basis(_rz_ry(beta, gamma / 2.0, rz_second=True), target)
    )
    if abs(alpha) > 1e-12:
        instructions.append(_u1(alpha, control))
    return instructions


def _rz_ry(rz_angle: float, ry_angle: float, rz_second: bool = False):
    """Matrix of Rz·Ry (rz_second) or Ry·Rz (default, rz applied first)."""
    from .euler import rz_matrix, ry_matrix

    if rz_second:
        return rz_matrix(rz_angle) @ ry_matrix(ry_angle)
    return ry_matrix(ry_angle) @ rz_matrix(rz_angle)


def _matrix_to_basis(matrix: np.ndarray, qubit: int) -> List[Instruction]:
    """A 2x2 unitary as at most one basis gate (global phase dropped)."""
    theta, phi, lam, _ = u3_angles(matrix)
    return _angles_to_basis(theta, phi, lam, qubit)


def _angles_to_basis(
    theta: float, phi: float, lam: float, qubit: int
) -> List[Instruction]:
    """Emit the cheapest of u1/u2/u3 for the given Euler angles."""
    two_pi = 2 * _PI
    theta_mod = theta % two_pi
    if min(theta_mod, two_pi - theta_mod) < 1e-12:
        combined = (phi + lam) % two_pi
        if combined < 1e-12 or two_pi - combined < 1e-12:
            return []
        return [_u1(phi + lam, qubit)]
    if abs(theta_mod - _PI / 2) < 1e-12:
        return [_u2(phi, lam, qubit)]
    return [_u3(theta, phi, lam, qubit)]


def translate_instruction(inst: Instruction) -> List[Instruction]:
    """Translate one gate instruction into basis-gate instructions."""
    op = inst.operation
    name = op.name
    qubits = inst.qubits

    if name in ("id",):
        return []
    if name in ("u1", "u2", "u3", "cx"):
        return [inst]

    # single-qubit standard gates ------------------------------------
    single = {
        "x": (_PI, 0.0, _PI),
        "y": (_PI, _PI / 2, _PI / 2),
        "h": None,  # special-cased to u2
    }
    q = qubits[0] if qubits else None
    if name == "h":
        return [_h(q)]
    if name in single and single[name] is not None:
        theta, phi, lam = single[name]
        return [_u3(theta, phi, lam, q)]
    if name == "z":
        return [_u1(_PI, q)]
    if name == "s":
        return [_u1(_PI / 2, q)]
    if name == "sdg":
        return [_u1(-_PI / 2, q)]
    if name == "t":
        return [_u1(_PI / 4, q)]
    if name == "tdg":
        return [_u1(-_PI / 4, q)]
    if name == "sx":
        return [_u3(_PI / 2, -_PI / 2, _PI / 2, q)]
    if name == "rx":
        return _angles_to_basis(op.params[0], -_PI / 2, _PI / 2, q)
    if name == "ry":
        return _angles_to_basis(op.params[0], 0.0, 0.0, q)
    if name in ("rz", "p"):
        return _angles_to_basis(0.0, 0.0, op.params[0], q) or [
            _u1(op.params[0], q)
        ]

    # two-qubit standard gates ---------------------------------------
    if name == "cz":
        c, t = qubits
        return [_h(t), _cx(c, t), _h(t)]
    if name == "cy":
        c, t = qubits
        return [_u1(-_PI / 2, t), _cx(c, t), _u1(_PI / 2, t)]
    if name == "ch":
        c, t = qubits
        from ..circuits.gates import HGate

        return _controlled_unitary(HGate().matrix, c, t)
    if name == "swap":
        a, b = qubits
        return [_cx(a, b), _cx(b, a), _cx(a, b)]
    if name == "crz":
        c, t = qubits
        half = op.params[0] / 2.0
        return [_u1(half, t), _cx(c, t), _u1(-half, t), _cx(c, t)]
    if name == "cp":
        c, t = qubits
        half = op.params[0] / 2.0
        return [
            _u1(half, c),
            _cx(c, t),
            _u1(-half, t),
            _cx(c, t),
            _u1(half, t),
        ]

    # three-qubit gates ------------------------------------------------
    if name == "ccx":
        out: List[Instruction] = []
        for sub in ccx_decomposition(*qubits):
            out.extend(translate_instruction(sub))
        return out
    if name == "cswap":
        c, t1, t2 = qubits
        pre = [_cx(t2, t1)]
        mid: List[Instruction] = []
        for sub in ccx_decomposition(c, t1, t2):
            mid.extend(translate_instruction(sub))
        post = [_cx(t2, t1)]
        return [*pre, *mid, *post]

    # arbitrary unitaries ----------------------------------------------
    if isinstance(op, UnitaryGate):
        if op.num_qubits == 1:
            return _matrix_to_basis(op.matrix, qubits[0])
        raise ValueError(
            f"cannot translate {op.num_qubits}-qubit unitary directly; "
            "decompose it first"
        )
    if isinstance(op, MCXGate):
        raise ValueError(
            "MCX gates must be expanded before basis translation "
            "(see expand_mcx_gates)"
        )
    raise ValueError(f"no basis translation for gate {name!r}")


def translate_to_basis(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rewrite *circuit* into {id, u1, u2, u3, cx} gates.

    MCX gates (>2 controls) are expanded with borrowed lines first.
    Barriers and measures pass through unchanged.
    """
    circuit = expand_mcx_gates(circuit)
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    for inst in circuit:
        if not inst.is_gate:
            out.extend([inst])
            continue
        out.extend(translate_instruction(inst))
    return out
