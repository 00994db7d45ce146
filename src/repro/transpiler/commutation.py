"""Commutation-aware gate cancellation.

A stronger optimiser than adjacent-pair cancellation: two mutually
inverse gates also cancel when every gate *between* them (on the
shared qubits) commutes with them.  This models a more aggressive
untrusted compiler — exactly the adversary the TetrisLock threat model
must survive.  The security-relevant property (tested in
``tests/core``) is that the inserted random gates still do NOT cancel
inside a single split segment, because their partners live in the
other segment; and they DO cancel once the segments are recombined,
which is how de-obfuscation eliminates the redundancy.

Commutation rules implemented (standard Clifford-level peephole set):

* disjoint qubits always commute;
* diagonal gates (Z, S, T, RZ, U1, CZ, CP) commute with each other and
  with the *control* of CX;
* X and RX commute with the *target* of CX;
* CX pairs sharing only controls (or only targets) commute.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.instruction import Instruction
from .optimization import _inverse_of

__all__ = ["commutes", "commutation_cancel"]

_DIAGONAL = {"z", "s", "sdg", "t", "tdg", "rz", "u1", "p", "cz", "cp"}
_X_LIKE = {"x", "rx"}


def _structural_commute(a: Instruction, b: Instruction) -> Optional[bool]:
    """Rule-based commutation check; None when no rule applies."""
    shared = set(a.qubits) & set(b.qubits)
    if not shared:
        return True
    name_a, name_b = a.name, b.name
    if name_a in _DIAGONAL and name_b in _DIAGONAL:
        return True
    # CX interactions
    for first, second in ((a, b), (b, a)):
        if second.name != "cx":
            continue
        control, target = second.qubits
        if first.name in _DIAGONAL and set(first.qubits) & {target}:
            if target in first.qubits and first.name in ("cz", "cp"):
                continue  # two-qubit diagonal on the target: no rule
            if first.qubits == (control,):
                return True
            if target in first.qubits:
                return False
        if first.name in _X_LIKE and first.qubits == (target,):
            return True
        if first.name in _X_LIKE and first.qubits == (control,):
            return False
        if first.name in _DIAGONAL and first.qubits == (control,):
            return True
    if name_a == "cx" and name_b == "cx":
        control_a, target_a = a.qubits
        control_b, target_b = b.qubits
        if control_a == control_b and target_a != target_b:
            return True
        if target_a == target_b and control_a != control_b:
            return True
        return False
    return None


def commutes(a: Instruction, b: Instruction, atol: float = 1e-9) -> bool:
    """True when instructions *a* and *b* commute as operators.

    Tries the cheap structural rules first and falls back to an exact
    matrix check on the union of the touched qubits (at most a few
    qubits, so the matrices stay small).
    """
    if not (a.is_gate and b.is_gate):
        return False
    structural = _structural_commute(a, b)
    if structural is not None:
        return structural
    qubits = sorted(set(a.qubits) | set(b.qubits))
    index = {q: i for i, q in enumerate(qubits)}
    dim = 2 ** len(qubits)

    def embed(inst: Instruction) -> np.ndarray:
        from ..simulator.unitary import circuit_unitary

        circuit = QuantumCircuit(len(qubits))
        circuit.append(inst.operation, [index[q] for q in inst.qubits])
        return circuit_unitary(circuit)

    mat_a, mat_b = embed(a), embed(b)
    return bool(np.allclose(mat_a @ mat_b, mat_b @ mat_a, atol=atol))


def commutation_cancel(
    circuit: QuantumCircuit, max_window: int = 10
) -> QuantumCircuit:
    """Cancel inverse pairs separated by commuting gates.

    For each gate, scan forward (bounded by *max_window* intervening
    instructions that touch its qubits) for its inverse; the pair is
    removed when every instruction in between commutes with it.
    Iterates to fixpoint.
    """
    instructions: List[Optional[Instruction]] = list(circuit.instructions)
    changed = True
    while changed:
        changed = False
        for i, inst in enumerate(instructions):
            if inst is None or not inst.is_gate:
                continue
            window = 0
            blocked = False
            for j in range(i + 1, len(instructions)):
                other = instructions[j]
                if other is None:
                    continue
                if not set(other.qubits) & set(inst.qubits):
                    continue
                if not other.is_gate:
                    break
                if _inverse_of(inst, other):
                    instructions[i] = None
                    instructions[j] = None
                    changed = True
                    break
                if not commutes(inst, other):
                    break
                window += 1
                if window >= max_window:
                    break
            if changed:
                break
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    out.extend(inst for inst in instructions if inst is not None)
    return out
