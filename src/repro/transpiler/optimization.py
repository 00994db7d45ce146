"""Peephole optimisation passes.

Three passes, mirroring the parts of a production compiler that matter
to the TetrisLock threat model (an *optimising* untrusted compiler must
not be able to cancel the inserted random gates, because each split
holds only one half of every ``g, g†`` pair):

* :func:`remove_identities` — drop ``id`` gates and zero rotations.
* :func:`cancel_inverse_pairs` — eliminate adjacent ``g, g†`` pairs on
  identical qubit tuples (fixpoint iteration).
* :func:`fuse_single_qubit_runs` — collapse maximal runs of 1-qubit
  gates on a wire into a single ``u3`` (or fewer) via ZYZ.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.instruction import Instruction
from .basis import _angles_to_basis  # shared angle-to-cheapest-gate logic
from .euler import u3_angles

__all__ = [
    "remove_identities",
    "cancel_inverse_pairs",
    "fuse_single_qubit_runs",
    "optimize_circuit",
]

_TWO_PI = 2 * math.pi


def _is_trivial_rotation(inst: Instruction) -> bool:
    name = inst.name
    if name == "id":
        return True
    if inst.operation.num_params == 1:  # rx ry rz p u1 crz cp: an angle
        # crz(2 pi) is Z on its control, not a global phase
        period = 2 * _TWO_PI if name == "crz" else _TWO_PI
        angle = inst.operation.params[0] % period
        return min(angle, period - angle) < 1e-12
    if name == "u3":
        theta, phi, lam = inst.operation.params
        theta_mod = theta % _TWO_PI
        combined = (phi + lam) % _TWO_PI
        return (
            min(theta_mod, _TWO_PI - theta_mod) < 1e-12
            and min(combined, _TWO_PI - combined) < 1e-12
        )
    return False


def remove_identities(circuit: QuantumCircuit) -> QuantumCircuit:
    """Drop identity gates and rotations by multiples of 2*pi."""
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    out.extend(
        inst
        for inst in circuit
        if not (inst.is_gate and _is_trivial_rotation(inst))
    )
    return out


def _inverse_of(a: Instruction, b: Instruction) -> bool:
    """True when *b* undoes *a* (same qubits, adjoint operation)."""
    if a.qubits != b.qubits or not (a.is_gate and b.is_gate):
        return False
    inverse = a.operation.inverse()
    # parameterised / unitary fallback: compare matrices (equal qubits
    # give equal shapes)
    return inverse == b.operation or bool(
        np.allclose(inverse.matrix, b.operation.matrix, atol=1e-9)
    )


def cancel_inverse_pairs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Remove adjacent mutually-inverse gate pairs until fixpoint.

    Adjacency is per-DAG: a pair cancels when no other operation on any
    shared qubit lies between them.  Implemented with per-qubit "last
    instruction" tracking over a single scan, iterated to fixpoint.
    """
    instructions = list(circuit.instructions)
    changed = True
    while changed:
        changed = False
        keep = [True] * len(instructions)
        last_on_qubit: Dict[int, int] = {}
        for index, inst in enumerate(instructions):
            if not keep[index]:
                continue
            if inst.is_barrier or inst.is_measure:
                for q in inst.qubits:
                    last_on_qubit[q] = index
                continue
            prev = {last_on_qubit.get(q) for q in inst.qubits}
            if len(prev) == 1:
                prev_index = prev.pop()
                if (
                    prev_index is not None
                    and keep[prev_index]
                    and _inverse_of(instructions[prev_index], inst)
                ):
                    keep[prev_index] = False
                    keep[index] = False
                    changed = True
                    # roll back the qubit pointers to before the pair
                    for q in inst.qubits:
                        last_on_qubit.pop(q, None)
                    continue
            for q in inst.qubits:
                last_on_qubit[q] = index
        instructions = [
            inst for inst, flag in zip(instructions, keep) if flag
        ]
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    out.extend(instructions)
    return out


def fuse_single_qubit_runs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Merge maximal 1-qubit gate runs into a single basis gate.

    The merged product is re-emitted as the cheapest of u1/u2/u3 (or
    nothing when the run multiplies to identity up to phase).
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    pending: Dict[int, np.ndarray] = {}

    def flush(qubit: int) -> None:
        matrix = pending.pop(qubit, None)
        if matrix is None:
            return
        theta, phi, lam, _ = u3_angles(matrix)
        out.extend(_angles_to_basis(theta, phi, lam, qubit))

    for inst in circuit:
        if inst.is_gate and len(inst.qubits) == 1:
            q = inst.qubits[0]
            current = pending.get(q, np.eye(2, dtype=complex))
            pending[q] = inst.operation.matrix @ current
            continue
        for q in inst.qubits:
            flush(q)
        out.extend([inst])
    for q in sorted(pending):
        flush(q)
    return out


def optimize_circuit(
    circuit: QuantumCircuit, level: int = 1
) -> QuantumCircuit:
    """Apply the optimisation pass schedule for the given level.

    level 0: no optimisation; level 1: identity removal + inverse-pair
    cancellation; level >= 2: additionally fuse 1-qubit runs.  Thin
    wrapper over :func:`repro.transpiler.passmanager.optimization_passes`
    (imported lazily; the pass classes wrap this module's functions).
    """
    from .passmanager import PassManager, optimization_passes

    passes = optimization_passes(level)
    if not passes:
        return circuit
    out, _ = PassManager(passes).run(circuit)
    return out
