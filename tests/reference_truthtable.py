"""Per-entry reference for :func:`repro.synth.simulate_reversible`.

:func:`simulate_reversible_loops` applies each gate as a Python loop
over all ``2^n`` table entries, one entry at a time; the array version
in :mod:`repro.synth.truthtable` must give equal tables.
"""

from repro.circuits.gates import MCXGate
from repro.synth import TruthTable


def simulate_reversible_loops(circuit):
    """Exact truth table of a classical-reversible circuit, entry by
    entry (x/cx/ccx/mcxK/swap/cswap; barriers and measurements are
    skipped, anything else raises :class:`ValueError`)."""
    n = circuit.num_qubits
    table = list(range(2 ** n))
    for inst in circuit:
        if inst.is_barrier or inst.is_measure:
            continue
        op = inst.operation
        if op.name == "swap":
            a, b = inst.qubits
            mask_a, mask_b = 1 << a, 1 << b
            table = [
                value ^ (mask_a | mask_b)
                if ((value >> a) ^ (value >> b)) & 1
                else value
                for value in table
            ]
            continue
        if op.name == "cswap":
            control, a, b = inst.qubits
            mask_c, mask_a, mask_b = 1 << control, 1 << a, 1 << b
            table = [
                value ^ (mask_a | mask_b)
                if (value & mask_c) and ((value >> a) ^ (value >> b)) & 1
                else value
                for value in table
            ]
            continue
        if isinstance(op, MCXGate):
            controls, target = inst.qubits[:-1], inst.qubits[-1]
        elif op.name == "x":
            controls, target = (), inst.qubits[0]
        elif op.name == "cx":
            controls, target = (inst.qubits[0],), inst.qubits[1]
        elif op.name == "ccx":
            controls, target = inst.qubits[:2], inst.qubits[2]
        else:
            raise ValueError(
                f"gate {op.name!r} is not classical-reversible"
            )
        control_mask = 0
        for c in controls:
            control_mask |= 1 << c
        target_mask = 1 << target
        table = [
            value ^ target_mask
            if (value & control_mask) == control_mask
            else value
            for value in table
        ]
    return TruthTable(table)
