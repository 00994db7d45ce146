"""Plain-text circuit rendering.

Produces a column-per-layer ASCII diagram in the spirit of Qiskit's
``text`` drawer, used by the examples to visualise obfuscated circuits
and interlocking split boundaries (paper Figures 2 and 3).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .circuit import QuantumCircuit
from .dag import circuit_layers
from .instruction import Instruction

__all__ = ["draw_circuit", "draw_layers", "annotate_split"]

_CONTROL = "*"
_TARGET_X = "X"
_VERTICAL = "|"


def _gate_label(inst: Instruction) -> str:
    name = inst.name
    if inst.operation.__class__.__name__ == "MCXGate":
        return "X"
    if name == "measure":
        return "M"
    labels = {
        "x": "X",
        "y": "Y",
        "z": "Z",
        "h": "H",
        "s": "S",
        "sdg": "S+",
        "t": "T",
        "tdg": "T+",
        "id": "I",
        "sx": "SX",
    }
    if name in labels:
        return labels[name]
    if inst.operation.__class__.__name__ == "UnitaryGate":
        return "U"
    params = getattr(inst.operation, "params", ())
    if params:
        return f"{name}({','.join(f'{p:.2g}' for p in params)})"
    return name


def _column_cells(
    inst: Instruction, num_qubits: int
) -> Dict[int, str]:
    """Cell text per qubit for one instruction within its column."""
    cells: Dict[int, str] = {}
    name = inst.name
    qubits = inst.qubits
    if len(qubits) == 1:
        cells[qubits[0]] = _gate_label(inst)
        return cells
    is_mcx = (
        name in ("cx", "ccx")
        or inst.operation.__class__.__name__ == "MCXGate"
    )
    if is_mcx:
        controls, target = qubits[:-1], qubits[-1]
        for c in controls:
            cells[c] = _CONTROL
        cells[target] = _TARGET_X
    elif name == "swap":
        cells[qubits[0]] = "x"
        cells[qubits[1]] = "x"
    elif name in ("cz", "cp"):
        for q in qubits:
            cells[q] = _CONTROL
    elif name in ("cy", "ch", "crz"):
        cells[qubits[0]] = _CONTROL
        cells[qubits[1]] = _gate_label(inst)[1:].upper() or "?"
    elif name == "cswap":
        cells[qubits[0]] = _CONTROL
        cells[qubits[1]] = "x"
        cells[qubits[2]] = "x"
    else:
        label = _gate_label(inst)
        for q in qubits:
            cells[q] = label
    # vertical connector cells between the extremes
    low, high = min(qubits), max(qubits)
    for q in range(low + 1, high):
        if q not in cells:
            cells[q] = _VERTICAL
    return cells


def draw_layers(
    layers: Sequence[Sequence[Instruction]],
    num_qubits: int,
    qubit_labels: Optional[Sequence[str]] = None,
    highlight: Optional[Dict[int, int]] = None,
) -> str:
    """Render pre-computed layers as ASCII.

    *highlight* optionally maps qubit -> layer index of a split
    boundary; a ``/`` marker is drawn after that layer on that wire.
    """
    if qubit_labels is None:
        qubit_labels = [f"q{q}: " for q in range(num_qubits)]
    width = max((len(label) for label in qubit_labels), default=0)
    rows = [label.rjust(width) for label in qubit_labels]

    for layer_index, layer in enumerate(layers):
        cells: Dict[int, str] = {}
        for inst in layer:
            cells.update(_column_cells(inst, num_qubits))
        col_width = max((len(text) for text in cells.values()), default=1)
        for q in range(num_qubits):
            text = cells.get(q, "-" * col_width)
            pad = text.center(col_width, "-" if text not in (_VERTICAL,) else " ")
            if text == _VERTICAL:
                pad = _VERTICAL.center(col_width)
            rows[q] += "-" + pad + "-"
            if highlight and highlight.get(q) == layer_index:
                rows[q] += "/"
            else:
                rows[q] += "-"
    return "\n".join(rows)


def draw_circuit(circuit: QuantumCircuit) -> str:
    """ASCII diagram of *circuit* (one column per ASAP layer)."""
    layers = circuit_layers(circuit)
    return draw_layers(layers, circuit.num_qubits)


def annotate_split(
    circuit: QuantumCircuit, cut_layers: Dict[int, int]
) -> str:
    """Draw *circuit* with a per-qubit split boundary marked by ``/``.

    ``cut_layers[q]`` is the last layer (inclusive) belonging to the
    left segment on qubit ``q``; pass ``-1`` for "everything right".
    """
    layers = circuit_layers(circuit)
    return draw_layers(layers, circuit.num_qubits, highlight=cut_layers)
