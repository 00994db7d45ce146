"""OpenQASM 2.0 serialisation.

Covers the gate set of :mod:`repro.circuits.gates` plus measure and
barrier — enough to round-trip every circuit this project produces and
to exchange circuits with Qiskit-based tooling outside this repo.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from typing import Dict, List, Tuple

from .circuit import QuantumCircuit
from .gates import Barrier, MCXGate, Measure, UnitaryGate, gate_from_name
from .instruction import Instruction

__all__ = ["to_qasm", "from_qasm", "QasmError"]


class QasmError(ValueError):
    """Raised on malformed QASM input or unserialisable circuits."""


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def _format_param(value: float) -> str:
    """Render an angle, preferring exact multiples of pi for readability."""
    for denom in (1, 2, 3, 4, 6, 8):
        for numer_sign in (1, -1):
            target = numer_sign * math.pi / denom
            if abs(value - target) < 1e-12:
                sign = "-" if numer_sign < 0 else ""
                return f"{sign}pi/{denom}" if denom != 1 else f"{sign}pi"
    return repr(float(value))


def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialise *circuit* as an OpenQASM 2.0 program string."""
    lines: List[str] = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for inst in circuit:
        lines.append(_instruction_to_qasm(inst))
    return "\n".join(lines) + "\n"


def _instruction_to_qasm(inst: Instruction) -> str:
    qubits = ",".join(f"q[{q}]" for q in inst.qubits)
    op = inst.operation
    if isinstance(op, Measure):
        return f"measure q[{inst.qubits[0]}] -> c[{inst.clbits[0]}];"
    if isinstance(op, Barrier):
        return f"barrier {qubits};"
    if isinstance(op, UnitaryGate):
        raise QasmError("arbitrary unitary gates cannot be written as QASM 2")
    if isinstance(op, MCXGate) and op.num_controls > 2:
        raise QasmError(
            "decompose MCX gates (>2 controls) before QASM export; see "
            "repro.synth.decompose"
        )
    if op.params:
        params = ",".join(_format_param(p) for p in op.params)
        return f"{op.name}({params}) {qubits};"
    return f"{op.name} {qubits};"


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

_QREG_RE = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_CREG_RE = re.compile(r"creg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_MEASURE_RE = re.compile(
    r"measure\s+(\w+)\s*\[\s*(\d+)\s*\]\s*->\s*(\w+)\s*\[\s*(\d+)\s*\]"
)
_GATE_RE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?\s*(.*)$")
_OPERAND_RE = re.compile(r"(\w+)\s*\[\s*(\d+)\s*\]")

_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _eval_param(text: str) -> float:
    """Evaluate a QASM angle expression: numeric literals, ``pi``,
    unary ``+``/``-``, ``+ - * /``, ``**`` and parentheses.

    Every step is a float operation, so no expression can build a huge
    integer: ``9**9**9`` overflows and is refused like any other
    expression that does not evaluate to a finite angle.
    """
    try:
        # MemoryError: the parser's answer to absurdly deep nesting
        tree = ast.parse(text.strip(), mode="eval")
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        raise QasmError(f"unsupported parameter expression: {text!r}") from exc
    try:
        value = _eval_node(tree.body, text)
    except (OverflowError, ZeroDivisionError, RecursionError) as exc:
        raise QasmError(f"cannot evaluate parameter {text!r}") from exc
    if not math.isfinite(value):
        raise QasmError(f"parameter {text!r} is not a finite angle")
    return value


def _eval_node(node: ast.AST, text: str) -> float:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_eval_node(node.operand, text))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        value = _BINARY_OPS[type(node.op)](
            _eval_node(node.left, text), _eval_node(node.right, text)
        )
        if not isinstance(value, float):
            # a negative base to a fractional power is complex
            raise QasmError(f"parameter {text!r} is not a real angle")
        return value
    raise QasmError(f"unsupported parameter expression: {text!r}")


# register name -> (offset into the flat register, size)
_Registers = Dict[str, Tuple[int, int]]


def from_qasm(text: str) -> QuantumCircuit:
    """Parse an OpenQASM 2.0 program into a :class:`QuantumCircuit`.

    Supports any number of quantum and classical registers, the qelib1
    gates registered in :data:`repro.circuits.gates.GATE_REGISTRY`,
    measure and barrier statements.  Registers are laid out flat in
    declaration order: with ``qreg a[2]; qreg b[2];``, ``b[0]`` is
    qubit 2.  Every operand must name a declared register and an index
    inside it, else :class:`QasmError` is raised; broadcast operands
    (a register without an index) are not supported.
    """
    # strip comments and normalise whitespace
    body = re.sub(r"//[^\n]*", "", text)
    statements = [s.strip() for s in body.split(";") if s.strip()]

    qregs: _Registers = {}
    cregs: _Registers = {}
    pending: List[str] = []

    for stmt in statements:
        lowered = stmt.lower()
        if lowered.startswith("openqasm") or lowered.startswith("include"):
            continue
        match = _QREG_RE.match(stmt)
        if match:
            _declare(qregs, cregs, match.group(1), int(match.group(2)))
            continue
        match = _CREG_RE.match(stmt)
        if match:
            _declare(cregs, qregs, match.group(1), int(match.group(2)))
            continue
        pending.append(stmt)

    num_qubits = sum(size for _, size in qregs.values())
    if num_qubits == 0:
        raise QasmError("program declares no qubits")
    circuit = QuantumCircuit(
        num_qubits, sum(size for _, size in cregs.values())
    )

    for stmt in pending:
        _parse_statement(stmt, circuit, qregs, cregs)
    return circuit


def _declare(
    table: _Registers, other: _Registers, name: str, size: int
) -> None:
    if name in table or name in other:
        raise QasmError(f"register {name!r} declared twice")
    offset = sum(width for _, width in table.values())
    table[name] = (offset, size)


def _resolve(registers: _Registers, name: str, index: str) -> int:
    """Flat bit index of operand ``name[index]``."""
    try:
        offset, size = registers[name]
    except KeyError:
        raise QasmError(f"undeclared register {name!r}") from None
    if int(index) >= size:
        raise QasmError(
            f"index {name}[{index}] out of range for a register of "
            f"size {size}"
        )
    return offset + int(index)


def _parse_statement(
    stmt: str, circuit: QuantumCircuit, qregs: _Registers, cregs: _Registers
) -> None:
    match = _MEASURE_RE.match(stmt)
    if match:
        qreg, qubit, creg, clbit = match.groups()
        circuit.measure(
            _resolve(qregs, qreg, qubit), _resolve(cregs, creg, clbit)
        )
        return
    match = _GATE_RE.match(stmt)
    if not match:
        raise QasmError(f"cannot parse statement: {stmt!r}")
    name, param_text, operand_text = match.groups()
    qubits = []
    for item in operand_text.split(","):
        operand = _OPERAND_RE.fullmatch(item.strip())
        if operand is None:
            raise QasmError(
                f"bad operand {item.strip()!r} in statement {stmt!r}: "
                f"expected reg[index] (broadcast operands are unsupported)"
            )
        qubits.append(_resolve(qregs, *operand.groups()))
    if name == "barrier":
        circuit.append(Barrier(len(qubits)), qubits)
        return
    params = (
        [_eval_param(p) for p in param_text.split(",")] if param_text else []
    )
    try:
        circuit.append(gate_from_name(name, params), qubits)
    except KeyError as exc:
        raise QasmError(f"unsupported gate {name!r}") from exc
    except ValueError as exc:  # parameter count or arity
        raise QasmError(f"{exc} in statement {stmt!r}") from exc
