"""RevLib ``.real`` netlist format.

RevLib (Wille et al., ISMVL 2008) distributes reversible benchmark
functions as ``.real`` files: a header (``.numvars``, ``.variables``,
``.inputs``, ``.outputs``, ``.constants``, ``.garbage``) followed by a
gate list between ``.begin`` and ``.end``.  Gate lines are
``t<k> v1 ... vk`` — a multiple-control Toffoli whose last variable is
the target — plus ``f<k>`` Fredkin gates (controlled swaps) and ``v``
gates, of which this project supports the Toffoli family (``t1`` = NOT,
``t2`` = CNOT, ``t3`` = Toffoli, ``t4``+ = MCT) and Fredkin ``f3``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import CSwapGate, MCXGate

__all__ = ["parse_real", "write_real", "RealFormatError"]


class RealFormatError(ValueError):
    """Raised on malformed ``.real`` input."""


def parse_real(text: str, name: Optional[str] = None) -> QuantumCircuit:
    """Parse a RevLib ``.real`` netlist into a circuit.

    Variable ``i`` (declaration order) becomes qubit ``i``; the RevLib
    constant/garbage annotations are recorded in the returned circuit's
    ``name`` only — simulation semantics start from ``|0...0>`` as the
    paper's accuracy experiments do.
    """
    variables: List[str] = []
    gates: List[List[str]] = []
    in_body = False
    declared_numvars: Optional[int] = None

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered.startswith(".numvars"):
            declared_numvars = int(line.split()[1])
            continue
        if lowered.startswith(".variables"):
            variables = line.split()[1:]
            continue
        if lowered.startswith((".inputs", ".outputs", ".constants",
                               ".garbage", ".version", ".inputbus",
                               ".outputbus", ".define", ".module")):
            continue
        if lowered.startswith(".begin"):
            in_body = True
            continue
        if lowered.startswith(".end"):
            in_body = False
            continue
        if lowered.startswith("."):
            continue  # unknown directive, tolerated
        if in_body:
            gates.append(line.split())

    if declared_numvars is None and not variables:
        raise RealFormatError("missing .numvars / .variables header")
    if not variables:
        variables = [f"x{i}" for i in range(declared_numvars or 0)]
    if declared_numvars is not None and len(variables) != declared_numvars:
        raise RealFormatError(
            f".numvars {declared_numvars} but {len(variables)} variables"
        )
    index: Dict[str, int] = {v: i for i, v in enumerate(variables)}
    circuit = QuantumCircuit(len(variables), name=name or "revlib")

    for parts in gates:
        kind, operands = parts[0].lower(), parts[1:]
        try:
            qubits = [index[v] for v in operands]
        except KeyError as exc:
            raise RealFormatError(f"unknown variable in {parts}") from exc
        if kind.startswith("t"):
            arity = int(kind[1:])
            if arity != len(qubits):
                raise RealFormatError(
                    f"gate {kind} expects {arity} operands, got {len(qubits)}"
                )
            circuit.append(MCXGate(arity - 1), qubits)
        elif kind == "f3":
            circuit.append(CSwapGate(), qubits)
        else:
            raise RealFormatError(f"unsupported gate kind {kind!r}")
    return circuit


def write_real(
    circuit: QuantumCircuit,
    variables: Optional[Sequence[str]] = None,
) -> str:
    """Serialise a Toffoli-family circuit back to ``.real`` text."""
    if variables is None:
        variables = [chr(ord("a") + i) if i < 26 else f"x{i}"
                     for i in range(circuit.num_qubits)]
    if len(variables) != circuit.num_qubits:
        raise RealFormatError("variable list length mismatch")
    lines = [
        ".version 2.0",
        f".numvars {circuit.num_qubits}",
        ".variables " + " ".join(variables),
        ".begin",
    ]
    for inst in circuit:
        op = inst.operation
        if isinstance(op, MCXGate) or op.name in ("x", "cx", "ccx"):
            kind = f"t{len(inst.qubits)}"
        elif op.name == "cswap":
            kind = "f3"
        else:
            raise RealFormatError(
                f"gate {op.name!r} has no .real representation"
            )
        lines.append(
            f"{kind} " + " ".join(variables[q] for q in inst.qubits)
        )
    lines.append(".end")
    return "\n".join(lines) + "\n"
