"""The :class:`QuantumCircuit` container.

A circuit is an ordered list of :class:`~repro.circuits.instruction.Instruction`
objects over ``num_qubits`` qubits and ``num_clbits`` classical bits.
It deliberately mirrors the subset of Qiskit's ``QuantumCircuit`` API
that the TetrisLock paper exercises: gate builders, ``depth``,
``count_ops``, ``compose``, ``inverse`` and measurement handling.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .gates import (
    Barrier,
    CCXGate,
    CHGate,
    CPhaseGate,
    CRZGate,
    CSwapGate,
    CXGate,
    CYGate,
    CZGate,
    HGate,
    IGate,
    MCXGate,
    Measure,
    PhaseGate,
    RXGate,
    RYGate,
    RZGate,
    SdgGate,
    SGate,
    SwapGate,
    SXGate,
    TdgGate,
    TGate,
    U1Gate,
    U2Gate,
    U3Gate,
    UnitaryGate,
    XGate,
    YGate,
    ZGate,
)
from .instruction import Instruction, Operation

__all__ = ["QuantumCircuit"]


class QuantumCircuit:
    """An ordered gate list over a fixed register of qubits.

    Parameters
    ----------
    num_qubits:
        Size of the quantum register.
    num_clbits:
        Size of the classical register (defaults to 0; ``measure_all``
        grows it on demand).
    name:
        Optional human-readable name used by the drawer and reports.
    """

    def __init__(
        self, num_qubits: int, num_clbits: int = 0, name: Optional[str] = None
    ) -> None:
        if num_qubits < 0 or num_clbits < 0:
            raise ValueError("register sizes must be non-negative")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits)
        self.name = name or "circuit"
        self._instructions: List[Instruction] = []

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """All instructions in program order (read-only view)."""
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index):
        return self._instructions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self._instructions == other._instructions
        )

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"num_clbits={self.num_clbits}, size={len(self)})"
        )

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def _check_qubits(self, qubits: Sequence[int]) -> None:
        for q in qubits:
            if not 0 <= int(q) < self.num_qubits:
                raise IndexError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )

    def append(
        self,
        operation: Operation,
        qubits: Sequence[int],
        clbits: Sequence[int] = (),
    ) -> "QuantumCircuit":
        """Append *operation* on *qubits*; returns ``self`` for chaining."""
        self._check_qubits(qubits)
        for c in clbits:
            if not 0 <= int(c) < self.num_clbits:
                raise IndexError(
                    f"clbit {c} out of range for {self.num_clbits}-clbit circuit"
                )
        self._instructions.append(
            Instruction(operation, tuple(qubits), tuple(clbits))
        )
        return self

    def insert(
        self, index: int, operation: Operation, qubits: Sequence[int]
    ) -> "QuantumCircuit":
        """Insert a (non-measure) operation at program position *index*."""
        self._check_qubits(qubits)
        self._instructions.insert(index, Instruction(operation, tuple(qubits)))
        return self

    def extend(self, instructions: Iterable[Instruction]) -> "QuantumCircuit":
        """Append existing instructions, validating their qubit ranges."""
        for inst in instructions:
            self._check_qubits(inst.qubits)
            self._instructions.append(inst)
        return self

    # -- single-qubit gate builders -------------------------------------
    def i(self, qubit: int) -> "QuantumCircuit":
        return self.append(IGate(), [qubit])

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.append(XGate(), [qubit])

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.append(YGate(), [qubit])

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.append(ZGate(), [qubit])

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.append(HGate(), [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.append(SGate(), [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(SdgGate(), [qubit])

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.append(TGate(), [qubit])

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(TdgGate(), [qubit])

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self.append(SXGate(), [qubit])

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(RXGate([theta]), [qubit])

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(RYGate([theta]), [qubit])

    def rz(self, phi: float, qubit: int) -> "QuantumCircuit":
        return self.append(RZGate([phi]), [qubit])

    def p(self, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append(PhaseGate([lam]), [qubit])

    def u1(self, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append(U1Gate([lam]), [qubit])

    def u2(self, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append(U2Gate([phi, lam]), [qubit])

    def u3(
        self, theta: float, phi: float, lam: float, qubit: int
    ) -> "QuantumCircuit":
        return self.append(U3Gate([theta, phi, lam]), [qubit])

    # -- multi-qubit gate builders --------------------------------------
    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(CXGate(), [control, target])

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(CYGate(), [control, target])

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(CZGate(), [control, target])

    def ch(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(CHGate(), [control, target])

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append(SwapGate(), [qubit_a, qubit_b])

    def crz(self, phi: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(CRZGate([phi]), [control, target])

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(CPhaseGate([lam]), [control, target])

    def ccx(self, c1: int, c2: int, target: int) -> "QuantumCircuit":
        return self.append(CCXGate(), [c1, c2, target])

    def cswap(self, control: int, t1: int, t2: int) -> "QuantumCircuit":
        return self.append(CSwapGate(), [control, t1, t2])

    def mcx(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        return self.append(MCXGate(len(controls)), [*controls, target])

    def unitary(
        self, matrix: np.ndarray, qubits: Sequence[int], label: Optional[str] = None
    ) -> "QuantumCircuit":
        return self.append(UnitaryGate(matrix, label=label), qubits)

    # -- non-unitary operations -----------------------------------------
    def barrier(self, *qubits: int) -> "QuantumCircuit":
        targets = list(qubits) if qubits else list(range(self.num_qubits))
        return self.append(Barrier(len(targets)), targets)

    def measure(self, qubit: int, clbit: int) -> "QuantumCircuit":
        return self.append(Measure(), [qubit], [clbit])

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit into a matching classical register."""
        if self.num_clbits < self.num_qubits:
            self.num_clbits = self.num_qubits
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def gates(self) -> List[Instruction]:
        """Unitary instructions only, program order."""
        return [inst for inst in self._instructions if inst.is_gate]

    def size(self) -> int:
        """Number of unitary gates (barriers/measures excluded)."""
        return sum(1 for inst in self._instructions if inst.is_gate)

    def count_ops(self) -> Counter:
        """Histogram of operation names (including measures/barriers)."""
        return Counter(inst.name for inst in self._instructions)

    def depth(self, include_measures: bool = False) -> int:
        """Circuit depth: longest qubit-wise chain of gates.

        Barriers synchronise the qubits they cover but do not count as a
        layer themselves (matching Qiskit's default depth semantics).
        """
        level: Dict[int, int] = {q: 0 for q in range(self.num_qubits)}
        clevel: Dict[int, int] = {c: 0 for c in range(self.num_clbits)}
        depth = 0
        for inst in self._instructions:
            if inst.is_barrier:
                sync = max((level[q] for q in inst.qubits), default=0)
                for q in inst.qubits:
                    level[q] = sync
                continue
            if inst.is_measure and not include_measures:
                continue
            start = max(level[q] for q in inst.qubits)
            if inst.clbits:
                start = max(start, max(clevel[c] for c in inst.clbits))
            new = start + 1
            for q in inst.qubits:
                level[q] = new
            for c in inst.clbits:
                clevel[c] = new
            depth = max(depth, new)
        return depth

    def active_qubits(self) -> Set[int]:
        """Qubits touched by at least one non-barrier operation."""
        used: Set[int] = set()
        for inst in self._instructions:
            if not inst.is_barrier:
                used.update(inst.qubits)
        return used

    def has_measurements(self) -> bool:
        return any(inst.is_measure for inst in self._instructions)

    def two_qubit_gate_count(self) -> int:
        """Number of gates acting on two or more qubits."""
        return sum(
            1 for inst in self.gates() if len(inst.qubits) >= 2
        )

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        out = QuantumCircuit(self.num_qubits, self.num_clbits, name or self.name)
        out._instructions = list(self._instructions)
        return out

    def compose(
        self,
        other: "QuantumCircuit",
        qubits: Optional[Sequence[int]] = None,
    ) -> "QuantumCircuit":
        """Return ``self`` followed by *other* as a new circuit.

        *qubits* maps the other circuit's qubit ``i`` onto
        ``qubits[i]`` of this circuit (identity when omitted).
        Measurements in *other* are carried over when the classical
        registers line up.
        """
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if len(qubits) != other.num_qubits:
            raise ValueError("qubit map length must match other.num_qubits")
        out = self.copy()
        if other.num_clbits > out.num_clbits:
            out.num_clbits = other.num_clbits
        mapping = {i: int(q) for i, q in enumerate(qubits)}
        for inst in other:
            out._check_qubits([mapping[q] for q in inst.qubits])
            out._instructions.append(inst.remap(mapping))
        return out

    def inverse(self) -> "QuantumCircuit":
        """Return the adjoint circuit (gates inverted, order reversed)."""
        out = QuantumCircuit(self.num_qubits, self.num_clbits, f"{self.name}_dg")
        for inst in reversed(self._instructions):
            if inst.is_measure:
                raise ValueError("cannot invert a circuit with measurements")
            if inst.is_barrier:
                out._instructions.append(inst)
                continue
            out._instructions.append(
                Instruction(inst.operation.inverse(), inst.qubits)
            )
        return out

    def remove_final_measurements(self) -> "QuantumCircuit":
        """Return a copy without any measurement instructions."""
        out = QuantumCircuit(self.num_qubits, 0, self.name)
        out._instructions = [
            inst for inst in self._instructions if not inst.is_measure
        ]
        return out

    def remap_qubits(
        self, mapping: Dict[int, int], num_qubits: Optional[int] = None
    ) -> "QuantumCircuit":
        """Return a copy with qubit *mapping* applied.

        *mapping* must cover every active qubit.  The resulting register
        size defaults to ``max(mapping.values()) + 1``.
        """
        if num_qubits is None:
            num_qubits = max(mapping.values(), default=-1) + 1
        out = QuantumCircuit(num_qubits, self.num_clbits, self.name)
        for inst in self._instructions:
            out._instructions.append(inst.remap(mapping))
            out._check_qubits(out._instructions[-1].qubits)
        return out

    def repeat(self, reps: int) -> "QuantumCircuit":
        """Return this circuit repeated *reps* times."""
        if reps < 0:
            raise ValueError("repetition count must be non-negative")
        out = QuantumCircuit(self.num_qubits, self.num_clbits, self.name)
        for _ in range(reps):
            out._instructions.extend(self._instructions)
        return out

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_instructions(
        cls,
        instructions: Iterable[Instruction],
        num_qubits: int,
        num_clbits: int = 0,
        name: Optional[str] = None,
    ) -> "QuantumCircuit":
        out = cls(num_qubits, num_clbits, name)
        out.extend(instructions)
        return out

    def draw(self) -> str:
        """ASCII rendering (delegates to :mod:`repro.circuits.drawer`)."""
        from .drawer import draw_circuit

        return draw_circuit(self)
