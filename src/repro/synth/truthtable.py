"""Reversible truth tables (bit-permutation functions).

A reversible function over n lines is a permutation of ``2^n`` basis
indices (little-endian bit order, consistent with the simulators).
Used to specify RevLib benchmark functions, verify reconstructed
circuits, and drive the transformation-based synthesiser.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import MCXGate

__all__ = [
    "TruthTable", "is_reversible", "reversible_table", "simulate_reversible"
]

_REVERSIBLE_NAMES = frozenset({"x", "cx", "ccx", "swap", "cswap"})


class TruthTable:
    """A permutation ``x -> table[x]`` over ``2^num_lines`` values."""

    def __init__(self, table: Sequence[int]) -> None:
        values = np.asarray(table, dtype=np.int64)
        size = len(values)
        num_lines = size.bit_length() - 1
        if 2 ** num_lines != size:
            raise ValueError("table length must be a power of two")
        if not np.array_equal(np.sort(values), np.arange(size)):
            raise ValueError("table is not a permutation")
        self.table: List[int] = values.tolist()
        self.num_lines = num_lines

    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, num_lines: int) -> "TruthTable":
        return cls(list(range(2 ** num_lines)))

    @classmethod
    def from_function(
        cls, func: Callable[[int], int], num_lines: int
    ) -> "TruthTable":
        """Build from a bijective int->int function on [0, 2^n)."""
        return cls([func(x) for x in range(2 ** num_lines)])

    # ------------------------------------------------------------------
    def __call__(self, value: int) -> int:
        return self.table[value]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return hash(tuple(self.table))

    def inverse(self) -> "TruthTable":
        out = [0] * len(self.table)
        for x, y in enumerate(self.table):
            out[y] = x
        return TruthTable(out)

    def compose(self, then: "TruthTable") -> "TruthTable":
        """``self`` followed by *then*."""
        if then.num_lines != self.num_lines:
            raise ValueError("line counts differ")
        return TruthTable([then.table[y] for y in self.table])

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.table))

    def fixed_points(self) -> int:
        return sum(1 for x, y in enumerate(self.table) if x == y)

    def hamming_cost(self) -> int:
        """Total Hamming distance between inputs and outputs."""
        return sum(bin(x ^ y).count("1") for x, y in enumerate(self.table))

    def output_bit(self, value: int, line: int) -> int:
        return (self.table[value] >> line) & 1

    def __repr__(self) -> str:
        return f"TruthTable(lines={self.num_lines})"


def _reversible_gate(op) -> bool:
    return isinstance(op, MCXGate) or op.name in _REVERSIBLE_NAMES


def is_reversible(circuit: QuantumCircuit) -> bool:
    """True when every gate is classical-reversible: the circuits
    :func:`reversible_table` accepts."""
    return all(
        _reversible_gate(inst.operation) for inst in circuit if inst.is_gate
    )


def simulate_reversible(circuit: QuantumCircuit) -> TruthTable:
    """Exact truth table of a classical-reversible circuit.

    Only NOT/CNOT/Toffoli/MCT/SWAP/Fredkin gates are allowed (names
    ``x``, ``cx``, ``ccx``, ``mcxK``, ``swap``, ``cswap``); anything else
    raises :class:`ValueError`.
    """
    return TruthTable(reversible_table(circuit))


def reversible_table(circuit: QuantumCircuit) -> np.ndarray:
    """:func:`simulate_reversible`'s table as an int64 array.

    Each gate is one array operation over all ``2^n`` entries — much
    faster than the statevector for pure reversible circuits.
    """
    table = np.arange(1 << circuit.num_qubits, dtype=np.int64)
    for inst in circuit:
        if inst.is_barrier or inst.is_measure:
            continue
        op = inst.operation
        qubits = inst.qubits
        if not _reversible_gate(op):
            raise ValueError(
                f"gate {op.name!r} is not classical-reversible"
            )
        if op.name in ("swap", "cswap"):
            controls, (a, b) = qubits[:-2], qubits[-2:]
            flip = (1 << a) | (1 << b)
            differ = ((table >> a) ^ (table >> b)) & 1
        else:
            controls, flip = qubits[:-1], 1 << qubits[-1]
            differ = 1
        mask = sum(1 << c for c in controls)
        table ^= (differ & (table & mask == mask)) * flip
    return table
