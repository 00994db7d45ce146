"""Reversible truth tables (bit-permutation functions).

A reversible function over n lines is a permutation of ``2^n`` basis
indices (little-endian bit order, consistent with the simulators).
Used to specify RevLib benchmark functions, verify reconstructed
circuits, and drive the transformation-based synthesiser.

:func:`reversible_table` simulates a circuit bit-sliced: one Python
int per line holds that line's value on every input, so each gate is
one or three big-int operations (the bit-slicing of Biham, "A fast new
DES implementation in software", FSE 1997), and the table is unpacked
into an array once, at the end.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

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

    The table is built bit-sliced: line ``q`` is one Python int whose
    bit ``x`` is the line's value on input ``x``, so a gate is one or
    three big-int operations over all ``2^n`` inputs at once.  An X,
    CX, Toffoli or MCT flips its target plane where every control plane
    is set; a (Fredkin-controlled) SWAP exchanges the two planes where
    they differ and the controls are set.  The planes are unpacked into
    the array once, at the end.
    """
    n = circuit.num_qubits
    planes = list(_identity_planes(n))
    every = (1 << (1 << n)) - 1  # every input
    for inst in circuit:
        if inst.is_barrier or inst.is_measure:
            continue
        op = inst.operation
        if not _reversible_gate(op):
            raise ValueError(
                f"gate {op.name!r} is not classical-reversible"
            )
        qubits = inst.qubits
        if op.name in ("swap", "cswap"):
            *controls, a, b = qubits
            flip = planes[a] ^ planes[b]
            for c in controls:
                flip &= planes[c]
            planes[a] ^= flip
            planes[b] ^= flip
        else:
            *controls, target = qubits
            flip = every
            for c in controls:
                flip &= planes[c]
            planes[target] ^= flip
    return _unpack(planes, n)


@lru_cache(maxsize=None)
def _identity_planes(n: int) -> Tuple[int, ...]:
    """The planes of the identity on *n* lines: bit ``x`` of plane
    ``q`` is bit ``q`` of ``x``."""
    inputs = np.arange(1 << n, dtype=np.int64)
    return tuple(_pack((inputs >> q) & 1) for q in range(n))


def _pack(bits: np.ndarray) -> int:
    """The int whose bit ``x`` is ``bits[x]``."""
    return int.from_bytes(
        np.packbits(bits.astype(np.uint8), bitorder="little").tobytes(),
        "little",
    )


def _unpack(planes: List[int], n: int) -> np.ndarray:
    """The table of *planes*: entry ``x`` gathers bit ``x`` of each."""
    size = 1 << n
    length = (size + 7) // 8
    data = b"".join(plane.to_bytes(length, "little") for plane in planes)
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8).reshape(n, length),
        axis=1, count=size, bitorder="little",
    )
    return (1 << np.arange(n, dtype=np.int64)) @ bits
