"""Virtual-to-physical qubit layouts.

A :class:`Layout` is a bijection between the virtual qubits of a logical
circuit and (a subset of) the physical qubits of a device.  The router
mutates a layout as it inserts SWAPs; the transpile result exposes both
the initial and the final layout so split segments can be stitched back
together during de-obfuscation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..circuits.circuit import QuantumCircuit
from .coupling import CouplingMap

__all__ = ["Layout", "trivial_layout", "greedy_layout"]


class Layout:
    """Bijective ``virtual -> physical`` mapping."""

    def __init__(self, mapping: Dict[int, int]) -> None:
        mapping = {int(v): int(p) for v, p in mapping.items()}
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("layout is not injective")
        self._v2p = dict(mapping)
        self._p2v = {p: v for v, p in mapping.items()}

    # ------------------------------------------------------------------
    @property
    def virtual_qubits(self) -> List[int]:
        return sorted(self._v2p)

    @property
    def physical_qubits(self) -> List[int]:
        return sorted(self._p2v)

    def physical(self, virtual: int) -> int:
        return self._v2p[virtual]

    def virtual(self, physical: int) -> Optional[int]:
        return self._p2v.get(physical)

    def to_dict(self) -> Dict[int, int]:
        return dict(self._v2p)

    def copy(self) -> "Layout":
        return Layout(self._v2p)

    # ------------------------------------------------------------------
    def swap_physical(self, a: int, b: int) -> None:
        """Record a SWAP of physical qubits *a* and *b*."""
        va, vb = self._p2v.get(a), self._p2v.get(b)
        if va is not None:
            self._v2p[va] = b
        if vb is not None:
            self._v2p[vb] = a
        self._p2v.pop(a, None)
        self._p2v.pop(b, None)
        if va is not None:
            self._p2v[b] = va
        if vb is not None:
            self._p2v[a] = vb

    def compose_permutation(self, other: "Layout") -> Dict[int, int]:
        """Physical permutation sending this layout onto *other*.

        Returns ``{p_from: p_to}`` such that the virtual qubit sitting on
        ``p_from`` here sits on ``p_to`` under *other*.
        """
        permutation: Dict[int, int] = {}
        for v, p_from in self._v2p.items():
            if v in other._v2p:
                permutation[p_from] = other._v2p[v]
        return permutation

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self._v2p == other._v2p

    def __repr__(self) -> str:
        pairs = ", ".join(f"{v}->{p}" for v, p in sorted(self._v2p.items()))
        return f"Layout({pairs})"


def trivial_layout(num_virtual: int) -> Layout:
    """Identity layout ``v -> v``."""
    return Layout({v: v for v in range(num_virtual)})


def greedy_layout(circuit: QuantumCircuit, coupling: CouplingMap) -> Layout:
    """Interaction-aware initial placement.

    Virtual qubits are sorted by two-qubit interaction degree and placed
    one at a time onto the free physical qubit that minimises total
    distance to the already-placed interaction partners; ties prefer
    high-degree physical qubits.  A small, deterministic stand-in for
    Qiskit's dense/SABRE layouts.
    """
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits; device has "
            f"{coupling.num_qubits}"
        )
    # interaction multigraph over virtual qubits
    weights: Dict[tuple, int] = {}
    for inst in circuit.gates():
        qubits = inst.qubits
        for i in range(len(qubits)):
            for j in range(i + 1, len(qubits)):
                key = tuple(sorted((qubits[i], qubits[j])))
                weights[key] = weights.get(key, 0) + 1
    degree = {v: 0 for v in range(circuit.num_qubits)}
    for (a, b), w in weights.items():
        degree[a] += w
        degree[b] += w
    order = sorted(range(circuit.num_qubits), key=lambda v: -degree[v])

    placed: Dict[int, int] = {}
    free = set(range(coupling.num_qubits))
    for v in order:
        partners = [
            (other, w)
            for (a, b), w in weights.items()
            for other in ((b,) if a == v else (a,) if b == v else ())
            if other in placed
        ]
        best_p, best_cost = None, None
        for p in sorted(free):
            cost = sum(
                w * coupling.distance(p, placed[other])
                for other, w in partners
            )
            # prefer central (high-degree) physical qubits on ties
            key = (cost, -coupling.degree(p), p)
            if best_cost is None or key < best_cost:
                best_cost, best_p = key, p
        placed[v] = best_p
        free.discard(best_p)
    return Layout(placed)
