"""SWAP-insertion routing.

Maps a logical circuit onto a device coupling map: two-qubit gates on
non-adjacent physical qubits are preceded by SWAPs that walk one
operand along a shortest path towards the other.  A one-gate-lookahead
cost tie-break keeps the walker on paths that help upcoming gates — a
deterministic, dependency-free stand-in for Qiskit's stochastic/SABRE
routers, adequate for the ≤12-qubit circuits of the evaluation.

Routing operates on *physical* circuits: the output circuit has
``coupling.num_qubits`` qubits and every gate acts on adjacent pairs.
The evolving :class:`~repro.transpiler.layout.Layout` records where
each virtual qubit ends up (needed to stitch split segments together).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import SwapGate
from .coupling import CouplingMap
from .layout import Layout

__all__ = ["route_circuit", "RoutingResult"]


class RoutingResult:
    """Physical circuit plus the layouts before and after routing."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        initial_layout: Layout,
        final_layout: Layout,
        swap_count: int,
    ) -> None:
        self.circuit = circuit
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        self.swap_count = swap_count

    def __repr__(self) -> str:
        return (
            f"RoutingResult(size={self.circuit.size()}, "
            f"swaps={self.swap_count})"
        )


def _upcoming_cost(
    pending: List[Tuple[int, int]], layout: Layout, coupling: CouplingMap
) -> int:
    """Total distance of the next few two-qubit gates under *layout*."""
    cost = 0
    for a, b in pending:
        cost += coupling.distance(layout.physical(a), layout.physical(b))
    return cost


def route_circuit(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Optional[Layout] = None,
    lookahead: int = 3,
) -> RoutingResult:
    """Insert SWAPs so every multi-qubit gate is on coupled qubits.

    *circuit* must contain only 1- and 2-qubit gates (run the basis
    translator or :func:`~repro.synth.decompose.expand_mcx_gates`
    first).  *initial_layout* defaults to the identity; de-obfuscation
    passes the previous segment's final layout here to pin wires.
    """
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits; device offers "
            f"{coupling.num_qubits}"
        )
    if initial_layout is None:
        initial_layout = Layout({v: v for v in range(circuit.num_qubits)})
    layout = initial_layout.copy()

    # upcoming two-qubit interactions for the lookahead tie-break
    future_pairs: List[List[Tuple[int, int]]] = []
    pairs_after: List[Tuple[int, int]] = []
    for inst in reversed(circuit.instructions):
        if inst.is_gate and len(inst.qubits) == 2:
            pairs_after = [
                (inst.qubits[0], inst.qubits[1]),
                *pairs_after[: lookahead - 1],
            ]
        future_pairs.append(list(pairs_after))
    future_pairs.reverse()

    routed = QuantumCircuit(
        coupling.num_qubits, circuit.num_clbits, circuit.name
    )
    swap_count = 0

    for index, inst in enumerate(circuit.instructions):
        if inst.is_barrier:
            routed.barrier(
                *[layout.physical(q) for q in inst.qubits]
            )
            continue
        if inst.is_measure:
            routed.measure(layout.physical(inst.qubits[0]), inst.clbits[0])
            continue
        qubits = inst.qubits
        if len(qubits) == 1:
            routed.append(inst.operation, [layout.physical(qubits[0])])
            continue
        if len(qubits) > 2:
            raise ValueError(
                f"router only handles <=2-qubit gates, got {inst.name} on "
                f"{qubits}"
            )
        virtual_a, virtual_b = qubits
        # walk a towards b along a shortest path
        while True:
            phys_a = layout.physical(virtual_a)
            phys_b = layout.physical(virtual_b)
            if coupling.is_adjacent(phys_a, phys_b):
                break
            path = coupling.shortest_path(phys_a, phys_b)
            # candidate swaps: advance from either end; pick the one
            # that minimises upcoming-gate distance
            candidates = [(path[0], path[1]), (path[-1], path[-2])]
            best = None
            for swap_a, swap_b in candidates:
                trial = layout.copy()
                trial.swap_physical(swap_a, swap_b)
                cost = _upcoming_cost(
                    future_pairs[index], trial, coupling
                )
                key = (cost, swap_a, swap_b)
                if best is None or key < best[0]:
                    best = (key, (swap_a, swap_b))
            swap_a, swap_b = best[1]
            routed.append(SwapGate(), [swap_a, swap_b])
            layout.swap_physical(swap_a, swap_b)
            swap_count += 1
        routed.append(
            inst.operation,
            [layout.physical(virtual_a), layout.physical(virtual_b)],
        )
    return RoutingResult(routed, initial_layout, layout, swap_count)
