"""Baseline: cascading split compilation (Saki et al., ICCAD 2021).

The prior-work scheme TetrisLock improves on: the circuit is cut at
*straight* layer boundaries into two (or more) cascading sections, each
spanning the full qubit register, optionally separated by a random SWAP
network that the trusted user undoes at recombination time.

Weakness reproduced here (paper Sec. II-C and IV-C): both segments
expose the same qubit count, so colluding compilers can brute-force the
qubit correspondence in ``k_n * n!`` trials — feasible for NISQ sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.dag import layer_assignment

__all__ = ["SakiSplitResult", "saki_split", "swap_network_circuit"]


def swap_network_circuit(
    permutation: Dict[int, int], num_qubits: int
) -> QuantumCircuit:
    """SWAP gates moving the content of wire ``q`` to ``permutation[q]``.

    Uses a selection pass over target wires (at most ``n - 1`` SWAPs).
    """
    network = QuantumCircuit(num_qubits, name="swap_network")
    content = list(range(num_qubits))  # content[w] = logical label on w
    want = {permutation.get(q, q): q for q in range(num_qubits)}
    for wire in range(num_qubits):
        desired = want.get(wire, wire)
        if content[wire] == desired:
            continue
        source = content.index(desired)
        network.swap(wire, source)
        content[wire], content[source] = content[source], content[wire]
    return network


@dataclass
class SakiSplitResult:
    """A straight two-way cascading split with optional swap network."""

    original: QuantumCircuit
    segment1: QuantumCircuit  # includes the swap network when enabled
    segment2: QuantumCircuit  # issued on permuted wires when enabled
    cut_layer: int
    permutation: Optional[Dict[int, int]] = None

    @property
    def qubit_counts(self) -> Tuple[int, int]:
        return (self.segment1.num_qubits, self.segment2.num_qubits)

    def recombined(self) -> QuantumCircuit:
        """Concatenate the segments and undo the swap network."""
        out = self.segment1.copy(name=f"{self.original.name}_restored")
        out.extend(self.segment2.instructions)
        if self.permutation:
            inverse = {p: q for q, p in self.permutation.items()}
            out.extend(
                swap_network_circuit(
                    inverse, self.original.num_qubits
                ).instructions
            )
        return out


def saki_split(
    circuit: QuantumCircuit,
    cut_layer: Optional[int] = None,
    swap_network: bool = False,
    seed: Optional[Union[int, np.random.Generator]] = None,
) -> SakiSplitResult:
    """Split *circuit* at a straight layer boundary.

    Every qubit is cut at the same layer; both segments keep the full
    register width (the structural weakness the TetrisLock interlocking
    pattern removes).  With *swap_network* a random wire permutation is
    appended to segment 1 and segment 2 is issued on the permuted
    wires, mimicking the ICCAD'21 hardening; the permutation is undone
    by :meth:`SakiSplitResult.recombined` (it does not change the
    ``k_n * n!`` search space because it is itself a qubit bijection).
    """
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    layers = layer_assignment(circuit)
    depth = max(layers) + 1 if layers else 0
    if depth < 2:
        raise ValueError("circuit too shallow to split")
    if cut_layer is None:
        cut_layer = int(rng.integers(1, depth))
    if not 1 <= cut_layer < depth:
        raise ValueError(f"cut layer {cut_layer} outside [1, {depth})")

    seg1 = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_seg1")
    seg2 = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_seg2")
    for inst, layer in zip(circuit, layers):
        (seg1 if layer < cut_layer else seg2).extend([inst])

    permutation: Optional[Dict[int, int]] = None
    if swap_network:
        perm_list = rng.permutation(circuit.num_qubits)
        permutation = {q: int(p) for q, p in enumerate(perm_list)}
        seg1.extend(
            swap_network_circuit(
                permutation, circuit.num_qubits
            ).instructions
        )
        # content of virtual q now sits on wire permutation[q]; issue
        # segment 2 on those wires so concatenation lines up
        seg2 = seg2.remap_qubits(dict(permutation), circuit.num_qubits)
    return SakiSplitResult(
        original=circuit,
        segment1=seg1,
        segment2=seg2,
        cut_layer=cut_layer,
        permutation=permutation,
    )
