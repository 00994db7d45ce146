"""Random gate insertion into empty slots (paper Algorithm 1).

The obfuscator walks the circuit's layer grid looking for *empty
positions* — (layer, qubit) cells holding no gate — and drops random
self-inverse gates into them.  Following the paper:

* the gate pool is {X, CX} for arithmetic/reversible benchmarks and
  {H} for Grover-style circuits (Sec. V-A, "tailored insertion");
* a coin flip chooses CX when a free qubit pair exists, else X;
* insertion never adds a layer, so circuit depth is unchanged;
* for every random gate ``g`` (the ``R`` member) its inverse is placed
  in the *immediately preceding* layer on the same qubits (the ``R†``
  member).  Self-inverse pairs in adjacent free cells cancel exactly,
  so the full obfuscated circuit ``R†RC`` is functionally identical to
  ``C`` while the compiler-visible segment ``RC`` (pairs split across
  the interlocking boundary) is corrupted.

The returned :class:`InsertionResult` tracks the role of every
instruction (original / R / R†) — the splitter consumes this to force
each pair across the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.dag import circuit_layers
from ..circuits.gates import CXGate, CZGate, Gate, HGate, XGate
from ..circuits.grid import OccupancyGrid
from ..circuits.instruction import Instruction

__all__ = ["InsertionResult", "InsertedPair", "check_gate_pool",
           "insert_random_pairs", "ROLE_ORIGINAL", "ROLE_R", "ROLE_RDG"]

ROLE_ORIGINAL = "original"
ROLE_R = "r"
ROLE_RDG = "rdg"

_SELF_INVERSE_POOL: Dict[str, Gate] = {
    "x": XGate(),
    "h": HGate(),
    "cx": CXGate(),
    "cz": CZGate(),
}


@dataclass
class InsertedPair:
    """One random gate and its cancelling partner."""

    gate_name: str
    qubits: Tuple[int, ...]
    rdg_layer: int  # earlier layer (R† member)
    r_layer: int  # later layer (R member)
    rdg_index: int = -1  # instruction indices in the obfuscated circuit
    r_index: int = -1


@dataclass
class InsertionResult:
    """Obfuscated circuit with per-instruction role bookkeeping."""

    original: QuantumCircuit
    obfuscated: QuantumCircuit  # R† R C interleaved, depth-preserving
    roles: List[str]  # parallel to obfuscated.instructions
    pairs: List[InsertedPair] = field(default_factory=list)

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    @property
    def num_inserted_gates(self) -> int:
        """R gates only — the count the paper reports in Table I."""
        return len(self.pairs)

    def rc_circuit(self) -> QuantumCircuit:
        """The obfuscated circuit *without* R† — i.e. ``RC``.

        This is what a compiler holding only the second segment could
        reconstruct, and the circuit whose TVD the paper's Figure 4
        reports as "obfuscated".
        """
        out = QuantumCircuit(
            self.obfuscated.num_qubits,
            self.obfuscated.num_clbits,
            f"{self.original.name}_rc",
        )
        out.extend(
            inst
            for inst, role in zip(self.obfuscated, self.roles)
            if role != ROLE_RDG
        )
        return out

    def r_instructions(self) -> List[Instruction]:
        return [
            inst
            for inst, role in zip(self.obfuscated, self.roles)
            if role == ROLE_R
        ]

    def rdg_instructions(self) -> List[Instruction]:
        return [
            inst
            for inst, role in zip(self.obfuscated, self.roles)
            if role == ROLE_RDG
        ]

    def indices_with_role(self, role: str) -> List[int]:
        return [i for i, r in enumerate(self.roles) if r == role]


def _resolve_rng(
    seed: Optional[Union[int, np.random.Generator]]
) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _window_capacity(grid: OccupancyGrid, earlier: int) -> List[int]:
    """Qubits free in both layers of window (earlier, earlier+1)."""
    later = earlier + 1
    return [
        q
        for q in range(grid.num_qubits)
        if grid.is_free(earlier, q) and grid.is_free(later, q)
    ]


def check_gate_pool(gate_pool: Sequence[str]) -> None:
    """Refuse a pool naming a gate outside the self-inverse pool."""
    for name in gate_pool:
        if name not in _SELF_INVERSE_POOL:
            raise ValueError(
                f"gate_pool entry {name!r} is not in the self-inverse pool "
                f"{sorted(_SELF_INVERSE_POOL)}"
            )


def insert_random_pairs(
    circuit: QuantumCircuit,
    gate_limit: int = 4,
    seed: Optional[Union[int, np.random.Generator]] = None,
    gate_pool: Sequence[str] = ("x", "cx"),
    cx_probability: float = 0.5,
    window: Optional[int] = None,
) -> InsertionResult:
    """Algorithm 1: insert up to *gate_limit* random pairs into empty slots.

    *gate_limit* bounds the number of R gates (each brings one R†
    partner).  *gate_pool* follows the paper's tailoring: ``("x","cx")``
    for arithmetic benchmarks, ``("h",)`` for Grover-style circuits.

    All pairs share one adjacent-layer *window* ``(t, t+1)`` — R†
    members fill column ``t``, R members column ``t+1`` (the two-band
    structure of the paper's Figure 2).  A shared window guarantees the
    DAG admits a cut with every R† on the left and every R on the
    right, which the interlocking splitter requires; pairs at spread-out
    layers can create R -> R† dependency paths that make such a cut
    impossible.  The actual number inserted can be lower than the limit
    when the window offers too few free cells — exactly the behaviour
    behind the per-benchmark insertion-count differences in Table I.
    """
    check_gate_pool(gate_pool)
    if gate_limit < 0:
        raise ValueError("gate_limit must be non-negative")
    rng = _resolve_rng(seed)
    grid = OccupancyGrid(circuit)
    layers = circuit_layers(circuit)
    extra: List[List[Tuple[Instruction, str]]] = [
        [] for _ in range(max(grid.num_layers, 1))
    ]
    pairs: List[InsertedPair] = []

    two_qubit_pool = [
        g for g in gate_pool if _SELF_INVERSE_POOL[g].num_qubits == 2
    ]
    one_qubit_pool = [
        g for g in gate_pool if _SELF_INVERSE_POOL[g].num_qubits == 1
    ]

    if window is None:
        window = _choose_window(grid, rng)
    if window is not None and gate_limit > 0:
        if not 0 <= window < grid.num_layers - 1:
            raise ValueError(
                f"window {window} out of range for "
                f"{grid.num_layers}-layer circuit"
            )
        free = _window_capacity(grid, window)
        rng.shuffle(free)
        added = 0
        while added < gate_limit and free:
            use_two = (
                bool(two_qubit_pool)
                and len(free) >= 2
                and (not one_qubit_pool or rng.random() < cx_probability)
            )
            if use_two:
                q1, q2 = free.pop(), free.pop()
                if rng.random() < 0.5:
                    q1, q2 = q2, q1
                gate = _SELF_INVERSE_POOL[
                    two_qubit_pool[int(rng.integers(len(two_qubit_pool)))]
                ]
                qubits: Tuple[int, ...] = (q1, q2)
            elif one_qubit_pool:
                gate = _SELF_INVERSE_POOL[
                    one_qubit_pool[int(rng.integers(len(one_qubit_pool)))]
                ]
                qubits = (free.pop(),)
            else:
                break
            _commit_pair(grid, extra, pairs, gate, qubits, window, window + 1)
            added += 1

    obfuscated = QuantumCircuit(
        circuit.num_qubits, circuit.num_clbits, f"{circuit.name}_obf"
    )
    roles: List[str] = []
    for layer_index, layer in enumerate(layers):
        # R† members first within a layer, then originals, then R —
        # ordering inside a layer is irrelevant (disjoint qubits) but
        # this keeps drawings tidy
        inserted_here = extra[layer_index] if layer_index < len(extra) else []
        for inst, role in inserted_here:
            if role == ROLE_RDG:
                obfuscated.extend([inst])
                roles.append(role)
        for inst in layer:
            obfuscated.extend([inst])
            roles.append(ROLE_ORIGINAL)
        for inst, role in inserted_here:
            if role == ROLE_R:
                obfuscated.extend([inst])
                roles.append(role)

    result = InsertionResult(circuit, obfuscated, roles, pairs)
    _assign_pair_indices(result)
    return result


def _choose_window(
    grid: OccupancyGrid, rng: np.random.Generator
) -> Optional[int]:
    """Pick the shared insertion window, weighted by free capacity.

    Prefers windows with more simultaneously-free qubits so larger
    circuits receive more random gates — the trend visible across the
    rows of Table I.
    """
    capacities = [
        len(_window_capacity(grid, earlier))
        for earlier in range(max(grid.num_layers - 1, 0))
    ]
    total = sum(capacities)
    if total == 0:
        return None
    weights = np.asarray(capacities, dtype=float) / total
    return int(rng.choice(len(capacities), p=weights))


def _commit_pair(
    grid: OccupancyGrid,
    extra: List[List[Tuple[Instruction, str]]],
    pairs: List[InsertedPair],
    gate: Gate,
    qubits: Tuple[int, ...],
    earlier: int,
    later: int,
) -> None:
    grid.mark(earlier, qubits)
    grid.mark(later, qubits)
    extra[earlier].append((Instruction(gate, qubits), ROLE_RDG))
    extra[later].append((Instruction(gate, qubits), ROLE_R))
    pairs.append(
        InsertedPair(
            gate_name=gate.name,
            qubits=qubits,
            rdg_layer=earlier,
            r_layer=later,
        )
    )


def _assign_pair_indices(result: InsertionResult) -> None:
    """Fill rdg_index / r_index of each pair from the built circuit."""
    # match pairs to instruction indices greedily in program order
    unmatched_rdg = {
        i: None for i in result.indices_with_role(ROLE_RDG)
    }
    unmatched_r = {i: None for i in result.indices_with_role(ROLE_R)}
    for pair in result.pairs:
        for index in list(unmatched_rdg):
            inst = result.obfuscated[index]
            if (
                inst.qubits == pair.qubits
                and inst.operation.name == pair.gate_name
            ):
                pair.rdg_index = index
                del unmatched_rdg[index]
                break
        for index in list(unmatched_r):
            inst = result.obfuscated[index]
            if (
                inst.qubits == pair.qubits
                and inst.operation.name == pair.gate_name
                and index > pair.rdg_index
            ):
                pair.r_index = index
                del unmatched_r[index]
                break
        if pair.rdg_index < 0 or pair.r_index < 0:  # pragma: no cover
            raise AssertionError("pair bookkeeping failed")
