"""Random circuit generation.

Two flavours are needed by the project:

* :func:`random_circuit` — generic random circuits over a configurable
  gate pool, used for property-based testing and for the Das/Ghosh
  random-insertion baseline (reversible pools of {X, CX, CCX}).
* :func:`random_reversible_circuit` — classical-reversible random
  circuits (NOT/CNOT/Toffoli only), matching the "random reversible
  gate-based obfuscation" of the related work the paper compares to.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .circuit import QuantumCircuit
from .gates import GATE_REGISTRY, gate_from_name

__all__ = ["random_circuit", "random_reversible_circuit", "DEFAULT_GATE_POOL"]

DEFAULT_GATE_POOL: List[str] = ["x", "y", "z", "h", "s", "t", "cx", "cz"]


def _shape(name: str) -> Tuple[int, int]:
    """Qubit and parameter counts of the pool gate *name*."""
    cls = GATE_REGISTRY.get(name.lower())
    if cls is None:  # mcxK, or a name gate_from_name refuses
        return gate_from_name(name).num_qubits, 0
    return cls.num_qubits, cls.num_params


def random_circuit(
    num_qubits: int,
    num_gates: int,
    gate_pool: Optional[Sequence[str]] = None,
    seed: Optional[Union[int, np.random.Generator]] = None,
    name: str = "random",
) -> QuantumCircuit:
    """Generate a random circuit from *gate_pool*.

    Each entry is a :func:`~repro.circuits.gates.gate_from_name` name
    (``mcxK`` included) whose gate states its arity; parameterised gates
    get angles drawn uniformly from ``[0, 2*pi)``.  Pools whose arity
    exceeds ``num_qubits`` raise :class:`ValueError`.
    """
    if num_qubits <= 0:
        raise ValueError("random circuits need at least one qubit")
    pool = list(gate_pool or DEFAULT_GATE_POOL)
    rng = np.random.default_rng(seed)  # a Generator passes through
    circuit = QuantumCircuit(num_qubits, name=name)
    for _ in range(num_gates):
        gate_name = pool[int(rng.integers(len(pool)))]
        arity, num_params = _shape(gate_name)
        if arity > num_qubits:
            raise ValueError(
                f"gate {gate_name!r} needs {arity} qubits, circuit has "
                f"{num_qubits}"
            )
        qubits = rng.choice(num_qubits, size=arity, replace=False).tolist()
        params = (rng.uniform(0, 2 * np.pi, size=num_params)).tolist()
        circuit.append(gate_from_name(gate_name, params), qubits)
    return circuit


def random_reversible_circuit(
    num_qubits: int,
    num_gates: int,
    seed: Optional[Union[int, np.random.Generator]] = None,
    include_toffoli: bool = True,
    name: str = "random_reversible",
) -> QuantumCircuit:
    """Random classical-reversible circuit over {X, CX, (CCX)}.

    This is the random-circuit family used by the insertion-based
    obfuscation baselines: purely classical reversible gates keep the
    obfuscated circuit inside the reversible-logic family of the RevLib
    benchmarks, reducing structural leakage.
    """
    pool = ["x", "cx"]
    if include_toffoli and num_qubits >= 3:
        pool.append("ccx")
    if num_qubits == 1:
        pool = ["x"]
    return random_circuit(num_qubits, num_gates, pool, seed=seed, name=name)
