"""The transpilation pipeline.

``transpile`` plays the role of the untrusted third-party compiler in
the TetrisLock threat model: it sees one circuit (or one split
segment), lowers it to the backend basis, places and routes it onto the
device topology, and optimises.  The returned
:class:`TranspileResult` carries the initial and final layouts, which
the *trusted user* needs to pin the second segment's placement and to
read measurement outcomes — exactly the information flow of split
compilation.

Since the pass-manager refactor this function is a thin wrapper: it
resolves the target device, validates any layout pin, consults the
transpile cache (:mod:`repro.transpiler.cache`) and otherwise runs the
preset pass schedule for the requested optimisation level
(:func:`repro.transpiler.passmanager.preset_schedule`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Union

from ..circuits.circuit import QuantumCircuit
from ..noise.backend import Backend, valencia_like_backend
from .cache import (
    circuit_structural_hash,
    coupling_cache_key,
    get_transpile_cache,
    layout_cache_key,
)
from .coupling import CouplingMap
from .layout import Layout
from .passmanager import PassManager, PropertySet, preset_schedule

__all__ = [
    "transpile",
    "TranspileResult",
    "routed_equivalent",
    "DEVICE_TARGETS",
]

#: The named device targets of ``repro transpile`` and the service's
#: transpile jobs: each maps a device size to the ``backend`` or
#: ``coupling`` keyword of :func:`transpile`.
DEVICE_TARGETS: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "valencia": lambda size: {"backend": valencia_like_backend(size)},
    "line": lambda size: {"coupling": CouplingMap.line(size)},
    "ring": lambda size: {"coupling": CouplingMap.ring(size)},
    "full": lambda size: {"coupling": CouplingMap.full(size)},
}


class TranspileResult:
    """Compiled physical circuit plus layout bookkeeping."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        initial_layout: Layout,
        final_layout: Layout,
        coupling: CouplingMap,
        source_num_qubits: int,
        swap_count: int,
        pass_timings: Optional[Dict[str, float]] = None,
    ) -> None:
        self.circuit = circuit
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        self.coupling = coupling
        self.source_num_qubits = source_num_qubits
        self.swap_count = swap_count
        #: per-pass wall time of the compile that produced this result,
        #: in schedule order ({pass name: seconds})
        self.pass_timings: Dict[str, float] = dict(pass_timings or {})
        #: True when this result was served by the transpile cache
        self.from_cache = False

    @property
    def depth(self) -> int:
        return self.circuit.depth()

    @property
    def size(self) -> int:
        return self.circuit.size()

    @property
    def compile_seconds(self) -> float:
        """Total wall time across all passes of the original compile."""
        return sum(self.pass_timings.values())

    def virtual_output_qubit(self, virtual: int) -> int:
        """Physical wire carrying *virtual* at the end of the circuit."""
        return self.final_layout.physical(virtual)

    def __repr__(self) -> str:
        return (
            f"TranspileResult(size={self.size}, depth={self.depth}, "
            f"swaps={self.swap_count})"
        )


def _normalize_initial_layout(
    initial_layout: Union[Layout, Sequence[int]], num_physical: int
) -> Layout:
    """Validate a user-supplied layout pin and return it as a Layout.

    A sequence pins virtual qubit ``v`` to ``initial_layout[v]``.  Any
    duplicate, out-of-range physical qubit or over-long pin would
    otherwise surface deep inside the pipeline as a bare
    ``StopIteration`` (layout completion running out of free wires) or
    silent mis-routing — reject it here with a clear error instead.
    """
    if isinstance(initial_layout, Layout):
        mapping = initial_layout.to_dict()
    else:
        mapping = {v: int(p) for v, p in enumerate(initial_layout)}
    seen: Dict[int, int] = {}
    for v, p in sorted(mapping.items()):
        if not 0 <= v < num_physical:
            raise ValueError(
                f"initial_layout pins virtual qubit {v}, but the device "
                f"has only {num_physical} qubits"
            )
        if not 0 <= p < num_physical:
            raise ValueError(
                f"initial_layout assigns virtual qubit {v} to physical "
                f"qubit {p}, outside the device's {num_physical} qubits"
            )
        if p in seen:
            raise ValueError(
                f"initial_layout is not injective: physical qubit {p} is "
                f"assigned to virtual qubits {seen[p]} and {v}"
            )
        seen[p] = v
    return Layout(mapping)


def transpile(
    circuit: QuantumCircuit,
    backend: Optional[Backend] = None,
    coupling: Optional[CouplingMap] = None,
    initial_layout: Optional[Union[Layout, Sequence[int]]] = None,
    layout_method: str = "greedy",
    optimization_level: int = 1,
) -> TranspileResult:
    """Compile *circuit* for a device.

    Parameters
    ----------
    backend / coupling:
        Target device; give either a :class:`~repro.noise.backend.Backend`
        or a bare coupling map.  With neither, an all-to-all topology of
        the circuit's size is assumed (basis translation only).
    initial_layout:
        Pin virtual qubit ``v`` to physical ``initial_layout[v]``.
        Split compilation passes the previous segment's final layout
        here so segments concatenate without a stitching permutation.
    layout_method:
        ``"greedy"`` (interaction-aware) or ``"trivial"`` — ignored when
        *initial_layout* is given.
    optimization_level:
        0 (none) to 3 (aggressive 1-qubit fusion + cancellation).

    Every call goes through the per-process transpile cache
    (:func:`~repro.transpiler.cache.get_transpile_cache`); compilation
    is deterministic, so a hit is bit-identical to a fresh compile.
    Clear that cache for a cold compile.
    """
    if coupling is None:
        if backend is not None:
            coupling = CouplingMap(
                backend.coupling_edges, num_qubits=backend.num_qubits
            )
        else:
            coupling = CouplingMap.full(max(circuit.num_qubits, 1))
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits, device has "
            f"{coupling.num_qubits}"
        )
    pinned: Optional[Layout] = None
    if initial_layout is not None:
        pinned = _normalize_initial_layout(
            initial_layout, coupling.num_qubits
        )
    elif layout_method not in ("greedy", "trivial"):
        raise ValueError(f"unknown layout method {layout_method!r}")

    cache = get_transpile_cache()
    key = (
        circuit_structural_hash(circuit),
        coupling_cache_key(coupling),
        layout_cache_key(pinned),
        (layout_method, optimization_level),
    )
    cached = cache.lookup(key)
    if cached is not None:
        # the key is purely structural, so the hit may have been
        # stored under a different circuit name; a fresh compile
        # propagates the source name, so restore that here too
        cached.circuit.name = circuit.name
        return cached

    schedule = preset_schedule(
        optimization_level=optimization_level,
        layout_method=layout_method,
        initial_layout=pinned,
    )
    properties = PropertySet(coupling=coupling)
    physical, properties = PassManager(schedule).run(circuit, properties)

    result = TranspileResult(
        circuit=physical,
        initial_layout=properties["initial_layout"],
        final_layout=properties["final_layout"],
        coupling=coupling,
        source_num_qubits=circuit.num_qubits,
        swap_count=properties["swap_count"],
        pass_timings=properties["pass_timings"],
    )
    cache.store(key, result)
    return result


def routed_equivalent(
    logical: QuantumCircuit, result: TranspileResult, atol: float = 1e-6
) -> bool:
    """Check a transpile result against its logical source circuit.

    Validates ``U_phys = P_final . (U_logical ⊗ I) . P_initial^{-1}``
    with the layout permutations of the result.  Exponential in device
    size — test/diagnostic use only.
    """
    import numpy as np

    from ..simulator.unitary import (
        circuit_unitary,
        equal_up_to_global_phase,
        permutation_matrix,
    )

    num_physical = result.coupling.num_qubits
    padded = QuantumCircuit(num_physical)
    padded.extend(logical.remove_final_measurements().instructions)
    u_logical = circuit_unitary(padded)
    u_physical = circuit_unitary(result.circuit.remove_final_measurements())
    p_init = permutation_matrix(
        result.initial_layout.to_dict(), num_physical
    )
    p_final = permutation_matrix(
        result.final_layout.to_dict(), num_physical
    )
    expected = p_final @ u_logical @ p_init.conj().T
    return equal_up_to_global_phase(u_physical, expected, atol=atol)
