"""Transpile result caching.

Suite runs (Table I / Figure 4) re-compile the same benchmark circuits
every iteration; with a fixed seed even the obfuscated variants repeat
across passes.  Compilation is deterministic, so results can be reused:
the cache keys on ``(circuit structural hash, coupling, layout pin,
schedule)`` and stores deep-enough clones that a hit is bit-identical
to a fresh compile while remaining safe against callers mutating the
returned circuit or layouts.

The module-level singleton (:func:`get_transpile_cache`) is what
``transpile()`` consults; it is per-process (each worker of a parallel
suite run warms its own) and thread-safe (the pipelined split
compilation of :class:`~repro.core.deobfuscate.SplitCompilationFlow`
compiles from worker threads).
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple, TYPE_CHECKING

from .._hashing import new_digest
from .._lru import CacheStats, LRUCache
from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import UnitaryGate
from .coupling import CouplingMap
from .layout import Layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .transpile import TranspileResult

__all__ = [
    "circuit_structural_hash",
    "coupling_cache_key",
    "layout_cache_key",
    "CacheStats",
    "TranspileCache",
    "get_transpile_cache",
]


def circuit_structural_hash(circuit: QuantumCircuit) -> str:
    """Stable digest of a circuit's structure.

    Covers register sizes and, per instruction, the operation name,
    parameters, qubits and clbits; explicit-matrix gates hash their
    matrix bytes (their name may be a user label).  Equal circuits hash
    equal across processes (unlike ``hash()``, which is salted).
    """
    digest = new_digest(digest_size=16)
    digest.update(
        f"{circuit.num_qubits}|{circuit.num_clbits}\x1e".encode()
    )
    for inst in circuit.instructions:
        op = inst.operation
        digest.update(op.name.encode())
        digest.update(b"\x1f")
        params = getattr(op, "params", ())
        if params:
            digest.update(struct.pack(f"<{len(params)}d", *params))
        if isinstance(op, UnitaryGate):
            digest.update(op.matrix.tobytes())
        digest.update(struct.pack(f"<{len(inst.qubits)}i", *inst.qubits))
        if inst.clbits:
            digest.update(b"c")
            digest.update(
                struct.pack(f"<{len(inst.clbits)}i", *inst.clbits)
            )
        digest.update(b"\x1e")
    return digest.hexdigest()


def coupling_cache_key(coupling: CouplingMap) -> Tuple:
    """Hashable identity of a device topology."""
    return (coupling.num_qubits, tuple(coupling.edges()))


def layout_cache_key(layout: Optional[Layout]) -> Optional[Tuple]:
    """Hashable identity of a layout pin (``None`` when unpinned)."""
    if layout is None:
        return None
    return tuple(sorted(layout.to_dict().items()))


def _clone_result(result: "TranspileResult") -> "TranspileResult":
    """Independent copy of a transpile result.

    Circuits and layouts are mutable (callers append measurements,
    routers record swaps), so both directions of the cache go through a
    clone; instructions themselves are immutable and shared.
    """
    from .transpile import TranspileResult

    clone = TranspileResult(
        circuit=result.circuit.copy(),
        initial_layout=result.initial_layout.copy(),
        final_layout=result.final_layout.copy(),
        coupling=result.coupling,
        source_num_qubits=result.source_num_qubits,
        swap_count=result.swap_count,
        pass_timings=dict(result.pass_timings),
    )
    return clone


class TranspileCache(LRUCache):
    """Thread-safe LRU cache of :class:`TranspileResult` objects.

    Built on the shared :class:`~repro._lru.LRUCache` core; the copy
    policy is a deep-enough clone in both directions, and looked-up
    results are flagged ``from_cache``.
    """

    def __init__(self, maxsize: int = 512) -> None:
        super().__init__(maxsize)

    def _copy_in(self, result: "TranspileResult") -> "TranspileResult":
        return _clone_result(result)

    def _copy_out(self, entry: "TranspileResult") -> "TranspileResult":
        clone = _clone_result(entry)
        clone.from_cache = True
        return clone

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"TranspileCache(size={s.size}/{s.maxsize}, hits={s.hits}, "
            f"misses={s.misses})"
        )


_GLOBAL_CACHE = TranspileCache()


def get_transpile_cache() -> TranspileCache:
    """The per-process cache consulted by ``transpile()``."""
    return _GLOBAL_CACHE
