"""Quantum circuit transpiler: basis translation, layout, routing,
optimisation — the "untrusted compiler" of the threat model."""

from .basis import BASIS_GATES, translate_instruction, translate_to_basis
from .cache import (
    CacheStats,
    TranspileCache,
    circuit_structural_hash,
    get_transpile_cache,
)
from .commutation import commutation_cancel, commutes
from .coupling import CouplingMap
from .euler import u3_angles, zyz_angles
from .layout import Layout, greedy_layout, trivial_layout
from .optimization import (
    cancel_inverse_pairs,
    fuse_single_qubit_runs,
    optimize_circuit,
    remove_identities,
)
from .passmanager import (
    AnalysisPass,
    BasePass,
    PassManager,
    PropertySet,
    TransformationPass,
    optimization_passes,
    preset_schedule,
)
from .routing import RoutingResult, route_circuit
from .transpile import (
    DEVICE_TARGETS,
    TranspileResult,
    routed_equivalent,
    transpile,
)

__all__ = [
    "transpile",
    "TranspileResult",
    "routed_equivalent",
    "DEVICE_TARGETS",
    "PassManager",
    "PropertySet",
    "BasePass",
    "AnalysisPass",
    "TransformationPass",
    "preset_schedule",
    "optimization_passes",
    "TranspileCache",
    "CacheStats",
    "get_transpile_cache",
    "circuit_structural_hash",
    "CouplingMap",
    "Layout",
    "trivial_layout",
    "greedy_layout",
    "route_circuit",
    "RoutingResult",
    "translate_to_basis",
    "translate_instruction",
    "BASIS_GATES",
    "optimize_circuit",
    "remove_identities",
    "cancel_inverse_pairs",
    "fuse_single_qubit_runs",
    "zyz_angles",
    "u3_angles",
    "commutes",
    "commutation_cancel",
]
