"""Composable transpilation passes.

The monolithic :func:`~repro.transpiler.transpile.transpile` pipeline is
decomposed into explicit passes over a shared :class:`PropertySet`, in
the style of data-centric pass/transformation compilers: **analysis
passes** inspect the circuit and record properties (layouts, swap
counts); **transformation passes** rewrite the circuit.  Optimisation
levels become *pass schedules* (:func:`preset_schedule`), which makes
the pipeline composable, cacheable (see :mod:`repro.transpiler.cache`)
and measurable — :meth:`PassManager.run` records per-pass wall time in
``properties["pass_timings"]``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from .basis import translate_to_basis
from .coupling import CouplingMap
from .layout import Layout, greedy_layout, trivial_layout
from .optimization import (
    cancel_inverse_pairs,
    fuse_single_qubit_runs,
    remove_identities,
)
from .routing import route_circuit

__all__ = [
    "PropertySet",
    "BasePass",
    "AnalysisPass",
    "TransformationPass",
    "PassManager",
    "TranslateToBasis",
    "GreedyLayoutPass",
    "TrivialLayoutPass",
    "SetLayout",
    "PadToDevice",
    "FullLayout",
    "RoutePass",
    "RemoveIdentitiesPass",
    "CancelInversePairsPass",
    "FuseSingleQubitRunsPass",
    "optimization_passes",
    "preset_schedule",
]


class PropertySet(dict):
    """Shared analysis state flowing between passes.

    A plain ``dict`` with attribute-style sugar; the conventional keys
    written by the preset schedules are ``coupling``, ``layout``,
    ``initial_layout``, ``final_layout``, ``swap_count`` and
    ``pass_timings``.
    """

    def __getattr__(self, name: str):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


class BasePass:
    """One unit of transpilation work.

    Subclass :class:`AnalysisPass` (reads the circuit, writes
    properties, returns ``None``) or :class:`TransformationPass`
    (returns the rewritten circuit).  ``name`` labels the pass in
    timing reports; it defaults to the class name.
    """

    @property
    def name(self) -> str:
        return type(self).__name__.removesuffix("Pass") or type(self).__name__

    def run(
        self, circuit: QuantumCircuit, properties: PropertySet
    ) -> Optional[QuantumCircuit]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class AnalysisPass(BasePass):
    """A pass that inspects the circuit and records properties only."""

    is_analysis = True


class TransformationPass(BasePass):
    """A pass that rewrites the circuit (and may record properties)."""

    is_analysis = False


class PassManager:
    """Run a schedule of passes over a circuit, timing each one.

    Per-pass wall times accumulate in ``properties["pass_timings"]``
    (an insertion-ordered ``{pass name: seconds}`` dict; repeated
    passes accumulate under one entry).
    """

    def __init__(self, passes: Sequence[BasePass] = ()) -> None:
        self._passes: List[BasePass] = list(passes)

    @property
    def passes(self) -> Tuple[BasePass, ...]:
        return tuple(self._passes)

    def append(self, pass_: BasePass) -> "PassManager":
        self._passes.append(pass_)
        return self

    def run(
        self,
        circuit: QuantumCircuit,
        properties: Optional[PropertySet] = None,
    ) -> Tuple[QuantumCircuit, PropertySet]:
        props = properties if properties is not None else PropertySet()
        timings: Dict[str, float] = props.setdefault("pass_timings", {})
        for pass_ in self._passes:
            start = time.perf_counter()
            out = pass_.run(circuit, props)
            elapsed = time.perf_counter() - start
            timings[pass_.name] = timings.get(pass_.name, 0.0) + elapsed
            if out is not None:
                circuit = out
        return circuit, props

    def __len__(self) -> int:
        return len(self._passes)

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self._passes)
        return f"PassManager([{names}])"


# ---------------------------------------------------------------------------
# concrete passes
# ---------------------------------------------------------------------------
class TranslateToBasis(TransformationPass):
    """Lower every gate to the {id, u1, u2, u3, cx} device basis."""

    def run(self, circuit, properties):
        return translate_to_basis(circuit)


class GreedyLayoutPass(AnalysisPass):
    """Interaction-aware initial placement -> ``properties["layout"]``."""

    @property
    def name(self) -> str:
        return "GreedyLayout"

    def run(self, circuit, properties):
        properties["layout"] = greedy_layout(circuit, properties["coupling"])
        return None


class TrivialLayoutPass(AnalysisPass):
    """Identity placement ``v -> v`` -> ``properties["layout"]``."""

    @property
    def name(self) -> str:
        return "TrivialLayout"

    def run(self, circuit, properties):
        properties["layout"] = trivial_layout(circuit.num_qubits)
        return None


class SetLayout(AnalysisPass):
    """Pin a user-supplied (already validated) partial layout."""

    def __init__(self, layout: Layout) -> None:
        self.layout = layout

    def run(self, circuit, properties):
        properties["layout"] = self.layout
        return None


class PadToDevice(TransformationPass):
    """Widen the circuit with idle wires to the device qubit count."""

    def run(self, circuit, properties):
        coupling: CouplingMap = properties["coupling"]
        padded = QuantumCircuit(
            coupling.num_qubits, circuit.num_clbits, circuit.name
        )
        padded.extend(circuit.instructions)
        return padded


class FullLayout(AnalysisPass):
    """Extend ``properties["layout"]`` to a bijection over all physical
    qubits.

    Padded virtual wires (idle qubits added to match the device size)
    take the remaining physical qubits in ascending order; this keeps
    every layout invertible, which the verification and stitching
    logic relies on.
    """

    def run(self, circuit, properties):
        coupling: CouplingMap = properties["coupling"]
        mapping = properties["layout"].to_dict()
        used_physical = set(mapping.values())
        free_physical = iter(
            p for p in range(coupling.num_qubits) if p not in used_physical
        )
        for v in range(coupling.num_qubits):
            if v not in mapping:
                mapping[v] = next(free_physical)
        properties["layout"] = Layout(mapping)
        return None


class RoutePass(TransformationPass):
    """Insert SWAPs so every two-qubit gate is on coupled qubits.

    Records ``initial_layout``, ``final_layout`` and ``swap_count``.
    """

    @property
    def name(self) -> str:
        return "Route"

    def run(self, circuit, properties):
        routed = route_circuit(
            circuit,
            properties["coupling"],
            initial_layout=properties["layout"],
        )
        properties["initial_layout"] = routed.initial_layout
        properties["final_layout"] = routed.final_layout
        properties["swap_count"] = routed.swap_count
        return routed.circuit


class RemoveIdentitiesPass(TransformationPass):
    def run(self, circuit, properties):
        return remove_identities(circuit)


class CancelInversePairsPass(TransformationPass):
    def run(self, circuit, properties):
        return cancel_inverse_pairs(circuit)


class FuseSingleQubitRunsPass(TransformationPass):
    def run(self, circuit, properties):
        return fuse_single_qubit_runs(circuit)


# ---------------------------------------------------------------------------
# preset schedules
# ---------------------------------------------------------------------------
def optimization_passes(level: int) -> List[BasePass]:
    """The optimisation tail of a schedule for *level*.

    level 0: none; level 1: identity removal + inverse-pair
    cancellation; level >= 2: additionally fuse 1-qubit runs.
    """
    if level <= 0:
        return []
    passes: List[BasePass] = [
        RemoveIdentitiesPass(),
        CancelInversePairsPass(),
    ]
    if level >= 2:
        passes.append(FuseSingleQubitRunsPass())
        passes.append(CancelInversePairsPass())
    return passes


def preset_schedule(
    optimization_level: int = 1,
    layout_method: str = "greedy",
    initial_layout: Optional[Layout] = None,
) -> List[BasePass]:
    """The full device-compilation schedule behind ``transpile``.

    Layout selection runs on the *lowered, unpadded* circuit (idle
    padding wires carry no interactions and must take the leftover
    physical qubits in ascending order), then the circuit is padded,
    the layout completed, the circuit routed, inserted SWAPs lowered,
    and the optimisation tail for *optimization_level* applied.
    """
    layout_pass: BasePass
    if initial_layout is not None:
        layout_pass = SetLayout(initial_layout)
    elif layout_method == "greedy":
        layout_pass = GreedyLayoutPass()
    elif layout_method == "trivial":
        layout_pass = TrivialLayoutPass()
    else:
        raise ValueError(f"unknown layout method {layout_method!r}")
    return [
        TranslateToBasis(),
        layout_pass,
        PadToDevice(),
        FullLayout(),
        RoutePass(),
        TranslateToBasis(),  # lower inserted SWAPs
        *optimization_passes(optimization_level),
    ]
