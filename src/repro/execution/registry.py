"""Engine protocol and registry for the unified execution layer.

Engines are registered under a short name ("statevector",
"trajectory", ...) and looked up either explicitly
(``run(..., method="density")``)
or by the auto-dispatcher in :mod:`repro.execution.api`.  Third-party
engines (GPU, stabilizer, MPS) plug in through :func:`register_engine`
without touching any caller — the backend-dispatch idiom, applied to
simulation.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, Tuple, Union, runtime_checkable

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from ..simulator.counts import Counts

__all__ = [
    "SimulationEngine",
    "available_engines",
    "get_engine",
    "register_engine",
    "unregister_engine",
]


@runtime_checkable
class SimulationEngine(Protocol):
    """What the execution layer requires of a simulation engine.

    ``supports`` is a cheap static check used by auto-dispatch and by
    callers probing capabilities; ``run`` may still raise
    :class:`ValueError` for requests outside the engine's contract
    (e.g. a noise model on a noiseless engine).
    """

    name: str

    def supports(
        self,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
    ) -> bool:
        """True when the engine can execute *circuit* under *noise_model*."""
        ...

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        *,
        noise_model: Optional[NoiseModel] = None,
        seed: Optional[Union[int, np.random.Generator]] = None,
    ) -> Counts:
        """Execute *circuit* for *shots* and return the histogram."""
        ...


_ENGINES: Dict[str, SimulationEngine] = {}


def register_engine(
    engine: Optional[Union[SimulationEngine, type]] = None,
    *,
    name: Optional[str] = None,
    replace: bool = False,
) -> Union[SimulationEngine, type, Callable]:
    """Register an engine instance or class under its ``name``.

    Usable directly (``register_engine(MyEngine())``) or as a class
    decorator::

        @register_engine
        class MyEngine:
            name = "my-engine"
            ...

    Classes are instantiated with no arguments.  Registering a name
    twice raises unless ``replace=True`` (explicit overrides keep
    accidental shadowing loud).
    """

    def _register(obj):
        instance = obj() if isinstance(obj, type) else obj
        key = name or getattr(instance, "name", None)
        if not key:
            raise ValueError(
                "engine must define a non-empty 'name' (or pass name=...)"
            )
        if not replace and key in _ENGINES:
            raise ValueError(f"engine {key!r} is already registered")
        _ENGINES[key] = instance
        return obj

    if engine is None:
        return _register
    return _register(engine)


def unregister_engine(name: str) -> None:
    """Remove *name* from the registry (missing names are ignored)."""
    _ENGINES.pop(name, None)


def get_engine(name: str) -> SimulationEngine:
    """Look up a registered engine by name."""
    try:
        return _ENGINES[name]
    except KeyError:
        known = ", ".join(available_engines()) or "none"
        raise KeyError(
            f"unknown engine {name!r} (available: {known})"
        ) from None


def available_engines() -> Tuple[str, ...]:
    """Sorted names of every registered engine."""
    return tuple(sorted(_ENGINES))
