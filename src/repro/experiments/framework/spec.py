"""Declarative experiment specifications and their registry.

An :class:`ExperimentSpec` captures everything the grid runner needs
to execute an experiment end to end:

* a **config** — plain JSON-able dict of scientific parameters
  (iterations, shots, seed, benchmark subset, ...) with per-spec
  defaults.  Execution knobs (``jobs``, sharding, resume) are *not*
  part of the config: they never change a result, so they never change
  the config hash either.
* a **parameter grid** — ``make_cells(config)`` expands the config
  into an ordered list of :class:`Cell`\\ s, the atomic units of work.
  Cell order is part of the contract: per-cell seeds are spawned
  positionally from the root seed, so the grid must expand
  deterministically.
* a **task** — a pure, picklable function computing one cell.
* an **aggregator** and **renderer** turning the full cell-result map
  into the experiment's published artifact (a Table I dict, a TVD
  figure, ...).
* **encode/decode** hooks that round-trip one cell result through
  JSON for the persistent result store.

Registration is by module import: each harness module registers its
spec at import time, and :func:`get_spec` imports
:mod:`repro.experiments` on first use so the built-in specs are always
available — including inside process-pool workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

__all__ = [
    "Cell",
    "ExperimentSpec",
    "register",
    "unregister",
    "get_spec",
    "list_specs",
]


@dataclass(frozen=True)
class Cell:
    """One atomic unit of an experiment grid.

    *id* keys the cell in the result store (stable across runs);
    *params* carries whatever the task needs beyond the config.
    """

    id: str
    params: Mapping[str, Any] = field(default_factory=dict)


TaskFn = Callable[
    [Dict[str, Any], Cell, Optional[np.random.SeedSequence]], Any
]


def _identity(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: grid + task + aggregation + rendering."""

    name: str
    description: str
    defaults: Dict[str, Any]
    make_cells: Callable[[Dict[str, Any]], List[Cell]]
    task: TaskFn
    aggregate: Callable[[Dict[str, Any], Dict[str, Any]], Any]
    render: Callable[[Any], str]
    encode: Callable[[Any], Any] = _identity
    decode: Callable[[Any], Any] = _identity
    seeded: bool = True
    # checkpoint under another spec's store key when two specs share
    # cells + task + config (figure4 is a view over table1's grid);
    # shared-store specs always reuse existing cells and never
    # truncate the shared file
    store_as: Optional[str] = None

    @property
    def store_key(self) -> str:
        """Spec name the result store files live under."""
        return self.store_as or self.name

    def config(self, overrides: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Merge *overrides* into the spec defaults.

        Unknown keys are rejected so a typo'd parameter fails loudly
        instead of silently running the default grid, and so is a
        non-positive ``iterations``, which would aggregate empty cells.
        """
        config = dict(self.defaults)
        for key, value in (overrides or {}).items():
            if key not in config:
                raise ValueError(
                    f"unknown parameter {key!r} for experiment "
                    f"{self.name!r} (known: {', '.join(sorted(config))})"
                )
            config[key] = value
        if "iterations" in config and int(config["iterations"]) <= 0:
            raise ValueError(
                f"iterations must be positive, got {config['iterations']!r}"
            )
        return config


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add *spec* to the registry (idempotent re-registration)."""
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a spec (used by tests registering throwaway specs)."""
    _REGISTRY.pop(name, None)


def _ensure_builtin_specs() -> None:
    # importing the experiments package imports every harness module,
    # each of which registers its spec — also inside pool workers
    import repro.experiments  # noqa: F401


def get_spec(name: str) -> ExperimentSpec:
    """Look up a registered spec by name."""
    if name not in _REGISTRY:
        _ensure_builtin_specs()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r} "
            f"(registered: {', '.join(sorted(_REGISTRY)) or 'none'})"
        ) from None


def list_specs() -> List[ExperimentSpec]:
    """All registered specs, sorted by name."""
    _ensure_builtin_specs()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
