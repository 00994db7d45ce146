"""The single entry point every caller simulates through.

``run(circuit, shots)`` auto-dispatches to the fastest registered
engine that is valid for the request:

* noiseless circuit, terminal measurements -> ``statevector`` (one
  evolution + multinomial sampling, independent of the shot count);
* noisy circuit or mid-circuit measurement -> ``trajectory`` (the
  trajectory ensemble: per-shot channel sampling and collapse, all
  shots evolved in chunked tensors);
* ``method="density"`` on request -> exact mixed-state evolution.

Pass ``method=<engine name>`` to bypass dispatch.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from ..simulator.counts import Counts
from ..simulator.trajectory import measures_are_terminal
from .plan import FUSION_LEVELS
from .registry import get_engine

__all__ = ["run", "select_engine"]

Seed = Optional[Union[int, np.random.Generator]]


def select_engine(
    circuit: QuantumCircuit,
    *,
    noise_model: Optional[NoiseModel] = None,
) -> str:
    """Name of the engine auto-dispatch would pick for this request."""
    noisy = noise_model is not None and not noise_model.is_trivial()
    if noisy or not measures_are_terminal(circuit):
        return "trajectory"
    return "statevector"


def run(
    circuit: QuantumCircuit,
    shots: int = 1000,
    *,
    noise_model: Optional[NoiseModel] = None,
    method: str = "auto",
    seed: Seed = None,
    fuse: Optional[str] = None,
    chunk_size: Optional[int] = None,
) -> Counts:
    """Simulate *circuit* for *shots* and return its :class:`Counts`.

    Parameters
    ----------
    circuit:
        The circuit to execute.  Circuits without measurements use
        measure-all semantics (every qubit reported).
    shots:
        Number of samples (must be positive).
    noise_model:
        Optional :class:`~repro.noise.model.NoiseModel`; ``None`` or a
        trivial model selects the noiseless fast path.
    method:
        ``"auto"`` (default) picks the fastest valid engine; any name
        from :func:`~repro.execution.available_engines` forces that
        engine.
    seed:
        Integer seed or a shared :class:`numpy.random.Generator`.
    fuse:
        Fusion level for the plan tier: ``"full"`` (engine default),
        ``"1q"``, or ``"none"`` (one op per gate).  See
        :mod:`repro.execution.plan` for the determinism contract.
    chunk_size:
        Shots evolved per tensor chunk in the trajectory ensemble
        (default: whole batch, memory-capped).  Counts are independent
        of the chunk size for a fixed seed.

    ``fuse``/``chunk_size`` are forwarded to the engine only when set,
    so externally registered engines whose ``run`` takes neither keep
    working under default dispatch.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    if fuse is not None and fuse not in FUSION_LEVELS:
        raise ValueError(
            f"unknown fusion level {fuse!r}; expected one of "
            f"{', '.join(FUSION_LEVELS)}"
        )
    if chunk_size is not None and int(chunk_size) <= 0:
        raise ValueError("chunk_size must be positive")
    if method == "auto":
        method = select_engine(circuit, noise_model=noise_model)
    engine = get_engine(method)
    extra = {}
    if fuse is not None:
        extra["fuse"] = fuse
    if chunk_size is not None:
        extra["chunk_size"] = chunk_size
    return engine.run(
        circuit,
        shots,
        noise_model=noise_model,
        seed=seed,
        **extra,
    )
