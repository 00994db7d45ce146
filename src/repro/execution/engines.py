"""Built-in engine adapters bridging the simulator layer to the registry.

Each adapter is a thin stateless wrapper: capability checks live in
``supports`` and construction details (seeding, dtype) in ``run``.  The
heavy lifting stays in :mod:`repro.simulator`, which all four engines
share through :mod:`repro.simulator.kernels`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from ..simulator.batched import BatchedTrajectorySimulator
from ..simulator.counts import Counts
from ..simulator.density import DensityMatrixSimulator
from ..simulator.trajectory import TrajectorySimulator, measures_are_terminal
from .registry import register_engine

__all__ = [
    "BatchedEngine",
    "DensityEngine",
    "StatevectorEngine",
    "TrajectoryEngine",
]

Seed = Optional[Union[int, np.random.Generator]]


def _is_noisy(noise_model: Optional[NoiseModel]) -> bool:
    return noise_model is not None and not noise_model.is_trivial()


def wants_reduced_precision(dtype) -> bool:
    """True when *dtype* asks for anything below complex128.

    The single precision-policy predicate — auto-dispatch
    (:func:`repro.execution.api.select_engine`) and the engines'
    own validation must agree on it.
    """
    return dtype is not None and np.dtype(dtype) != np.dtype(np.complex128)


def _require_full_precision(name: str, dtype) -> None:
    if wants_reduced_precision(dtype):
        raise ValueError(
            f"engine {name!r} computes in complex128 only; reduced "
            "precision is available on the batched engine for "
            "terminal-measurement circuits"
        )


@register_engine
class StatevectorEngine:
    """Single statevector evolution + multinomial sampling.

    The fastest route for noiseless circuits whose measurements are all
    terminal: one evolution regardless of the shot count.
    """

    name = "statevector"

    def supports(
        self,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
    ) -> bool:
        return not _is_noisy(noise_model) and measures_are_terminal(circuit)

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        *,
        noise_model: Optional[NoiseModel] = None,
        seed: Seed = None,
        dtype=None,
        fuse: str = "full",
        chunk_size: Optional[int] = None,
    ) -> Counts:
        # chunk_size is accepted (callers thread it through every
        # engine) but inert: one evolution + one sampling, no
        # trajectory ensemble
        _require_full_precision(self.name, dtype)
        if _is_noisy(noise_model):
            raise ValueError(
                "statevector engine is noiseless; use 'batched', "
                "'trajectory' or 'density' for noisy circuits"
            )
        if not measures_are_terminal(circuit):
            raise ValueError(
                "statevector engine needs terminal measurements; use "
                "the 'trajectory' engine for mid-circuit measurement"
            )
        return TrajectorySimulator(None, seed, fuse=fuse).run(circuit, shots)


@register_engine
class TrajectoryEngine:
    """Per-shot quantum trajectories in complex128; the only
    mid-circuit-measurement engine."""

    name = "trajectory"

    def supports(
        self,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
    ) -> bool:
        return True

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        *,
        noise_model: Optional[NoiseModel] = None,
        seed: Seed = None,
        dtype=None,
        fuse: str = "full",
        chunk_size: Optional[int] = None,
    ) -> Counts:
        _require_full_precision(self.name, dtype)
        return TrajectorySimulator(
            noise_model, seed, fuse=fuse, chunk_size=chunk_size
        ).run(circuit, shots)


@register_engine
class BatchedEngine:
    """All trajectories in one ``(shots, 2, ..., 2)`` tensor.

    The workhorse for noisy terminal-measurement circuits (the Table I
    / Figure 4 suites).  The only engine with a precision knob:
    *dtype* complex64 (default) or complex128.
    """

    name = "batched"

    def supports(
        self,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
    ) -> bool:
        return measures_are_terminal(circuit)

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        *,
        noise_model: Optional[NoiseModel] = None,
        seed: Seed = None,
        dtype=None,
        fuse: str = "full",
        chunk_size: Optional[int] = None,
    ) -> Counts:
        if wants_reduced_precision(dtype) and not measures_are_terminal(
            circuit
        ):
            # the mid-circuit fallback is the per-shot complex128
            # engine — honouring the request silently is a lie
            raise ValueError(
                "reduced precision needs terminal measurements; "
                "mid-circuit measurement runs per-shot in complex128"
            )
        sim = BatchedTrajectorySimulator(
            noise_model,
            seed,
            dtype=np.complex64 if dtype is None else np.dtype(dtype),
            fuse=fuse,
            chunk_size=chunk_size,
        )
        return sim.run(circuit, shots)


@register_engine
class DensityEngine:
    """Exact density-matrix evolution, sampled at the end.

    ``4^n`` memory — never auto-selected; request it explicitly with
    ``method="density"`` for exact mixed-state runs.  Measurement
    mapping uses measure-all semantics over every qubit.
    """

    name = "density"

    def supports(
        self,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
    ) -> bool:
        return measures_are_terminal(circuit)

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        *,
        noise_model: Optional[NoiseModel] = None,
        seed: Seed = None,
        dtype=None,
        fuse: str = "full",
        chunk_size: Optional[int] = None,
    ) -> Counts:
        # chunk_size is inert: exact evolution has no trajectory
        # ensemble
        _require_full_precision(self.name, dtype)
        return DensityMatrixSimulator(noise_model, fuse=fuse).run(
            circuit, shots, seed=seed
        )
