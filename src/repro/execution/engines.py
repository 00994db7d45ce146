"""Built-in engine adapters bridging the simulator layer to the registry.

Each adapter is a thin stateless wrapper: capability checks live in
``supports`` and construction details (seeding, fusion, chunking) in
``run``.  The heavy lifting stays in :mod:`repro.simulator`, which all
three engines share through :mod:`repro.simulator.kernels`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from ..simulator.counts import Counts
from ..simulator.density import DensityMatrixSimulator
from ..simulator.trajectory import TrajectorySimulator, measures_are_terminal
from .registry import register_engine

__all__ = [
    "DensityEngine",
    "StatevectorEngine",
    "TrajectoryEngine",
]

Seed = Optional[Union[int, np.random.Generator]]


def _is_noisy(noise_model: Optional[NoiseModel]) -> bool:
    return noise_model is not None and not noise_model.is_trivial()


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
        fuse: str = "full",
        chunk_size: Optional[int] = None,
    ) -> Counts:
        # chunk_size is accepted (callers thread it through every
        # engine) but inert: one evolution + one sampling, no
        # trajectory ensemble
        if _is_noisy(noise_model):
            raise ValueError(
                "statevector engine is noiseless; use 'trajectory' "
                "or 'density' for noisy circuits"
            )
        if not measures_are_terminal(circuit):
            raise ValueError(
                "statevector engine needs terminal measurements; use "
                "the 'trajectory' engine for mid-circuit measurement"
            )
        return TrajectorySimulator(None, seed, fuse=fuse).run(circuit, shots)


@register_engine
class TrajectoryEngine:
    """The trajectory ensemble: every shot sampled through the
    noise-bound plan, all shots evolved together in chunked tensors.

    The workhorse for every noisy circuit (the Table I / Figure 4
    suites) and the only mid-circuit-measurement engine.  Noiseless
    terminal circuits take the statevector fast path.
    """

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
        fuse: str = "full",
        chunk_size: Optional[int] = None,
    ) -> Counts:
        return TrajectorySimulator(
            noise_model, seed, fuse=fuse, chunk_size=chunk_size
        ).run(circuit, shots)


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
        fuse: str = "full",
        chunk_size: Optional[int] = None,
    ) -> Counts:
        # chunk_size is inert: exact evolution has no trajectory
        # ensemble
        return DensityMatrixSimulator(noise_model, fuse=fuse).run(
            circuit, shots, seed=seed
        )
