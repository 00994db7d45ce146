"""Vectorised (batched) trajectory simulation.

This engine keeps *all* shots in one ``(shots, 2, ..., 2)`` tensor and
applies each op once over the batch:

* noiseless circuits execute the fused plan stream
  (:mod:`repro.execution.plan`) on the whole batch, then sample one
  outcome per shot;
* noisy circuits run a cached noise-bound plan through the chunked
  ensemble executor (:mod:`repro.simulator.noisy`), which samples every
  channel family per shot;
* readout errors: vectorised bit flips on the sampled outcomes.

Restrictions: measurements must be terminal (no gate after a measure on
the same qubit); mid-circuit measurement falls back to
:class:`TrajectorySimulator`.  Property tests in ``tests/simulator``
check the ensemble against a per-shot reference sampler.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from .counts import Counts, counts_from_outcomes, remap_bits
from .trajectory import TrajectorySimulator, measures_are_terminal

__all__ = ["BatchedTrajectorySimulator", "run_counts_batched"]


class BatchedTrajectorySimulator:
    """Noisy shot sampler with all trajectories evolved in one tensor."""

    def __init__(
        self,
        noise_model: Optional[NoiseModel] = None,
        seed: Optional[Union[int, np.random.Generator]] = None,
        dtype: np.dtype = np.complex64,
        *,
        fuse: str = "full",
        chunk_size: Optional[int] = None,
    ) -> None:
        """*dtype* defaults to ``complex64``: the kernels are memory
        bound, so single precision halves the runtime, and its ~1e-7
        error is negligible against shot noise (1/sqrt(shots) ~ 3%).
        Pass ``numpy.complex128`` for full precision.

        *fuse* sets the plan fusion level (see
        :mod:`repro.execution.plan`).  Noiseless runs execute the
        fused op stream; noisy runs execute a cached noise-bound plan
        (:mod:`repro.execution.noise_plan`) through the chunked
        ensemble executor — channels resolved and classified at trace
        time, the noiseless spans between anchors fused.  *chunk_size*
        caps how many shots evolve per tensor (default: whole batch,
        memory-capped)."""
        if chunk_size is not None and int(chunk_size) <= 0:
            raise ValueError("chunk_size must be positive")
        self.noise_model = noise_model
        self.dtype = np.dtype(dtype)
        self.fuse = fuse
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        else:
            self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def run(self, circuit: QuantumCircuit, shots: int = 1000) -> Counts:
        from ..execution.plan_cache import get_plan

        if shots <= 0:
            raise ValueError("shots must be positive")
        if not measures_are_terminal(circuit):
            fallback = TrajectorySimulator(
                self.noise_model,
                self._rng,
                fuse=self.fuse,
                chunk_size=self.chunk_size,
            )
            return fallback.run(circuit, shots)
        if self.noise_model is not None and not self.noise_model.is_trivial():
            return self._run_noise_plan(circuit, shots)
        n = circuit.num_qubits
        batch = np.zeros((shots,) + (2,) * n, dtype=self.dtype)
        batch[(slice(None),) + (0,) * n] = 1.0
        compiled = get_plan(circuit, self.fuse)
        measured = list(compiled.measured)
        batch = compiled.execute(batch)
        outcomes = self._sample_outcomes(batch, n)
        outcomes = self._apply_readout(outcomes, n)
        return self._histogram(outcomes, measured, circuit, n, shots)

    # ------------------------------------------------------------------
    def _run_noise_plan(self, circuit: QuantumCircuit, shots: int) -> Counts:
        """Noisy terminal run through the chunked plan executor."""
        from ..execution.plan_cache import get_noise_plan
        from .noisy import run_noise_plan

        noise_plan = get_noise_plan(circuit, self.noise_model, self.fuse)
        entropy = int(self._rng.integers(0, 2 ** 63))
        return run_noise_plan(
            noise_plan,
            shots,
            entropy=entropy,
            dtype=self.dtype,
            chunk_size=self.chunk_size,
        )

    # ------------------------------------------------------------------
    def _sample_outcomes(self, batch: np.ndarray, n: int) -> np.ndarray:
        """Sample one little-endian basis index per shot."""
        shots = batch.shape[0]
        # reorder axes so flattening is little-endian (qubit 0 = LSB)
        axes = (0,) + tuple(range(n, 0, -1))
        probs = np.abs(batch.transpose(axes).reshape(shots, -1)) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        draws = self._rng.random(shots)
        cumulative = np.cumsum(probs, axis=1)
        outcomes = (draws[:, None] > cumulative).sum(axis=1)
        return np.minimum(outcomes, probs.shape[1] - 1)

    def _apply_readout(self, outcomes: np.ndarray, n: int) -> np.ndarray:
        if self.noise_model is None or not self.noise_model.has_readout_errors():
            return outcomes
        shots = outcomes.shape[0]
        for qubit in range(n):
            error = self.noise_model.readout_error(qubit)
            if error is None:
                continue
            bits = (outcomes >> qubit) & 1
            flip_probs = np.where(
                bits == 0, error.prob_1_given_0, error.prob_0_given_1
            )
            flips = self._rng.random(shots) < flip_probs
            outcomes = outcomes ^ (flips.astype(np.int64) << qubit)
        return outcomes

    def _histogram(
        self,
        outcomes: np.ndarray,
        measured: List[Tuple[int, int]],
        circuit: QuantumCircuit,
        n: int,
        shots: int,
    ) -> Counts:
        if measured:
            outcomes = remap_bits(outcomes, measured)
            width = max(circuit.num_clbits, 1)
        else:
            width = n
        return counts_from_outcomes(outcomes, width, shots=shots)


def run_counts_batched(
    circuit: QuantumCircuit,
    shots: int = 1000,
    noise_model: Optional[NoiseModel] = None,
    seed: Optional[Union[int, np.random.Generator]] = None,
) -> Counts:
    """One-call helper mirroring :func:`repro.simulator.run_counts`."""
    return BatchedTrajectorySimulator(noise_model, seed).run(circuit, shots)
