"""Shot-based simulation with optional noise (quantum trajectories).

For noiseless circuits with only terminal measurements, a single
statevector evolution plus multinomial sampling is used (fast path,
identical statistics).  With a :class:`~repro.noise.model.NoiseModel`
attached, or with mid-circuit measurement, every shot follows its own
trajectory through the trajectory ensemble
(:mod:`repro.simulator.noisy`), which evolves the shots in chunked
tensors: after each gate the bound Kraus channels are sampled,
measurements collapse the state, and readout errors flip the recorded
classical bits.

This mirrors how Qiskit Aer's statevector method executes the paper's
``FakeValencia`` experiments.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from .counts import Counts, counts_from_outcomes, remap_bits

__all__ = [
    "TrajectorySimulator",
    "measures_are_terminal",
    "run_counts",
    "terminal_distribution",
    "sample_terminal_counts",
]


def terminal_distribution(
    circuit: QuantumCircuit,
    *,
    fuse: str = "full",
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Final-state outcome distribution of a noiseless circuit.

    Evolves the statevector once (measures and barriers skipped) and
    returns the little-endian probability vector together with the
    ``(qubit, clbit)`` map of the terminal measurements.  This is the
    expensive half of the noiseless fast path; :func:`sample_terminal_counts`
    is the cheap half, so one evolution can serve many samplings —
    the service layer's request coalescer relies on exactly that split.

    The circuit runs through the cached, fused execution plan (see
    :mod:`repro.execution.plan`); ``fuse="none"`` applies one op per
    gate.
    """
    from ..execution.plan_cache import get_plan

    compiled = get_plan(circuit, fuse)
    n = circuit.num_qubits
    batch = np.zeros((1,) + (2,) * n, dtype=complex)
    batch[(0,) * (n + 1)] = 1.0
    tensor = compiled.execute(batch)[0]
    # same little-endian flatten + |amp|^2 as
    # ``Statevector.probabilities``
    vec = tensor.transpose(tuple(reversed(range(n)))).reshape(-1)
    return (vec.conj() * vec).real.copy(), list(compiled.measured)


def sample_terminal_counts(
    probs: np.ndarray,
    measured: List[Tuple[int, int]],
    num_qubits: int,
    num_clbits: int,
    shots: int,
    rng: np.random.Generator,
) -> Counts:
    """Sample a :class:`Counts` histogram from a final distribution.

    Draws are bit-identical to ``TrajectorySimulator._run_fast`` for
    the same *rng* state: same normalisation, same ``rng.choice`` call,
    same vectorised bit gather.
    """
    outcomes = rng.choice(len(probs), size=shots, p=probs / probs.sum())
    if not measured:
        # measure-all semantics: every qubit reported
        return counts_from_outcomes(outcomes, num_qubits, shots=shots)
    mapped = remap_bits(outcomes, measured)
    return counts_from_outcomes(mapped, max(num_clbits, 1), shots=shots)


class TrajectorySimulator:
    """Noisy (or ideal) shot sampler for quantum circuits."""

    def __init__(
        self,
        noise_model: Optional[NoiseModel] = None,
        seed: Optional[Union[int, np.random.Generator]] = None,
        *,
        fuse: str = "full",
        chunk_size: Optional[int] = None,
    ) -> None:
        """*fuse* sets the plan fusion level (see
        :mod:`repro.execution.plan`): the noiseless fast path uses
        fused noiseless plans, and the trajectory ensemble runs through
        cached noise-bound plans (:mod:`repro.execution.noise_plan`) in
        chunks of *chunk_size* shots.
        """
        if chunk_size is not None and int(chunk_size) <= 0:
            raise ValueError("chunk_size must be positive")
        self.noise_model = noise_model
        self.fuse = fuse
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        else:
            self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def run(self, circuit: QuantumCircuit, shots: int = 1000) -> Counts:
        """Execute *circuit* for *shots* and return the histogram.

        Circuits without measurements are treated as measure-all: the
        returned bitstrings cover every qubit.  Circuits with explicit
        measures report their classical register.
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        noiseless = self.noise_model is None or self.noise_model.is_trivial()
        if noiseless and measures_are_terminal(circuit):
            return self._run_fast(circuit, shots)
        return self._run_trajectories(circuit, shots)

    # ------------------------------------------------------------------
    def _run_fast(self, circuit: QuantumCircuit, shots: int) -> Counts:
        probs, measured = terminal_distribution(circuit, fuse=self.fuse)
        return sample_terminal_counts(
            probs,
            measured,
            circuit.num_qubits,
            circuit.num_clbits,
            shots,
            self._rng,
        )

    # ------------------------------------------------------------------
    def _run_trajectories(self, circuit: QuantumCircuit, shots: int) -> Counts:
        """Chunked tensor ensemble through the noise-bound plan tier.

        Every channel family and mid-circuit collapse is sampled per
        shot, with per-site seeding.  Derives one entropy integer from
        the simulator's generator so repeated ``run`` calls stay
        independent.
        """
        from ..execution.plan_cache import get_noise_plan
        from .noisy import run_noise_plan

        noise_plan = get_noise_plan(circuit, self.noise_model, self.fuse)
        entropy = int(self._rng.integers(0, 2 ** 63))
        return run_noise_plan(
            noise_plan, shots, entropy=entropy, chunk_size=self.chunk_size
        )


def measures_are_terminal(circuit: QuantumCircuit) -> bool:
    """True when no gate follows a measurement on any qubit.

    The execution layer's dispatch rule: noiseless terminal-measure
    circuits can be sampled from one final state (statevector engine);
    mid-circuit measurement forces per-shot collapse.
    """
    measured = set()
    for inst in circuit:
        if inst.is_measure:
            measured.add(inst.qubits[0])
        elif inst.is_gate and measured.intersection(inst.qubits):
            return False
    return True


def run_counts(
    circuit: QuantumCircuit,
    shots: int = 1000,
    noise_model: Optional[NoiseModel] = None,
    seed: Optional[Union[int, np.random.Generator]] = None,
) -> Counts:
    """One-call helper: simulate *circuit* and return its counts."""
    return TrajectorySimulator(noise_model, seed).run(circuit, shots)
