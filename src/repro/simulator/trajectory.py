"""Noiseless terminal-measurement sampling and the dispatch predicate.

A noiseless circuit whose measurements are all terminal is simulated
by one statevector evolution (:func:`terminal_distribution`) plus
multinomial sampling (:func:`sample_terminal_counts`), whatever the
shot count.  Everything else — noise, mid-circuit measurement — runs
through a noise plan: on the exact density engine
(:mod:`repro.simulator.density`) or the trajectory ensemble
(:mod:`repro.simulator.noisy`).  :func:`repro.execution.run` picks the
engine with :func:`measures_are_terminal` and the width/shots cost
rule of :func:`repro.execution.select_engine`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from .counts import Counts, counts_from_outcomes, remap_bits

__all__ = [
    "measures_are_terminal",
    "terminal_distribution",
    "sample_terminal_counts",
]


def terminal_distribution(
    circuit: QuantumCircuit,
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Final-state outcome distribution of a noiseless circuit.

    Evolves the statevector once (measures and barriers skipped) and
    returns the little-endian probability vector together with the
    ``(qubit, clbit)`` map of the circuit's measurements in program
    order — empty for an unmeasured circuit, which
    :func:`sample_terminal_counts` reads as measure-all.  This is the
    expensive half of the noiseless fast path; :func:`sample_terminal_counts`
    is the cheap half, so one evolution can serve many samplings —
    the service layer's request coalescer relies on exactly that split.

    The circuit runs through its cached, fused noise-free plan (see
    :mod:`repro.execution.noise_plan`).
    """
    from ..execution.plan_cache import get_plan

    plan = get_plan(circuit)
    n = circuit.num_qubits
    batch = np.zeros((1,) + (2,) * n, dtype=complex)
    batch[(0,) * (n + 1)] = 1.0
    tensor = plan.execute(batch)[0]
    # same little-endian flatten + |amp|^2 as
    # ``Statevector.probabilities``
    vec = tensor.transpose(tuple(reversed(range(n)))).reshape(-1)
    measured = []
    if circuit.has_measurements():
        # the plan reports an unmeasured circuit's qubits as (q, q)
        measured = [
            step[1:3] for step in plan.steps if step[0] == "measure"
        ] + [entry[:2] for entry in plan.entries]
    return (vec.conj() * vec).real.copy(), measured


def sample_terminal_counts(
    probs: np.ndarray,
    measured: List[Tuple[int, int]],
    num_qubits: int,
    num_clbits: int,
    shots: int,
    rng: np.random.Generator,
) -> Counts:
    """Sample a :class:`Counts` histogram from a final distribution.

    One ``rng.choice`` over the normalised distribution, then a
    vectorised gather of the measured bits: the noiseless path of
    :func:`repro.execution.run`, and the service coalescer's per-request
    sampling, which is therefore bit-identical to running alone.
    """
    outcomes = rng.choice(len(probs), size=shots, p=probs / probs.sum())
    if not measured:
        # measure-all semantics: every qubit reported
        return counts_from_outcomes(outcomes, num_qubits, shots=shots)
    mapped = remap_bits(outcomes, measured)
    return counts_from_outcomes(mapped, max(num_clbits, 1), shots=shots)


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
