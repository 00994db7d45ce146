"""Request coalescing: many simulate jobs, one statevector evolution.

Noiseless terminal-measurement simulation splits into an expensive,
request-independent half (evolving the statevector — cost grows with
circuit size, not shots) and a cheap per-request half (multinomial
sampling with the request's own seed).  When several queued jobs ask
for the same circuit (equal structural hash), the scheduler hands the
whole group to one worker call: the evolution runs once, then each
request samples independently.

Bit-identity: the per-request sampling is
:func:`repro.simulator.trajectory.sample_terminal_counts` seeded with
``np.random.default_rng(seed)`` — exactly what a solo
``execution.run(..., method="statevector", seed=seed)`` does — and the
shared distribution comes from the same gate stream, so a coalesced
job's counts are bit-for-bit those of an uncoalesced run.  Tests in
``tests/service/test_coalesce.py`` pin this down.

The evolution itself goes through the compiled-plan tier of
:mod:`repro.execution.plan` (the default ``terminal_distribution``
path), so repeat submissions of one circuit skip re-tracing even when
they arrive too far apart to coalesce — the plan cache is the
longer-lived layer under this scheduler-level batching.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

__all__ = ["execute_simulate_batch"]


def execute_simulate_batch(
    params_list: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Worker-side entry point for one coalesced simulate group.

    All entries are guaranteed compatible by the scheduler (equal
    circuit structural hash, noiseless, terminal measurements), so the
    first request's circuit stands in for all.
    """
    from ..simulator.trajectory import (
        sample_terminal_counts,
        terminal_distribution,
    )
    from .requests import prepare_circuit

    circuit = prepare_circuit(params_list[0]["qasm"])
    probs, measured = terminal_distribution(circuit)
    results = []
    for params in params_list:
        counts = sample_terminal_counts(
            probs,
            measured,
            circuit.num_qubits,
            circuit.num_clbits,
            params["shots"],
            np.random.default_rng(params["seed"]),
        )
        results.append(
            {
                "counts": counts.to_dict(),
                "engine": "statevector",
                "shots": counts.shots,
            }
        )
    return results
