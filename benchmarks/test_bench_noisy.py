"""Noisy-path benchmark: the trajectory ensemble through the noise-plan cache.

A table1-style workload (12 qubits, 1000 shots) under the noise model
Table I cells run — the Valencia-like device's depolarizing∘thermal-
relaxation channels and readout errors, so the general-Kraus path is
on the clock — through the default noisy dispatch with a warm
noise-plan cache: tracing, channel classification and branch
pre-scaling happen once per (circuit, model) pair and whole
shot-chunks evolve as one ``(W, 2, ..., 2)`` tensor.

``test_batched_no_retrace`` pins that warm runs hit the cache and never
re-trace.  Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) to
shrink the workload.
"""

import os

from repro.circuits import QuantumCircuit
from repro.execution import get_noise_plan_cache, run
from repro.noise import valencia_like_backend

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

_QUBITS = 10 if _SMOKE else 12
_LAYERS = 4 if _SMOKE else 8
_SHOTS = 300 if _SMOKE else 1000


def _workload():
    """Alternating single-qubit layers + CX ladders, all qubits measured."""
    qc = QuantumCircuit(_QUBITS, _QUBITS)
    for layer in range(_LAYERS):
        for q in range(_QUBITS):
            if layer % 2 == 0:
                qc.h(q)
            else:
                qc.rz(0.1 * (layer + q + 1), q)
        for q in range(layer % 2, _QUBITS - 1, 2):
            qc.cx(q, q + 1)
    for q in range(_QUBITS):
        qc.measure(q, q)
    return qc


def _model():
    return valencia_like_backend(_QUBITS).noise_model()


def test_bench_noisy_batched_warm(benchmark):
    """Default noisy dispatch through a warm noise-plan cache."""
    circuit, model = _workload(), _model()
    run(circuit, _SHOTS, noise_model=model, seed=0)  # warm the cache

    counts = benchmark(run, circuit, _SHOTS, noise_model=model, seed=1)
    assert counts.shots == _SHOTS


def test_batched_no_retrace():
    """Warm runs hit the noise-plan cache and never re-trace."""
    circuit, model = _workload(), _model()
    cache = get_noise_plan_cache()
    run(circuit, _SHOTS, noise_model=model, seed=0)  # ensure plan cached

    missed_before = cache.stats().misses
    hits_before = cache.stats().hits
    run(circuit, _SHOTS, noise_model=model, seed=1)
    stats = cache.stats()
    assert stats.misses == missed_before, "warm runs must never re-trace"
    assert stats.hits > hits_before
