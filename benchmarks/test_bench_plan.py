"""Compiled-execution-tier benchmarks: cold trace vs warm cache vs unfused.

Re-simulating one circuit (new shots / new seeds — the suite-runner and
service-coalescer workload) through a warm, fused plan beats an unfused
per-instruction loop by >=2x, because fusion shrinks the op stream
itself.  The loop does the work an unfused plan would cache and run:
gate matrices resolved once, outside the timed region, then one
``contract_batch`` per non-identity gate and the same
``sample_terminal_counts`` as :func:`repro.execution.run`.

``test_warm_plan_speedup_and_no_retrace`` pins that directly (>=2x on
best-of-3 timings, zero re-traces on cache hits); the ``benchmark``
fixtures put the three paths side by side in the comparison table.  Set ``REPRO_BENCH_SMOKE=1``
(the CI smoke job does) to shrink the workload.
"""

import os
import time

import numpy as np

from repro.circuits import random_circuit
from repro.execution import build_noise_plan, get_plan_cache, run
from repro.execution.plan import TracedOp
from repro.execution.plan_cache import PlanCache
from repro.simulator.kernels import contract_batch
from repro.simulator.trajectory import sample_terminal_counts

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

_QUBITS = 12
_GATES = 120 if _SMOKE else 360
_SHOTS = 200 if _SMOKE else 1000
_REPS = 3 if _SMOKE else 10
_POOL = ["h", "x", "t", "s", "rz", "rx", "cx", "cz", "cp"]


def _workload():
    return random_circuit(
        _QUBITS, _GATES, gate_pool=_POOL, seed=42
    ).measure_all()


def _repeat_run(circuit):
    counts = None
    for i in range(_REPS):
        counts = run(circuit, _SHOTS, seed=i)
    return counts


def _unfused_ops(circuit):
    """``(matrix, qubits)`` per non-identity gate, and the measure map."""
    gates = [TracedOp.of(inst) for inst in circuit if inst.is_gate]
    ops = [(op.matrix, op.qubits) for op in gates if not op.identity]
    measured = [
        (inst.qubits[0], inst.clbits[0]) for inst in circuit if inst.is_measure
    ]
    return ops, measured


def _best_of(fn, rounds=3):
    """``(fastest wall time, last result)`` over *rounds* calls."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def _unfused_run(circuit, ops, measured, seed):
    """One op per gate, then the sampling :func:`run` does."""
    n = circuit.num_qubits
    batch = np.zeros((1,) + (2,) * n, dtype=complex)
    batch[(0,) * (n + 1)] = 1.0
    for matrix, qubits in ops:
        batch = contract_batch(batch, matrix, qubits)
    vec = batch[0].transpose(tuple(reversed(range(n)))).reshape(-1)
    return sample_terminal_counts(
        (vec.conj() * vec).real, measured, n, circuit.num_clbits, _SHOTS,
        np.random.default_rng(seed),
    )


def _repeat_unfused(circuit, ops, measured):
    counts = None
    for i in range(_REPS):
        counts = _unfused_run(circuit, ops, measured, i)
    return counts


def test_bench_plan_cold_trace(benchmark):
    """Trace + lower from scratch (the cache-miss cost, no execution)."""
    circuit = _workload()

    def cold():
        return build_noise_plan(circuit)

    plan = benchmark(cold)
    assert plan.num_spans == 1
    assert len(plan.steps[0][1]) < plan.source_gates


def test_bench_plan_warm_cache(benchmark):
    """Repeated simulation through the warm plan cache (the default)."""
    circuit = _workload()
    run(circuit, _SHOTS, seed=0)  # warm the cache

    counts = benchmark(_repeat_run, circuit)
    assert counts.shots == _SHOTS


def test_bench_plan_unfused(benchmark):
    """One op per gate, gate matrices resolved up front."""
    circuit = _workload()
    ops, measured = _unfused_ops(circuit)

    counts = benchmark(_repeat_unfused, circuit, ops, measured)
    assert counts.shots == _SHOTS


def test_warm_plan_speedup_and_no_retrace():
    """>=2x warm fused over the unfused loop, zero re-traces."""
    circuit = _workload()
    cache = get_plan_cache()
    run(circuit, _SHOTS, seed=0)  # ensure the plan is cached
    ops, measured = _unfused_ops(circuit)

    missed_before = cache.stats().misses
    warm, warm_counts = _best_of(lambda: _repeat_run(circuit))
    stats = cache.stats()
    assert stats.misses == missed_before, "warm runs must never re-trace"
    assert stats.hits > 0

    unfused, unfused_counts = _best_of(
        lambda: _repeat_unfused(circuit, ops, measured)
    )

    # same distribution underneath: identical counts at pinned seeds
    assert dict(warm_counts) == dict(unfused_counts)
    assert unfused >= 2.0 * warm, (
        f"warm fused plan only {unfused / warm:.2f}x over the unfused "
        f"loop (warm {warm * 1e3:.1f}ms vs unfused "
        f"{unfused * 1e3:.1f}ms for {_REPS} run(s))"
    )


def test_cold_trace_amortised_by_first_run():
    """One trace must cost less than the simulation it accelerates —
    otherwise caching could never pay for itself."""
    circuit = _workload()
    # The very first trace in a process pays one-time warmup (gate-matrix
    # resolution, numpy first-touch) that no second circuit ever sees;
    # warm that up on a *different* circuit so we measure per-circuit cost.
    build_noise_plan(random_circuit(3, 8, gate_pool=_POOL, seed=7))

    cold, _ = _best_of(lambda: PlanCache(maxsize=4).plan_for(circuit))
    # a cold unfused run: resolve the gate matrices, then one execution
    one_run, _ = _best_of(
        lambda: _unfused_run(circuit, *_unfused_ops(circuit), 0)
    )

    assert cold < one_run, (
        f"tracing ({cold * 1e3:.1f}ms) costs more than a cold unfused "
        f"run ({one_run * 1e3:.1f}ms)"
    )
