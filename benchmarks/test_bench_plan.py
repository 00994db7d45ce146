"""Compiled-execution-tier benchmarks: cold trace vs warm cache vs unfused.

Re-simulating one circuit (new shots / new seeds — the suite-runner and
service-coalescer workload) through a warm, fused plan beats the
unfused ``fuse="none"`` stream (one op per gate, the arithmetic of a
plain per-instruction loop) by >=2x, because fusion shrinks the op
stream itself.

``test_warm_plan_speedup_and_no_retrace`` pins that directly (>=2x,
zero re-traces on cache hits); the ``benchmark`` fixtures put the three
paths side by side in the comparison table.  Set ``REPRO_BENCH_SMOKE=1``
(the CI smoke job does) to shrink the workload.
"""

import os
import time

from repro.circuits import random_circuit
from repro.execution import build_plan, get_plan_cache, run
from repro.execution.plan_cache import PlanCache

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


def _repeat_run(circuit, **kwargs):
    counts = None
    for i in range(_REPS):
        counts = run(circuit, _SHOTS, seed=i, **kwargs)
    return counts


def test_bench_plan_cold_trace(benchmark):
    """Trace + lower from scratch (the cache-miss cost, no execution)."""
    circuit = _workload()

    def cold():
        return build_plan(circuit, "full")

    plan = benchmark(cold)
    assert plan.num_ops < plan.source_gates


def test_bench_plan_warm_cache(benchmark):
    """Repeated simulation through the warm plan cache (the default)."""
    circuit = _workload()
    run(circuit, _SHOTS, seed=0)  # warm the cache

    counts = benchmark(_repeat_run, circuit)
    assert counts.shots == _SHOTS


def test_bench_plan_unfused(benchmark):
    """One op per gate (``fuse="none"``) through a warm plan cache."""
    circuit = _workload()
    run(circuit, _SHOTS, seed=0, fuse="none")  # warm the cache

    counts = benchmark(_repeat_run, circuit, fuse="none")
    assert counts.shots == _SHOTS


def test_warm_plan_speedup_and_no_retrace():
    """>=2x warm fused over warm unfused, zero re-traces."""
    circuit = _workload()
    cache = get_plan_cache()
    run(circuit, _SHOTS, seed=0)  # ensure both plans are cached
    run(circuit, _SHOTS, seed=0, fuse="none")

    missed_before = cache.stats().misses
    start = time.perf_counter()
    warm_counts = _repeat_run(circuit)
    warm = time.perf_counter() - start
    stats = cache.stats()
    assert stats.misses == missed_before, "warm runs must never re-trace"
    assert stats.hits > 0

    start = time.perf_counter()
    unfused_counts = _repeat_run(circuit, fuse="none")
    unfused = time.perf_counter() - start

    # same distribution underneath: identical counts at pinned seeds
    assert dict(warm_counts) == dict(unfused_counts)
    assert unfused >= 2.0 * warm, (
        f"warm fused plan only {unfused / warm:.2f}x over the unfused "
        f"stream (warm {warm * 1e3:.1f}ms vs unfused "
        f"{unfused * 1e3:.1f}ms for {_REPS} run(s))"
    )


def test_cold_trace_amortised_by_first_run():
    """One trace must cost less than the simulation it accelerates —
    otherwise caching could never pay for itself."""
    circuit = _workload()
    # The very first trace in a process pays one-time warmup (gate-matrix
    # resolution, numpy first-touch) that no second circuit ever sees;
    # warm that up on a *different* circuit so we measure per-circuit cost.
    build_plan(random_circuit(3, 8, gate_pool=_POOL, seed=7), "full")

    def best_of(fn, rounds=3):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    cold = best_of(lambda: PlanCache(maxsize=4).plan_for(circuit))
    # a cold unfused run: trace at fuse="none" plus one execution
    cache = get_plan_cache()
    cache.enabled = False
    try:
        one_run = best_of(lambda: run(circuit, _SHOTS, seed=0, fuse="none"))
    finally:
        cache.enabled = True

    assert cold < one_run, (
        f"tracing ({cold * 1e3:.1f}ms) costs more than a cold unfused "
        f"run ({one_run * 1e3:.1f}ms)"
    )
