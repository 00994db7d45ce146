"""Transpiler benchmarks: pass schedules, cache hits, suite reuse.

The tentpole claim behind :mod:`repro.transpiler.cache` is that suite
runs (Table I / Figure 4) re-compile identical circuits every
iteration, so a cache keyed on circuit structure + device + layout pin
+ schedule turns the repeated compiles into lookups.  The benches pin
the per-compile speedup; ``test_cached_suite_pass_faster`` shows it
end-to-end: a second ``table1`` run over paper benchmarks (warm
cache) beats the first (cold cache) while producing bit-identical
aggregates.

Timing assertions use CPU time (``time.process_time``) and
minimum-over-trials, which is robust to machine noise; set
``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) to shrink the grid.
"""

import os
import time

from repro.experiments import run_experiment
from repro.noise import valencia_like_backend
from repro.revlib.benchmarks import benchmark_circuit
from repro.transpiler import get_transpile_cache, transpile

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
_SUITE_NAMES = ("rd53", "4gt11") if _SMOKE else ("rd53", "4gt11", "mini_alu")
_TRIALS = 2 if _SMOKE else 3
_ITERATIONS = 2 if _SMOKE else 3


def _table1(**config):
    return run_experiment("table1", config).result


def _cold_transpile(*args, **kwargs):
    """A fresh compile: the cache is emptied first."""
    get_transpile_cache().clear()
    return transpile(*args, **kwargs)


def test_bench_transpile_uncached(benchmark):
    qc = benchmark_circuit("rd53")
    backend = valencia_like_backend(qc.num_qubits)

    result = benchmark(
        _cold_transpile, qc, backend=backend, optimization_level=2
    )
    assert result.size > 0 and not result.from_cache


def test_bench_transpile_cached(benchmark):
    qc = benchmark_circuit("rd53")
    backend = valencia_like_backend(qc.num_qubits)
    get_transpile_cache().clear()
    transpile(qc, backend=backend, optimization_level=2)  # warm the cache

    result = benchmark(
        transpile, qc, backend=backend, optimization_level=2
    )
    assert result.from_cache


def test_cache_hit_much_faster_than_compile():
    """A hit must cost a small fraction of a fresh compile."""
    qc = benchmark_circuit("rd53")
    backend = valencia_like_backend(qc.num_qubits)
    get_transpile_cache().clear()

    def cpu_min(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.process_time()
            fn()
            best = min(best, time.process_time() - start)
        return best

    fresh = cpu_min(
        lambda: _cold_transpile(qc, backend=backend, optimization_level=2)
    )
    transpile(qc, backend=backend, optimization_level=2)
    hit = cpu_min(
        lambda: transpile(qc, backend=backend, optimization_level=2)
    )
    assert hit < fresh / 2, f"hit {hit*1e3:.2f}ms vs fresh {fresh*1e3:.2f}ms"


def test_cached_suite_pass_faster():
    """Second (warm-cache) suite pass beats the first, bit-identically.

    Cold and warm passes run the same seed, so every circuit of the
    warm pass — originals and obfuscated variants alike — is a cache
    hit.  Minimum CPU time over a few trials keeps the comparison
    stable; the aggregates must not change at all.
    """
    kwargs = dict(
        iterations=_ITERATIONS, shots=8, seed=11, benchmarks=_SUITE_NAMES
    )
    cache = get_transpile_cache()

    _table1(**kwargs)  # one warmup pass (imports, pools)

    cold_best = warm_best = float("inf")
    cold_results = warm_results = None
    # up to 3 extra trials absorb one-off scheduler/GC spikes: the
    # cached speedup is systematic, timing noise is not, so a genuine
    # regression still fails after every retry
    for trial in range(_TRIALS + 3):
        cache.clear()
        start = time.process_time()
        cold_results = _table1(**kwargs)
        cold_best = min(cold_best, time.process_time() - start)

        start = time.process_time()
        warm_results = _table1(**kwargs)
        warm_best = min(warm_best, time.process_time() - start)
        if trial + 1 >= _TRIALS and warm_best < cold_best:
            break

    stats = cache.stats()
    assert stats.hits > 0, "warm pass produced no cache hits"
    assert warm_best < cold_best, (
        f"warm {warm_best:.3f}s not faster than cold {cold_best:.3f}s"
    )

    # cache reuse must be invisible in the results
    for name in cold_results:
        for cold_it, warm_it in zip(
            cold_results[name].iterations, warm_results[name].iterations
        ):
            assert cold_it.counts_original == warm_it.counts_original
            assert cold_it.counts_obfuscated == warm_it.counts_obfuscated
            assert cold_it.counts_restored == warm_it.counts_restored


def test_bench_suite_pass_cold(benchmark):
    """End-to-end suite pass with a cold cache each round."""
    def cold_pass():
        get_transpile_cache().clear()
        return _table1(
            iterations=2, shots=8, seed=11, benchmarks=_SUITE_NAMES[:1]
        )

    results = benchmark(cold_pass)
    assert set(results) == {_SUITE_NAMES[0]}


def test_bench_suite_pass_warm(benchmark):
    """End-to-end suite pass against a fully warmed cache."""
    kwargs = dict(
        iterations=2, shots=8, seed=11, benchmarks=_SUITE_NAMES[:1]
    )
    get_transpile_cache().clear()
    _table1(**kwargs)

    results = benchmark(_table1, **kwargs)
    assert set(results) == {_SUITE_NAMES[0]}


def test_pass_timings_cover_schedule():
    """Every preset pass shows up in the timing report."""
    qc = benchmark_circuit("4mod5")
    backend = valencia_like_backend(qc.num_qubits)
    result = _cold_transpile(qc, backend=backend, optimization_level=2)
    assert list(result.pass_timings) == [
        "TranslateToBasis",
        "GreedyLayout",
        "PadToDevice",
        "FullLayout",
        "Route",
        "RemoveIdentities",
        "CancelInversePairs",
        "FuseSingleQubitRuns",
    ]
    assert result.compile_seconds > 0.0
