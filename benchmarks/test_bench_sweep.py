"""Bench E8: obfuscation strength vs insertion budget (extension).

Asserts the monotone relationship behind the paper's Sec. V-C
discussion: a bigger random-gate budget never weakens (and generally
strengthens) the functional corruption of the compiler-visible
circuit, and a zero budget leaves the function intact.
"""

from repro.experiments import run_experiment


def test_bench_gate_limit_sweep(benchmark):
    points = benchmark.pedantic(
        run_experiment,
        args=(
            "sweep_gate_limit",
            {
                "benchmarks": ["4gt13", "rd53"],
                "gate_limits": [0, 2, 4],
                "iterations": 5,
                "shots": 256,
                "seed": 13,
            },
        ),
        rounds=1,
        iterations=1,
    ).result
    by_benchmark = {}
    for point in points:
        by_benchmark.setdefault(point.benchmark, []).append(point)
    for name, series in by_benchmark.items():
        series.sort(key=lambda p: p.gate_limit)
        # zero budget -> function intact -> TVD 0
        assert series[0].mean_tvd_obfuscated == 0.0
        # some positive budget corrupts the all-zeros run (an inserted
        # CX with an idle control can be a no-op on this input, so we
        # assert over the whole sweep rather than a single point)
        assert max(
            p.mean_tvd_obfuscated for p in series[1:]
        ) > 0.3
        # zero budget inserts nothing; positive budgets insert >= 1 on
        # average (the per-budget counts fluctuate with the random
        # window choice, so strict monotonicity is not asserted)
        inserted = [p.mean_inserted for p in series]
        assert inserted[0] == 0.0
        assert all(value >= 1.0 for value in inserted[1:])
