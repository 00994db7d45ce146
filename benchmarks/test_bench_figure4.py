"""Bench E2: regenerate Figure 4 (TVD distributions, reduced scale).

For each benchmark the bench produces the obfuscated-vs-restored TVD
pair and asserts the figure's shape: obfuscated TVD is large (the
random circuit corrupts the function; near 1 for the bigger rd
circuits), restored TVD is small (only hardware noise remains).

Full-scale series: ``repro experiment run figure4``.
"""

import pytest

from repro.experiments import generate_table1

_SMALL = ["4gt13", "one_bit_adder", "4mod5"]
_LARGE = ["rd53"]


def _tvd_pair(name: str, iterations: int, shots: int):
    aggregate = generate_table1(
        iterations=iterations, shots=shots, seed=9, benchmarks=[name]
    )[name]
    obfuscated = aggregate.tvd_obfuscated_values
    restored = aggregate.tvd_restored_values
    return obfuscated, restored


@pytest.mark.parametrize("name", _SMALL)
def test_bench_figure4_small_circuits(benchmark, name):
    # 6 pipeline iterations: with fewer, the mean obfuscated TVD of a
    # 1-output-bit benchmark can lose to the restored TVD on an
    # unlucky insertion draw (the figure's shape is an average claim)
    obfuscated, restored = benchmark.pedantic(
        _tvd_pair, args=(name, 6, 400), rounds=1, iterations=1
    )
    assert max(restored) < 0.75
    assert sum(obfuscated) / len(obfuscated) > sum(restored) / len(restored)


@pytest.mark.parametrize("name", _LARGE)
def test_bench_figure4_large_circuits(benchmark, name):
    """Large multi-output circuits: obfuscated TVD approaches 1.

    An average claim over 6 iterations, as for the small circuits: one
    insertion draw can corrupt little (the first rd53 draw at seed 9
    has an obfuscated TVD of ~0.50 under either noisy engine).
    """
    obfuscated, restored = benchmark.pedantic(
        _tvd_pair, args=(name, 6, 300), rounds=1, iterations=1
    )
    mean_obfuscated = sum(obfuscated) / len(obfuscated)
    assert mean_obfuscated > 0.5
    assert mean_obfuscated > sum(restored) / len(restored)
