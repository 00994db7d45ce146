"""The Table I grid: jobs-independent, seed-determined, bit-identical."""

import pytest

from repro.experiments import generate_table1

# paper_suite() order: cell order decides the positional seeds
PAIR = ["one_bit_adder", "4gt13"]


def _fingerprint(results):
    """Every per-iteration histogram and metric, in deterministic order."""
    out = []
    for name in sorted(results):
        for it in results[name].iterations:
            out.append(
                (
                    name,
                    sorted(it.counts_original.items()),
                    sorted(it.counts_obfuscated.items()),
                    sorted(it.counts_restored.items()),
                    it.expected_bitstring,
                    it.inserted_gates,
                )
            )
    return out


# generate_table1(iterations=2, shots=150, seed=13, benchmarks=PAIR),
# re-captured when auto dispatch sent these <=5-qubit simulations to the
# exact density engine: the inserted gates (last field) are those of
# the ensemble-era pin, only the counts moved
SUITE_ORDER_PIN = [
    ("4gt13", [("0", 15), ("1", 135)], [("0", 12), ("1", 138)],
     [("0", 22), ("1", 128)], "1", 1),
    ("4gt13", [("0", 10), ("1", 140)], [("0", 143), ("1", 7)],
     [("0", 14), ("1", 136)], "1", 1),
    ("one_bit_adder", [("0", 26), ("1", 124)], [("0", 14), ("1", 136)],
     [("0", 20), ("1", 130)], "1", 1),
    ("one_bit_adder", [("0", 23), ("1", 127)], [("0", 137), ("1", 13)],
     [("0", 8), ("1", 142)], "1", 1),
]


class TestParallelSuite:
    def test_suite_order_fingerprint_pinned(self):
        results = generate_table1(
            iterations=2, shots=150, seed=13, benchmarks=PAIR, jobs=2
        )
        assert _fingerprint(results) == SUITE_ORDER_PIN

    def test_jobs_do_not_change_results(self):
        sequential = generate_table1(
            iterations=2, shots=150, seed=13, benchmarks=PAIR, jobs=1
        )
        parallel = generate_table1(
            iterations=2, shots=150, seed=13, benchmarks=PAIR, jobs=2
        )
        assert _fingerprint(sequential) == _fingerprint(parallel)

    def test_fixed_seed_is_reproducible(self):
        one = generate_table1(
            iterations=2, shots=100, seed=3, benchmarks=["4gt13"]
        )
        two = generate_table1(
            iterations=2, shots=100, seed=3, benchmarks=["4gt13"]
        )
        assert _fingerprint(one) == _fingerprint(two)

    def test_different_seeds_differ(self):
        one = generate_table1(
            iterations=2, shots=100, seed=3, benchmarks=["4gt13"]
        )
        two = generate_table1(
            iterations=2, shots=100, seed=4, benchmarks=["4gt13"]
        )
        assert _fingerprint(one) != _fingerprint(two)

    def test_iteration_count_and_names(self):
        results = generate_table1(
            iterations=3, shots=50, seed=1, benchmarks=PAIR, jobs=2
        )
        assert list(results) == PAIR
        for aggregate in results.values():
            assert len(aggregate.iterations) == 3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="iterations"):
            generate_table1(iterations=0, benchmarks=["4gt13"])
        with pytest.raises(ValueError, match="jobs"):
            generate_table1(iterations=1, benchmarks=["4gt13"], jobs=0)


class TestCompilationKnobs:
    """The transpile cache never changes any result."""

    def test_transpile_cache_does_not_change_results(self, monkeypatch):
        import importlib

        from repro.transpiler import TranspileCache, get_transpile_cache

        cache = get_transpile_cache()
        cache.clear()
        cached = generate_table1(
            iterations=2, shots=100, seed=21, benchmarks=PAIR
        )
        assert cache.stats().hits > 0
        cache.clear()
        # every compile gets a fresh private cache, so none is a hit
        monkeypatch.setattr(
            importlib.import_module("repro.transpiler.transpile"),
            "get_transpile_cache",
            TranspileCache,
        )
        uncached = generate_table1(
            iterations=2, shots=100, seed=21, benchmarks=PAIR
        )
        assert cache.stats().hits == cache.stats().misses == 0
        assert _fingerprint(cached) == _fingerprint(uncached)
