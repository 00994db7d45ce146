"""Bench E3/E6: attack complexity (Eq. 1) and the brute-force attack.

* ``test_bench_eq1_sweep`` times the exact-integer evaluation of Eq. 1
  over the paper's qubit range and asserts TetrisLock's search space
  dominates Saki's ``k_n * n!`` by orders of magnitude.
* ``test_bench_bruteforce_straight_split`` runs the *concrete*
  collusion attack against a straight split and asserts it succeeds —
  the motivating weakness of prior work.
* ``test_bench_bruteforce_cost_interlocking`` measures the candidate
  space of a real interlocking split pair.
* ``test_bench_mismatched_streaming_search`` executes the Eq. 1
  mismatched-width search end to end through :mod:`repro.attacks`,
  with and without structural prefiltering.
"""

import math

import pytest

from repro.attacks import (
    SearchOptions,
    find_mismatched_split,
    get_attack,
    problem_from_saki,
    problem_from_split,
    subset_matching_count,
)
from repro.baselines import saki_split
from repro.core import (
    insert_random_pairs,
    interlocking_split,
    saki_attack_complexity,
    tetrislock_attack_complexity,
)
from repro.experiments import generate_complexity_table
from repro.revlib import benchmark_circuit


def test_bench_eq1_sweep(benchmark):
    rows = benchmark(
        generate_complexity_table, (4, 5, 7, 10, 12), (5, 27, 127), 2
    )
    assert len(rows) == 15
    for row in rows:
        # Eq. 1 dominates whenever the device actually fits the split
        # (for n > nmax the configuration is vacuous: the circuit does
        # not fit on the device at all)
        if row.nmax >= row.n:
            assert row.tetrislock > row.saki
    # headline: at n=12, nmax=127, the ratio exceeds 1e17
    largest = max(rows, key=lambda r: (r.nmax, r.n))
    assert largest.ratio > 1e17


def test_bench_bruteforce_straight_split(benchmark):
    circuit = benchmark_circuit("4gt13")

    def attack_once():
        split = saki_split(circuit, seed=1)
        return get_attack("same-width").search(
            problem_from_saki(split),
            SearchOptions(prefilter=False, record_all=True),
        )

    outcome = benchmark.pedantic(attack_once, rounds=1, iterations=1)
    assert outcome.candidates_tried == math.factorial(4)
    assert outcome.matches >= 1  # prior-work split falls to brute force


def test_bench_bruteforce_cost_interlocking(benchmark):
    circuit = benchmark_circuit("4mod5")

    def candidate_space():
        insertion = insert_random_pairs(circuit, gate_limit=4, seed=3)
        best = 0
        for seed in range(10):
            split = interlocking_split(insertion, seed=seed)
            best = max(best, subset_matching_count(*split.qubit_counts))
        return best

    space = benchmark.pedantic(candidate_space, rounds=1, iterations=1)
    # at least the same-width n! space; usually well beyond it
    assert space >= math.factorial(
        min(4, circuit.num_qubits)
    )


def _mismatched_problem(benchmark_name="4mod5", insertion_seed=3):
    insertion = insert_random_pairs(
        benchmark_circuit(benchmark_name), gate_limit=4, seed=insertion_seed
    )
    split = find_mismatched_split(insertion)
    if split is None:
        pytest.skip("no mismatched split found")
    return problem_from_split(split)


@pytest.mark.parametrize("prefilter", [False, True],
                         ids=["exhaustive", "prefiltered"])
def test_bench_mismatched_streaming_search(benchmark, prefilter):
    """The paper's defining adversary, executed: Eq. 1's subset
    matching on a genuinely mismatched interlocking split."""
    problem = _mismatched_problem()
    attack = get_attack("mismatched")
    options = SearchOptions(prefilter=prefilter)

    outcome = benchmark.pedantic(
        attack.search, args=(problem, options), rounds=1, iterations=1
    )
    assert outcome.success
    assert (
        outcome.candidates_tried + outcome.pruned
        == attack.search_space(problem)
    )
    if prefilter:
        assert outcome.pruned > 0


def test_bench_eq1_scaling_in_nmax(benchmark):
    """Eq. 1 grows with device size while Saki's bound is flat."""

    def sweep():
        return [
            tetrislock_attack_complexity(5, nmax, 2)
            for nmax in (5, 16, 27, 65, 127)
        ]

    values = benchmark(sweep)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] > saki_attack_complexity(5, 2)
