"""Tests for attack complexity (Eq. 1) and the brute-force attack."""

import math

import pytest

from repro.attacks import (
    CollusionProblem,
    SearchOptions,
    get_attack,
    iter_same_width_matchings,
    problem_from_saki,
    problem_from_split,
    same_width_matching_count,
    subset_matching_count,
)
from repro.baselines import saki_split
from repro.core import (
    insert_random_pairs,
    interlocking_split,
    saki_attack_complexity,
    tetrislock_attack_complexity,
)
from repro.core.attack import complexity_ratio
from repro.revlib import benchmark_circuit


class TestSakiComplexity:
    def test_factorial_form(self):
        assert saki_attack_complexity(4, 1) == 24
        assert saki_attack_complexity(5, 3) == 3 * 120

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            saki_attack_complexity(-1)
        with pytest.raises(ValueError):
            saki_attack_complexity(3, -1)


class TestEquation1:
    def test_hand_computed_small_case(self):
        """n=2, nmax=2, k=1 computed by hand.

        i=1: j=0: 1, j=1: C(2,1)C(1,1)1! = 2            -> 3
        i=2: j=0: 1, j=1: C(2,1)C(2,1)1! = 4,
             j=2: C(2,2)C(2,2)2! = 2                    -> 7
        total = 10
        """
        assert tetrislock_attack_complexity(2, 2, 1) == 10

    def test_single_size_single_qubit(self):
        # n=1, nmax=1: j=0 gives 1, j=1 gives 1 -> 2
        assert tetrislock_attack_complexity(1, 1, 1) == 2

    def test_k_scales_linearly(self):
        base = tetrislock_attack_complexity(4, 6, 1)
        assert tetrislock_attack_complexity(4, 6, 5) == 5 * base

    def test_k_as_sequence(self):
        # only size-2 candidates exist
        k_seq = [0, 1, 0, 0]
        value = tetrislock_attack_complexity(2, 4, k_seq)
        inner = sum(
            math.comb(2, j) * math.comb(2, j) * math.factorial(j)
            for j in range(3)
        )
        assert value == inner

    def test_k_sequence_length_mismatch_raises(self):
        """A short k used to zero-fill, silently understating Eq. 1
        (k=[1,1] with nmax=5 reported 17 instead of 260 for k=1)."""
        with pytest.raises(ValueError, match="one k per size"):
            tetrislock_attack_complexity(4, 5, [1, 1])
        with pytest.raises(ValueError, match="one k per size"):
            tetrislock_attack_complexity(4, 2, [1, 1, 1])
        # exact-length sequences keep working
        assert tetrislock_attack_complexity(4, 5, [1] * 5) == (
            tetrislock_attack_complexity(4, 5, 1)
        )

    def test_k_as_callable(self):
        value = tetrislock_attack_complexity(2, 3, lambda i: i)
        assert value > 0

    def test_exceeds_saki_for_paper_sizes(self):
        """The paper's claim: Saki's space is a minor fraction of Eq.1."""
        for n in (4, 5, 7, 10, 12):
            saki = saki_attack_complexity(n, 2)
            ours = tetrislock_attack_complexity(n, 27, 2)
            assert ours > 100 * saki

    def test_grows_with_nmax(self):
        small = tetrislock_attack_complexity(5, 5, 1)
        large = tetrislock_attack_complexity(5, 20, 1)
        assert large > small

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tetrislock_attack_complexity(-1, 5)
        with pytest.raises(ValueError):
            tetrislock_attack_complexity(3, 0)

    def test_ratio_helper(self):
        assert complexity_ratio(4, 10, 1) > 1.0


class TestBruteForceAttack:
    """The executed side of Sec. IV-C, through the registered
    same-width and mismatched adversaries of :mod:`repro.attacks`."""

    def test_straight_split_is_recoverable(self):
        """Saki-style same-width splits fall to n! enumeration."""
        circuit = benchmark_circuit("4gt13")
        split = saki_split(circuit, seed=1)
        outcome = get_attack("same-width").search(
            problem_from_saki(split),
            SearchOptions(prefilter=False, record_all=True),
        )
        assert outcome.candidates_tried == math.factorial(4)
        assert outcome.matches >= 1
        # the identity matching must be among the winners
        identity = {q: q for q in range(4)}
        assert any(
            r.mapping_dict() == identity and r.functional_match
            for r in outcome.results
        )

    def test_candidate_count_same_width(self):
        circuit = benchmark_circuit("4gt13")
        problem = problem_from_saki(saki_split(circuit, seed=2))
        assert get_attack("same-width").search_space(problem) == 24
        assert same_width_matching_count(circuit.num_qubits) == 24

    def test_candidate_count_mismatched_matches_eq1_inner(self):
        """Interlocking splits expose the larger Eq. 1 inner space."""
        insertion = insert_random_pairs(
            benchmark_circuit("4mod5"), gate_limit=4, seed=3
        )
        for seed in range(20):
            split = interlocking_split(insertion, seed=seed)
            if split.mismatched_qubits:
                break
        else:
            pytest.skip("no mismatched split found")
        n1, n2 = split.qubit_counts
        expected = sum(
            math.comb(n1, j) * math.comb(n2, j) * math.factorial(j)
            for j in range(min(n1, n2) + 1)
        )
        space = get_attack("mismatched").search_space(
            problem_from_split(split)
        )
        assert space == subset_matching_count(n1, n2) == expected
        assert space > math.factorial(min(n1, n2))

    def test_mismatched_enumeration_rejected(self):
        a = benchmark_circuit("4gt13")  # 4 qubits
        b = benchmark_circuit("4mod5")  # 5 qubits
        problem = CollusionProblem(a, b, b)
        with pytest.raises(ValueError, match="equal segment widths"):
            get_attack("same-width").search(problem)

    def test_candidate_cap_enforced(self):
        wide = benchmark_circuit("rd73")
        problem = CollusionProblem(wide, wide, wide)
        with pytest.raises(ValueError, match="exceed the cap"):
            get_attack("same-width").search(
                problem, SearchOptions(max_candidates=100)
            )

    def test_iter_matchings_is_lazy(self):
        """The n!-sized mapping list is never materialised: the stream
        yields immediately even when the full space is huge."""
        wide = benchmark_circuit("rd73")  # 10 qubits -> 10! bijections
        stream = iter_same_width_matchings(wide.num_qubits)
        first = next(stream)
        assert first.mapping_dict() == {q: q for q in range(wide.num_qubits)}

    def test_interlocked_rc_hides_function_from_seg2(self):
        """Even knowing the matching, segment 2 alone (holding R but
        not R†) computes the wrong function."""
        from repro.synth import simulate_reversible

        circuit = benchmark_circuit("4gt13")
        insertion = insert_random_pairs(circuit, gate_limit=4, seed=5)
        assert insertion.num_pairs >= 1
        rc = insertion.rc_circuit()
        assert simulate_reversible(rc) != simulate_reversible(circuit)
