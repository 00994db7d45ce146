"""The adversary subsystem: the attack table, matching streams,
oracle, prefilters, and the two brute-force attacks."""

import math
from itertools import islice

import numpy as np
import pytest

from repro.attacks import (
    ATTACKS,
    CollusionProblem,
    EquivalenceOracle,
    MismatchedWidthBruteForce,
    SameWidthBruteForce,
    SearchOptions,
    StructuralPrefilter,
    find_mismatched_split,
    get_attack,
    is_reversible,
    iter_same_width_matchings,
    iter_subset_matchings,
    problem_for,
    problem_from_saki,
    problem_from_split,
    recombine_candidate,
    same_width_matching_count,
    select_attack,
    subset_matching_count,
)
from repro.attacks.oracle import pad_table
from repro.baselines import saki_split
from repro.circuits import CXGate, QuantumCircuit, UnitaryGate
from repro.core import insert_random_pairs, interlocking_split
from repro.revlib import benchmark_circuit
from repro.synth import simulate_reversible
from reference_attack import same_width_verdicts


def mismatched_split(benchmark="4gt13", insertion_seed=3):
    """A real interlocking split whose segments expose different widths."""
    insertion = insert_random_pairs(
        benchmark_circuit(benchmark), gate_limit=4, seed=insertion_seed
    )
    split = find_mismatched_split(insertion)
    if split is None:
        pytest.skip("no mismatched split found")
    return split


class TestRegistry:
    def test_builtin_attacks_present(self):
        assert list(ATTACKS) == ["same-width", "mismatched"]
        assert isinstance(ATTACKS["same-width"], SameWidthBruteForce)
        assert isinstance(ATTACKS["mismatched"], MismatchedWidthBruteForce)

    def test_builtins_satisfy_protocol(self):
        """Each entry answers to its key (outcomes report ``name``) and
        offers what ``select_attack`` and the callers use."""
        for name, attack in ATTACKS.items():
            assert get_attack(name) is attack
            assert attack.name == name
            for method in ("supports", "search_space", "search"):
                assert callable(getattr(attack, method))

    def test_get_unknown_name(self):
        with pytest.raises(KeyError, match="unknown attack"):
            get_attack("sat-solver")

    def test_select_prefers_smaller_space(self):
        circuit = benchmark_circuit("4gt13")
        same = problem_from_saki(saki_split(circuit, seed=1))
        # equal widths: n! < the subset space, so the bijection attack wins
        assert select_attack(same).name == "same-width"
        mismatched = problem_from_split(mismatched_split())
        assert select_attack(mismatched).name == "mismatched"

    def test_select_rejects_bijections_when_truth_needs_ancillas(self):
        """Equal segment widths with a partial-overlap ground truth:
        the reference frame is wider than the segments, no bijection
        contains the truth, so auto-dispatch must not pick the n!
        attack (which would falsely report failure)."""
        seg1 = QuantumCircuit(2)
        seg1.cx(0, 1).x(0)
        seg2 = QuantumCircuit(2)
        seg2.x(0).h(1)
        # true recombination: seg2 qubit 0 attaches to seg1 qubit 1,
        # seg2 qubit 1 lands on a fresh ancilla (width 3)
        reference = recombine_candidate(seg1, seg2, {0: 1, 1: 2}, 3)
        problem = CollusionProblem(seg1, seg2, reference)
        assert not get_attack("same-width").supports(problem)
        chosen = select_attack(problem)
        assert chosen.name == "mismatched"
        assert chosen.search(
            problem, SearchOptions(prefilter=False)
        ).success
        # asking for the bijection attack directly fails loudly instead
        # of reporting a false "attack fails"
        with pytest.raises(ValueError, match="ancillas"):
            get_attack("same-width").search(problem)


class TestMatchingStreams:
    def test_same_width_count_and_order(self):
        matchings = list(iter_same_width_matchings(3))
        assert len(matchings) == math.factorial(3)
        assert [m.index for m in matchings] == list(range(6))
        assert matchings[0].mapping == ((0, 0), (1, 1), (2, 2))
        assert all(m.num_qubits == 3 for m in matchings)

    @pytest.mark.parametrize("n1,n2", [(0, 0), (1, 3), (3, 1), (4, 2),
                                       (3, 3), (4, 5)])
    def test_subset_count_matches_eq1_inner_sum(self, n1, n2):
        expected = sum(
            math.comb(n1, j) * math.comb(n2, j) * math.factorial(j)
            for j in range(min(n1, n2) + 1)
        )
        assert subset_matching_count(n1, n2) == expected
        assert sum(1 for _ in iter_subset_matchings(n1, n2)) == expected

    def test_subset_stream_is_lazy(self):
        # 12x12 has > 10^13 candidates; taking 5 must not enumerate them
        stream = iter_subset_matchings(12, 12)
        first5 = list(islice(stream, 5))
        assert [m.index for m in first5] == list(range(5))

    def test_subset_indices_are_canonical(self):
        first = list(iter_subset_matchings(3, 2))
        second = list(iter_subset_matchings(3, 2))
        assert first == second
        assert [m.index for m in first] == list(range(len(first)))

    @pytest.mark.parametrize("n1,n2", [(3, 2), (4, 4), (2, 5)])
    def test_fast_forward_matches_full_stream(self, n1, n2):
        """start=k skips block-arithmetically, never re-enumerating
        the prefix — and lands on exactly the same candidates."""
        full = list(iter_subset_matchings(n1, n2))
        for start in (0, 1, 7, len(full) // 2, len(full) - 1, len(full)):
            assert list(iter_subset_matchings(n1, n2, start=start)) == (
                full[start:]
            )

    def test_same_width_fast_forward(self):
        full = list(iter_same_width_matchings(4))
        for start in (0, 5, 23, 24):
            assert list(
                iter_same_width_matchings(4, start=start)
            ) == full[start:]

    def test_permutation_table_matches_itertools(self):
        """Cached tables and the rows derived past them both list
        permutations in ``itertools.permutations`` order."""
        from itertools import permutations as it_permutations

        from repro.attacks.matching import _TABLE_MAX, _permutation_rows

        for j in range(6):
            rows = np.arange(math.factorial(j))
            assert [
                tuple(row) for row in _permutation_rows(j, rows).tolist()
            ] == list(it_permutations(range(j)))
        j = _TABLE_MAX + 1
        full = list(islice(it_permutations(range(j)), 2 * 10**5))
        for j_rows in ([0, 1, 5039, 40320], [10**5, 2 * 10**5 - 1]):
            got = _permutation_rows(j, np.array(j_rows)).tolist()
            assert [tuple(row) for row in got] == [full[r] for r in j_rows]
        assert _permutation_rows(j, np.array([math.factorial(j) - 1])
                                 ).tolist() == [list(range(j))[::-1]]

    def test_unmatched_qubits_take_ascending_ancillas(self):
        # j = 0 candidate: every seg-2 qubit lands on a fresh ancilla
        matching = next(iter_subset_matchings(3, 2))
        assert matching.overlap == 0
        assert matching.mapping == ((0, 3), (1, 4))
        assert matching.num_qubits == 5

    def test_overlap_reduces_width(self):
        widths = {
            m.overlap: m.num_qubits for m in iter_subset_matchings(3, 2)
        }
        assert widths == {0: 5, 1: 4, 2: 3}


class TestOracle:
    def test_pad_table_passthrough_bits(self):
        table = simulate_reversible(benchmark_circuit("4gt13")).table
        padded = pad_table(table, 4, 6)
        assert len(padded) == 64
        for x in range(64):
            assert padded[x] & ~0xF == x & ~0xF
            assert padded[x] & 0xF == table[x & 0xF]

    def test_truth_table_and_unitary_paths_agree(self):
        circuit = benchmark_circuit("4gt13")
        tt = EquivalenceOracle(circuit, use_truth_table=True)
        un = EquivalenceOracle(circuit, use_truth_table=False)
        wrong = circuit.copy()
        wrong.x(0)
        wider = QuantumCircuit(6)
        wider.extend(circuit.instructions)
        for candidate in (circuit, wrong, wider):
            assert tt.check(candidate) == un.check(candidate)
        assert tt.check(wider)
        assert not tt.check(wrong)

    def test_truth_table_rejected_for_nonreversible_reference(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        with pytest.raises(ValueError, match="reversible"):
            EquivalenceOracle(qc, use_truth_table=True)

    def test_measured_reference_rejected(self):
        qc = QuantumCircuit(1).measure_all()
        with pytest.raises(ValueError, match="measurement-free"):
            EquivalenceOracle(qc)

    def test_unitary_gate_named_like_mcx_takes_the_unitary_path(self):
        # only MCXGate and the x/cx/ccx/swap/cswap gates have a truth
        # table; a UnitaryGate whose label starts with "mcx" is checked
        # by its unitary instead of raising
        reference = QuantumCircuit(2)
        reference.cx(0, 1)
        candidate = QuantumCircuit(2)
        candidate.append(UnitaryGate(CXGate().matrix, label="mcx_x"), [0, 1])
        assert is_reversible(reference) and not is_reversible(candidate)
        assert EquivalenceOracle(reference).check(candidate) is True


class TestPrefilter:
    def test_true_matching_always_admitted(self):
        split = mismatched_split()
        problem = problem_from_split(split)
        prefilter = StructuralPrefilter(
            problem.segment1, problem.segment2, problem.oracle
        )
        true_mapping = tuple(
            sorted(split.boundary().true_matching().items())
        )
        n1, n2 = problem.widths
        admitted = [
            m
            for m in iter_subset_matchings(n1, n2)
            if prefilter.admits(m)
        ]
        assert any(m.mapping == true_mapping for m in admitted)
        # and it actually prunes something on a real split
        assert len(admitted) < subset_matching_count(n1, n2)

    def test_prefilter_never_changes_success(self):
        problem = problem_from_split(mismatched_split())
        attack = get_attack("mismatched")
        full = attack.search(problem, SearchOptions(prefilter=False))
        pruned = attack.search(problem, SearchOptions(prefilter=True))
        assert full.success and pruned.success
        assert pruned.candidates_tried + pruned.pruned == full.candidates_tried


class TestMismatchedAttack:
    """The paper's defining scenario, executed end to end."""

    def test_recovers_original_from_mismatched_split(self):
        split = mismatched_split()
        assert split.mismatched_qubits
        problem = problem_from_split(split)
        outcome = get_attack("mismatched").search(
            problem, SearchOptions(prefilter=False)
        )
        assert outcome.success
        # the ground-truth matching is among the winners
        true_mapping = tuple(
            sorted(split.boundary().true_matching().items())
        )
        assert any(
            r.mapping == true_mapping and r.functional_match
            for r in outcome.results
        )

    def test_tried_count_equals_candidate_count_without_prefilter(self):
        split = mismatched_split()
        problem = problem_from_split(split)
        attack = get_attack("mismatched")
        outcome = attack.search(problem, SearchOptions(prefilter=False))
        n1, n2 = problem.widths
        assert outcome.candidates_tried == attack.search_space(problem)
        assert outcome.candidates_tried == subset_matching_count(n1, n2)

    def test_oracle_reference_computes_original_function(self):
        """The generous oracle's frame is the original circuit
        relabelled by the ground-truth embedding."""
        split = mismatched_split()
        problem = problem_from_split(split)
        boundary = split.boundary()
        original = split.insertion.original
        # original -> candidate-frame injection: seg-1 actives keep
        # their compact slot, seg-2-only actives follow the ancilla
        # assignment of the true matching
        inv1 = {
            orig: compact
            for compact, orig in
            split.segment1.compact_to_original.items()
        }
        inv2 = {
            orig: compact
            for compact, orig in
            split.segment2.compact_to_original.items()
        }
        true_mapping = boundary.true_matching()
        frame = {}
        next_slot = boundary.candidate_width
        for q in range(original.num_qubits):
            if q in inv1:
                frame[q] = inv1[q]
            elif q in inv2:
                frame[q] = true_mapping[inv2[q]]
            else:  # idle in the obfuscated circuit
                frame[q] = next_slot
                next_slot += 1
        relabelled = original.remap_qubits(frame, next_slot)
        width = max(next_slot, boundary.candidate_width)
        assert pad_table(
            simulate_reversible(relabelled).table, next_slot, width
        ) == pad_table(
            simulate_reversible(problem.oracle).table,
            boundary.candidate_width,
            width,
        )

    def test_search_space_cap_enforced(self):
        problem = problem_from_split(mismatched_split())
        with pytest.raises(ValueError, match="exceed the cap"):
            get_attack("mismatched").search(
                problem, SearchOptions(max_candidates=3)
            )

    def test_early_exit_finds_first_canonical_match(self):
        problem = problem_from_split(mismatched_split())
        attack = get_attack("mismatched")
        full = attack.search(problem, SearchOptions(prefilter=False))
        early = attack.search(
            problem,
            SearchOptions(prefilter=False, early_exit=True, chunk_size=7),
        )
        assert early.success
        assert early.first_match.index == full.first_match.index
        assert early.candidates_tried <= full.candidates_tried

    def test_handles_equal_width_problems_too(self):
        """No ValueError path left: the subset matcher covers any
        width pair, equal widths included."""
        circuit = benchmark_circuit("4gt13")
        problem = problem_from_saki(saki_split(circuit, seed=1))
        outcome = get_attack("mismatched").search(
            problem, SearchOptions(prefilter=True)
        )
        assert outcome.success


# Saki splits the same-width attack is pinned on: (benchmark, split
# seed) -> (candidates, indices of the matching candidates), captured
# from the retired per-candidate executor.
SAKI_VERDICT_PINS = {
    ("4gt13", 1): (24, [0, 6]),
    ("4gt13", 2): (24, [0, 6]),
    ("4gt13", 3): (24, [0, 6]),
    ("4mod5", 1): (120, [0, 2]),
    ("4mod5", 2): (120, [0, 2, 24, 26]),
    ("4mod5", 3): (120, [0, 2, 24, 26]),
    ("one_bit_adder", 1): (24, [0]),
    ("one_bit_adder", 2): (24, [0, 1]),
    ("one_bit_adder", 3): (24, [0, 1]),
    ("ham3", 1): (6, [0]),
    ("ham3", 2): (6, [0]),
    ("ham3", 3): (6, [0]),
}


def _same_width_search(benchmark, seed):
    circuit = benchmark_circuit(benchmark)
    split = saki_split(circuit, seed=seed)
    outcome = get_attack("same-width").search(
        problem_from_saki(split),
        SearchOptions(prefilter=False, record_all=True),
    )
    return circuit, split, outcome


class TestSameWidthAttack:
    def test_bit_identical_to_legacy_attack(self):
        """The same-width attack reproduces the plain permutation loop
        of ``tests/reference_attack.py``: same candidate order, same
        per-candidate verdicts, on every pinned Saki split."""
        for benchmark, seed in SAKI_VERDICT_PINS:
            circuit, split, outcome = _same_width_search(benchmark, seed)
            reference = same_width_verdicts(
                split.segment1, split.segment2, circuit
            )
            assert outcome.candidates_tried == len(reference)
            assert outcome.matches == sum(ok for _, ok in reference)
            assert [
                (record.mapping_dict(), record.functional_match)
                for record in outcome.results
            ] == reference, (benchmark, seed)

    def test_verdict_sequence_pinned(self):
        for (benchmark, seed), (space, winners) in SAKI_VERDICT_PINS.items():
            _, _, outcome = _same_width_search(benchmark, seed)
            assert outcome.candidates_tried == space
            assert [
                record.index
                for record in outcome.results
                if record.functional_match
            ] == winners, (benchmark, seed)

    def test_regression_pinned_counts(self):
        """Same-width results pinned: 4gt13 / saki seed 1 has exactly
        2 of 4! matchings recovering the function."""
        circuit = benchmark_circuit("4gt13")
        outcome = get_attack("same-width").search(
            problem_from_saki(saki_split(circuit, seed=1)),
            SearchOptions(prefilter=False),
        )
        assert outcome.search_space == math.factorial(4)
        assert outcome.candidates_tried == 24
        assert outcome.matches == 2
        assert outcome.first_match.index == 0  # identity matching wins

    def test_rejects_mismatched_widths(self):
        problem = problem_from_split(mismatched_split())
        attack = get_attack("same-width")
        assert not attack.supports(problem)
        with pytest.raises(ValueError, match="equal segment widths"):
            attack.search(problem)

    def test_swap_network_split_rejected(self):
        circuit = benchmark_circuit("4gt13")
        split = saki_split(circuit, seed=1, swap_network=True)
        with pytest.raises(ValueError, match="swap-network"):
            problem_from_saki(split)


class TestCollusionProblem:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_problem_for_matches_explicit_composition(self, seed):
        """``problem_for`` builds exactly the scenario the callers used
        to compose by hand: same segments, same oracle reference."""
        circuit = benchmark_circuit("4mod5")
        measured = circuit.copy().measure_all()
        saki = problem_from_saki(saki_split(circuit, seed=seed))
        insertion = insert_random_pairs(circuit, gate_limit=3, seed=seed)
        interlocking = problem_from_split(
            interlocking_split(insertion, seed=seed)
        )
        for target in (circuit, measured):
            assert problem_for(target, "same-width", seed=seed) == saki
            for adversary in ("mismatched", "auto"):
                assert problem_for(
                    target, adversary, seed=seed, gate_limit=3
                ) == interlocking

    def test_measured_segments_rejected(self):
        qc = QuantumCircuit(2).measure_all()
        with pytest.raises(ValueError, match="measurement-free"):
            CollusionProblem(qc, qc, QuantumCircuit(2))

    def test_recombine_candidate_width_and_order(self):
        seg1 = QuantumCircuit(2)
        seg1.cx(0, 1)
        seg2 = QuantumCircuit(2)
        seg2.x(0).cx(0, 1)
        candidate = recombine_candidate(seg1, seg2, {0: 1, 1: 2}, 3)
        assert candidate.num_qubits == 3
        assert [
            (inst.name, inst.qubits) for inst in candidate
        ] == [("cx", (0, 1)), ("x", (1,)), ("cx", (1, 2))]

    def test_boundary_metadata_matches_segments(self):
        split = mismatched_split()
        boundary = split.boundary()
        assert boundary.seg1_active == tuple(split.segment1.active_qubits)
        assert boundary.seg2_active == tuple(split.segment2.active_qubits)
        assert set(boundary.shared_qubits) == (
            set(split.segment1.active_qubits)
            & set(split.segment2.active_qubits)
        )
        for c1, c2 in boundary.crossing_pairs:
            assert (
                split.segment1.compact_to_original[c1]
                == split.segment2.compact_to_original[c2]
            )
        n1, n2 = boundary.widths
        mapping = boundary.true_matching()
        assert sorted(mapping) == list(range(n2))
        assert boundary.candidate_width == n1 + n2 - len(
            boundary.shared_qubits
        )
