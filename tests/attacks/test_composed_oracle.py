"""The search's per-candidate checks: the oracle's verdict on a matching
equals its verdict on the recombined circuit, the tabulated prefilter
admits what the per-slot histogram rule admits, and the unitary oracle
refuses registers it cannot hold."""

import tracemalloc

import numpy as np
import pytest

import repro.attacks.oracle as oracle_module
from repro.attacks import (
    CollusionProblem,
    EquivalenceOracle,
    SearchOptions,
    StructuralPrefilter,
    find_mismatched_split,
    get_attack,
    problem_from_saki,
    problem_from_split,
    recombine_candidate,
)
from repro.attacks.matching import (
    iter_matchings,
    matching_count,
    matching_rows,
    matching_slice,
)
from repro.attacks.oracle import MAX_UNITARY_QUBITS
from repro.baselines import saki_split
from repro.circuits import QuantumCircuit
from repro.core import insert_random_pairs, interlocking_split
from repro.revlib import benchmark_circuit
from reference_attack import structurally_admitted


def h_cx_t_circuit(num_qubits):
    """A non-reversible target: an h layer, a cx chain, a t layer."""
    qc = QuantumCircuit(num_qubits)
    for q in range(num_qubits):
        qc.h(q)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    for q in range(num_qubits):
        qc.t(q)
    return qc


def split_problem(circuit, insertion_seed):
    insertion = insert_random_pairs(circuit, gate_limit=4, seed=insertion_seed)
    split = find_mismatched_split(insertion)
    assert split is not None
    return problem_from_split(split)


@pytest.fixture(scope="module")
def problems():
    """``name -> (problem, stream kind)``: two mismatched RevLib splits
    ((3, 4) and (4, 7) qubits) and a Saki same-width split."""
    return {
        "4gt13": (split_problem(benchmark_circuit("4gt13"), 0), "subset"),
        "rd53": (split_problem(benchmark_circuit("rd53"), 3), "subset"),
        "saki": (
            problem_from_saki(saki_split(benchmark_circuit("4mod5"), seed=2)),
            "same-width",
        ),
    }


def circuit_verdict(oracle, problem, matching):
    return oracle.check(
        recombine_candidate(
            problem.segment1,
            problem.segment2,
            matching.mapping_dict(),
            matching.num_qubits,
        )
    )


class TestComposedChecks:
    @pytest.mark.parametrize("name", ["4gt13", "rd53", "saki"])
    def test_matching_verdicts_equal_circuit_verdicts(self, problems, name):
        problem, kind = problems[name]
        segments = (problem.segment1, problem.segment2)
        oracle = EquivalenceOracle(problem.oracle, segments=segments)
        assert oracle.composes
        expected = [
            circuit_verdict(oracle, problem, matching)
            for matching in iter_matchings(kind, *problem.widths)
        ]
        assert any(expected)
        attack = get_attack("mismatched" if kind == "subset" else "same-width")
        for options in (
            SearchOptions(prefilter=False, record_all=True),
            SearchOptions(
                prefilter=False, record_all=True, jobs=2, chunk_size=16
            ),
        ):
            outcome = attack.search(problem, options)
            assert [r.index for r in outcome.results] == list(
                range(len(expected))
            )
            assert [r.functional_match for r in outcome.results] == expected
            assert outcome.matches == sum(expected)

    def test_nonreversible_segment_checks_its_circuit(self):
        problem = split_problem(h_cx_t_circuit(4), 0)
        oracle = EquivalenceOracle(
            problem.oracle, segments=(problem.segment1, problem.segment2)
        )
        assert not oracle.composes
        matchings = list(iter_matchings("subset", *problem.widths))
        expected = [circuit_verdict(oracle, problem, m) for m in matchings]
        assert [oracle.check(m) for m in matchings] == expected
        assert any(expected)
        outcome = get_attack("mismatched").search(
            problem, SearchOptions(prefilter=False, record_all=True)
        )
        assert [r.functional_match for r in outcome.results] == expected

    def test_matching_without_segments_refused(self, problems):
        problem, kind = problems["4gt13"]
        matching = next(iter_matchings(kind, *problem.widths))
        with pytest.raises(ValueError, match="segments"):
            EquivalenceOracle(problem.oracle).check(matching)


class TestOneRowEntryPoints:
    def test_one_row_cases_equal_the_array_path(self, problems):
        """``matching_slice``, ``admits`` and ``check`` agree with
        ``matching_rows``, ``admitted`` and ``verdicts`` on every row."""
        problem, kind = problems["4gt13"]
        widths = problem.widths
        segments = (problem.segment1, problem.segment2)
        oracle = EquivalenceOracle(problem.oracle, segments=segments)
        prefilter = StructuralPrefilter(*segments, problem.oracle)
        every = list(matching_rows(kind, *widths))
        matchings = list(matching_slice(kind, *widths, 0, None))
        assert matchings == [
            rows.matching(row) for rows in every for row in range(len(rows))
        ]
        assert [m.index for m in matchings] == list(range(len(matchings)))
        assert list(matching_slice(kind, *widths, 5, 40)) == matchings[5:40]
        admitted = np.concatenate([prefilter.admitted(r) for r in every])
        verdicts = np.concatenate([oracle.verdicts(r) for r in every])
        assert [prefilter.admits(m) for m in matchings] == admitted.tolist()
        assert [oracle.check(m) for m in matchings] == verdicts.tolist()
        assert 0 < admitted.sum() < len(matchings)
        assert 0 < verdicts.sum() < len(matchings)


class TestTabulatedPrefilter:
    @pytest.mark.parametrize("name", ["4gt13", "rd53"])
    def test_admits_what_the_histogram_rule_admits(self, problems, name):
        problem, kind = problems[name]
        prefilter = StructuralPrefilter(
            problem.segment1, problem.segment2, problem.oracle
        )
        admitted, expected = [], []
        for matching in iter_matchings(kind, *problem.widths):
            admitted.append(prefilter.admits(matching))
            expected.append(structurally_admitted(problem, matching))
        assert admitted == expected
        assert 0 < sum(admitted) < len(admitted)

    def test_each_histogram_table_rejects_alone(self):
        """References that are no recombination of the segments.
        Mapping segment-2 qubit 0 onto slot 0 fails on that slot alone
        (the h case) or on slot 1, left to segment 1 (the x case).  On
        a real split the two tables never disagree this way."""
        seg1 = QuantumCircuit(2).x(0).h(1)
        cases = (
            (QuantumCircuit(1).h(0), QuantumCircuit(2).x(0).h(1)),
            (QuantumCircuit(1).x(0), QuantumCircuit(2).x(0).x(0)),
        )
        for seg2, reference in cases:
            problem = CollusionProblem(seg1, seg2, reference)
            prefilter = StructuralPrefilter(seg1, seg2, reference)
            for matching in iter_matchings("subset", 2, 1):
                assert not structurally_admitted(problem, matching)
                assert not prefilter.admits(matching)


class TestUnitaryWidthGuard:
    def test_wide_nonreversible_search_refused_before_work(
        self, monkeypatch
    ):
        insertion = insert_random_pairs(
            h_cx_t_circuit(8), gate_limit=4, seed=0
        )
        problem = problem_from_split(interlocking_split(insertion, seed=0))
        n1, n2 = problem.widths
        assert (n1, n2) == (8, 7)
        assert n1 + n2 > MAX_UNITARY_QUBITS
        # under the default candidate cap, so only the guard stops it
        assert matching_count("subset", n1, n2) == 394_353
        assert SearchOptions().max_candidates >= 394_353

        def refuse(*args, **kwargs):
            raise AssertionError("a unitary was built")

        monkeypatch.setattr(oracle_module, "circuit_unitary", refuse)
        attack = get_attack("mismatched")
        tracemalloc.start()
        try:
            for jobs in (1, 2):
                with pytest.raises(ValueError, match="unitary oracle"):
                    attack.search(problem, SearchOptions(jobs=jobs))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
