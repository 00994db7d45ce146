"""Process-pool search: bit-identity with sequential, early exit,
dispatch-order shuffling."""

import multiprocessing
import os

import pytest

from repro.attacks import (
    SearchOptions,
    find_mismatched_split,
    get_attack,
    problem_from_saki,
    problem_from_split,
)
from repro.attacks import parallel
from repro.baselines import saki_split
from repro.core import insert_random_pairs
from repro.revlib import benchmark_circuit


def outcome_key(outcome):
    """Everything observable about a search outcome."""
    return (
        outcome.attack,
        outcome.search_space,
        outcome.candidates_tried,
        outcome.pruned,
        outcome.matches,
        outcome.early_exit,
        tuple(outcome.results),
    )


@pytest.fixture(scope="module")
def mismatched_problem():
    insertion = insert_random_pairs(
        benchmark_circuit("4mod5"), gate_limit=4, seed=3
    )
    split = find_mismatched_split(insertion)
    if split is None:
        pytest.skip("no mismatched split found")
    return problem_from_split(split)


class TestParallelBitIdentity:
    def test_jobs_equal_sequential_full_search(self, mismatched_problem):
        attack = get_attack("mismatched")
        base = SearchOptions(prefilter=False, chunk_size=16)
        sequential = attack.search(mismatched_problem, base)
        parallel = attack.search(
            mismatched_problem,
            SearchOptions(prefilter=False, chunk_size=16, jobs=3),
        )
        assert outcome_key(sequential) == outcome_key(parallel)
        assert sequential.candidates_tried == sequential.search_space

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the counting wrapper only when forked",
    )
    def test_one_context_per_worker(
        self, mismatched_problem, monkeypatch, tmp_path
    ):
        # every chunk a worker evaluates shares the context it built
        log = tmp_path / "builds"
        build = parallel._chunk_context

        def counted(task):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return build(task)

        monkeypatch.setattr(parallel, "_chunk_context", counted)
        outcome = get_attack("mismatched").search(
            mismatched_problem, SearchOptions(chunk_size=4, jobs=2)
        )
        assert outcome.search_space > 8 * 4  # many chunks per worker
        pids = log.read_text().split()
        # the parent builds one for its up-front checks
        assert pids.count(str(os.getpid())) == 1
        workers = [pid for pid in pids if pid != str(os.getpid())]
        assert 1 <= len(workers) <= 2 and len(set(workers)) == len(workers)

    def test_jobs_equal_sequential_with_prefilter_and_recording(
        self, mismatched_problem
    ):
        attack = get_attack("mismatched")
        sequential = attack.search(
            mismatched_problem,
            SearchOptions(chunk_size=8, record_all=True),
        )
        parallel = attack.search(
            mismatched_problem,
            SearchOptions(chunk_size=8, record_all=True, jobs=2),
        )
        assert outcome_key(sequential) == outcome_key(parallel)
        # record_all keeps every checked candidate, in canonical order
        assert len(sequential.results) == sequential.candidates_tried
        indices = [record.index for record in sequential.results]
        assert indices == sorted(indices)

    def test_seeded_dispatch_shuffle_changes_nothing_when_full(
        self, mismatched_problem
    ):
        attack = get_attack("mismatched")
        plain = attack.search(
            mismatched_problem, SearchOptions(prefilter=False, chunk_size=8)
        )
        shuffled = attack.search(
            mismatched_problem,
            SearchOptions(prefilter=False, chunk_size=8, seed=1234, jobs=2),
        )
        assert outcome_key(plain) == outcome_key(shuffled)

    def test_early_exit_parallel_equals_sequential(self, mismatched_problem):
        attack = get_attack("mismatched")
        for seed in (None, 42):
            sequential = attack.search(
                mismatched_problem,
                SearchOptions(
                    prefilter=False, chunk_size=4, early_exit=True,
                    seed=seed,
                ),
            )
            parallel = attack.search(
                mismatched_problem,
                SearchOptions(
                    prefilter=False, chunk_size=4, early_exit=True,
                    seed=seed, jobs=3,
                ),
            )
            assert outcome_key(sequential) == outcome_key(parallel)
            assert sequential.success

    def test_same_width_parallel_identity(self):
        circuit = benchmark_circuit("4gt13")
        problem = problem_from_saki(saki_split(circuit, seed=1))
        attack = get_attack("same-width")
        sequential = attack.search(
            problem,
            SearchOptions(prefilter=False, record_all=True, chunk_size=5),
        )
        parallel = attack.search(
            problem,
            SearchOptions(
                prefilter=False, record_all=True, chunk_size=5, jobs=2
            ),
        )
        assert outcome_key(sequential) == outcome_key(parallel)

    def test_invalid_options_rejected(self, mismatched_problem):
        attack = get_attack("mismatched")
        with pytest.raises(ValueError, match="jobs"):
            attack.search(mismatched_problem, SearchOptions(jobs=0))
        with pytest.raises(ValueError, match="chunk_size"):
            attack.search(mismatched_problem, SearchOptions(chunk_size=0))
