"""Process-pool search: bit-identity with sequential, early exit,
dispatch-order shuffling, chunks that cut subset groups, and the
composed check's memory bound."""

import concurrent.futures
import multiprocessing
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.attacks import (
    SearchOptions,
    find_mismatched_split,
    get_attack,
    problem_from_saki,
    problem_from_split,
)
from repro.attacks import parallel
from repro.attacks.problem import CollusionProblem
from repro.baselines import saki_split
from repro.circuits import QuantumCircuit
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

    def test_pool_tasks_carry_only_their_range(
        self, mismatched_problem, monkeypatch
    ):
        # the workers' initializer receives the problem once; a task
        # pickles a function reference and two ints
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                sizes.append(len(pickle.dumps((fn, args, kwargs))))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", Recording
        )
        options = SearchOptions(chunk_size=4, record_all=True)
        attack = get_attack("mismatched")
        sequential = attack.search(mismatched_problem, options)
        pooled = attack.search(
            mismatched_problem, SearchOptions(
                chunk_size=4, record_all=True, jobs=2
            )
        )
        assert outcome_key(pooled) == outcome_key(sequential)
        assert len(sizes) == -(-sequential.search_space // 4) > 1
        assert max(sizes) <= 128
        assert max(sizes) < len(pickle.dumps(mismatched_problem)) // 4

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


class TestChunksCuttingBlocks:
    """The (5, 3) fixture's overlap-3 subset groups hold 3! = 6
    candidates and its overlap-2 groups 2, so chunks of 1 and 7
    candidates start and end inside groups."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 7])
    def test_full_search_equals_sequential_default(
        self, mismatched_problem, chunk_size, jobs
    ):
        attack = get_attack("mismatched")
        for prefilter in (True, False):
            default = attack.search(
                mismatched_problem,
                SearchOptions(prefilter=prefilter, record_all=True),
            )
            for seed in (None, 11):
                chunked = attack.search(
                    mismatched_problem,
                    SearchOptions(
                        prefilter=prefilter, record_all=True, seed=seed,
                        chunk_size=chunk_size, jobs=jobs,
                    ),
                )
                assert outcome_key(chunked) == outcome_key(default)

    @pytest.mark.parametrize("chunk_size", [1, 7])
    def test_early_exit_equals_sequential(
        self, mismatched_problem, chunk_size
    ):
        attack = get_attack("mismatched")
        first = attack.search(mismatched_problem).first_match
        for prefilter in (True, False):
            for seed in (None, 11):
                outcomes = [
                    attack.search(
                        mismatched_problem,
                        SearchOptions(
                            prefilter=prefilter, early_exit=True, seed=seed,
                            chunk_size=chunk_size, jobs=jobs,
                        ),
                    )
                    for jobs in (1, 2)
                ]
                assert outcome_key(outcomes[0]) == outcome_key(outcomes[1])
                assert first in outcomes[0].results
                if seed is None:
                    # the canonical prefix ends with the first match's chunk
                    last = -(-(first.index + 1) // chunk_size) * chunk_size
                    assert outcomes[0].enumerated == last


def test_composed_search_memory_is_bounded():
    """An 8-qubit same-width search in one chunk: 8! = 40,320 rows of
    one overlap, 2^8 table entries a row.  Checking them all in one
    gather would hold hundreds of MB; the composed check's slices keep
    the peak at a few of its 8 MB arrays."""
    rng = np.random.default_rng(5)
    segments = []
    for _ in range(2):
        qc = QuantumCircuit(8)
        for _ in range(24):
            qubits = [int(q) for q in rng.choice(8, 3, replace=False)]
            arity = int(rng.integers(1, 4))
            (qc.x, qc.cx, qc.ccx)[arity - 1](*qubits[:arity])
        segments.append(qc)
    problem = CollusionProblem(
        segments[0], segments[1], segments[0].compose(segments[1])
    )
    tracemalloc.start()
    try:
        outcome = get_attack("same-width").search(
            problem, SearchOptions(prefilter=False, chunk_size=10**6)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.candidates_tried == 40_320
    assert outcome.success
    assert peak < 48 * 2**20
