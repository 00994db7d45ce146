"""The sequential full search's single pass and the group-first walk.

A sequential full search evaluates the whole candidate stream as one
range, whatever ``chunk_size`` is; a prefiltered range is walked group
first, building rows only for the subset groups the prefilter's group
tables admit, and any range builds only its own rows.  Both must leave
every outcome as the chunked walk without tables gives it.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.attacks import (
    SearchOptions,
    StructuralPrefilter,
    get_attack,
    problem_for,
)
from repro.attacks import matching, parallel
from repro.attacks.matching import matching_rows
from repro.revlib import benchmark_circuit


@pytest.fixture(scope="module")
def problem():
    """4gt13's interlocking split at seed 0: a (3, 4) pair, 73
    candidates."""
    problem = problem_for(benchmark_circuit("4gt13"), "mismatched", seed=0)
    assert problem.widths == (3, 4)
    return problem


@pytest.mark.parametrize("prefilter", [True, False])
def test_sequential_full_search_is_one_pass(problem, prefilter, monkeypatch):
    evaluate = parallel._evaluate_chunk
    calls = []

    def counted(task, context):
        calls.append((task.start, task.stop))
        return evaluate(task, context)

    monkeypatch.setattr(parallel, "_evaluate_chunk", counted)
    outcomes = []
    for chunk_size in (1, 7, 256):
        calls.clear()
        outcome = get_attack("mismatched").search(problem, SearchOptions(
            prefilter=prefilter, record_all=True, chunk_size=chunk_size,
        ))
        assert calls == [(0, 73)]
        outcomes.append(outcome)
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert outcomes[0].enumerated == 73
    assert outcomes[0].success


def indices(rows_stream, mask=None):
    """Every yielded row's candidate index, or only those *mask* keeps."""
    return [
        index
        for rows in rows_stream
        for index in (rows.index if mask is None else
                      rows.index[mask(rows)]).tolist()
    ]


def test_group_first_walk_equals_masked_plain_walk(problem):
    """Every range ``[start, stop)`` of the 73 candidates: the walk with
    the prefilter's group tables yields the rows of admitted groups of
    the walk without them, the prefilter admits the same rows of both,
    and a range's counters add up to its length."""
    segments = (problem.segment1, problem.segment2)
    prefilter = StructuralPrefilter(*segments, problem.oracle)
    context = parallel._chunk_context(parallel._ChunkTask(
        problem, "subset", 0, 73, prefilter=True, record_all=True,
    ))
    n1, n2 = problem.widths

    def in_admitted_group(rows):
        fits2, fits1 = prefilter.group_fits(n1, n2, rows.overlap)
        return fits2[rows.seg2] & fits1[rows.seg1]

    for start in range(73):
        for stop in range(start + 1, 74):
            def walk(groups=None):
                return matching_rows("subset", n1, n2, start, stop, groups)

            grouped = indices(walk(prefilter.group_fits))
            assert grouped == indices(walk(), in_admitted_group)
            admitted = indices(walk(), prefilter.admitted)
            assert indices(
                walk(prefilter.group_fits), prefilter.admitted
            ) == admitted
            report = parallel._evaluate_chunk(parallel._ChunkTask(
                problem, "subset", start, stop, prefilter=True,
                record_all=True,
            ), context)
            assert [r.index for r in report.records] == admitted
            assert report.tried == len(admitted)
            assert report.tried + report.pruned == stop - start


@pytest.mark.parametrize("cap", [2, 5])
def test_group_first_walk_keeps_the_row_bound(problem, cap, monkeypatch):
    """With at most *cap* rows a :class:`Rows`, fewer than the 6 of an
    overlap-3 group, the walk splits groups and still yields the rows of
    admitted groups of the walk without tables."""
    monkeypatch.setattr(matching, "_ROWS", cap)
    prefilter = StructuralPrefilter(
        problem.segment1, problem.segment2, problem.oracle
    )
    n1, n2 = problem.widths

    def in_admitted_group(rows):
        fits2, fits1 = prefilter.group_fits(n1, n2, rows.overlap)
        return fits2[rows.seg2] & fits1[rows.seg1]

    for start, stop in [(0, 73), (1, 72), (30, 50), (49, 70)]:
        grouped = list(
            matching_rows("subset", n1, n2, start, stop, prefilter.group_fits)
        )
        assert all(0 < len(rows) <= cap for rows in grouped)
        assert indices(grouped) == indices(
            matching_rows("subset", n1, n2, start, stop), in_admitted_group
        )


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("filtered", [False, True])
def test_narrow_range_builds_only_its_rows(n, filtered):
    """A 256-candidate range deep in an ``n``-qubit same-width stream
    (across the boundary of two 8!-row blocks at 9 qubits) allocates
    arrays of its own size: no ``n!``-row group (8! offsets alone are
    315 KiB) is built and then cut down to the range."""
    def admit_all(n1, n2, j):
        return np.ones(1, dtype=bool), np.ones(1, dtype=bool)

    groups = admit_all if filtered else None
    start = math.factorial(n - 1) * (n // 2) - 100

    def walk():
        return list(matching_rows("same-width", n, n, start, start + 256,
                                  groups))

    walk()  # warm the cached spans
    tracemalloc.start()
    try:
        rows = walk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert indices(rows) == list(range(start, start + 256))
    assert peak < 64 * 1024
