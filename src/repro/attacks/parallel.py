"""Streaming search over a candidate-matching stream.

A search evaluates ranges ``[start, stop)`` of the canonical
enumeration, each an independent, picklable unit of work: it unranks
the range into :class:`~repro.attacks.matching.Rows` (group first when
prefiltering, so rejected subset groups never become rows) and
evaluates each at once — the prefilter's row mask, then the oracle's
probe-then-verify verdicts, no candidate circuit — returning records
for hits (or every checked row under ``record_all``).  Nothing the size
of the full space is ever materialised, in the parent or any worker.

A sequential full search walks the stream once, as ``[0, total)``.
Otherwise the stream is cut into chunks of ``SearchOptions.chunk_size``
(``[0, chunk), [chunk, 2*chunk), ...``): the pool runs one task per
chunk, and early exit stops after a chunk.  A pool task pickles only
its ``(start, stop)``; each worker's initializer receives the search
once and builds its oracle and prefilter from it.

Determinism contract (the part the tests pin):

* range *contents* depend only on the canonical enumeration order, so
  evaluating a range is a pure function of (problem, kind, range);
* full searches aggregate *every* candidate and sort records by
  candidate index, so the outcome does not depend on how the stream is
  cut: the one-pass sequential and chunked ``jobs=N`` runs are
  bit-identical;
* the **dispatch order** of chunks is the identity permutation, or a
  :class:`numpy.random.SeedSequence`-seeded shuffle when
  ``SearchOptions.seed`` is set — deterministic either way;
* early-exit searches aggregate exactly the dispatch-order prefix up
  to and including the first chunk containing a match.  The parallel
  path never cancels a chunk at or before the current cutoff and
  discards results beyond it, so it computes the same prefix the
  sequential path stops at — early exit is bit-identical too (workers
  may *evaluate* extra chunks; their results are discarded, only wall
  clock differs).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import AttackOutcome, CandidateOutcome, SearchOptions
from .matching import matching_count, matching_rows
from .oracle import MAX_UNITARY_QUBITS, EquivalenceOracle
from .prefilter import StructuralPrefilter
from .problem import CollusionProblem

__all__ = ["run_streaming_search"]


@dataclass(frozen=True)
class _ChunkTask:
    """Everything one worker needs to evaluate a stream range."""

    problem: CollusionProblem
    kind: str
    start: int
    stop: int
    prefilter: bool
    record_all: bool


@dataclass(frozen=True)
class _ChunkReport:
    tried: int
    pruned: int
    records: Tuple[CandidateOutcome, ...]

    @property
    def has_match(self) -> bool:
        return any(record.functional_match for record in self.records)


def _chunk_context(
    task: _ChunkTask,
) -> Tuple[EquivalenceOracle, Optional[StructuralPrefilter]]:
    """Build the per-problem state a range evaluation needs."""
    problem = task.problem
    segments = (problem.segment1, problem.segment2)
    oracle = EquivalenceOracle(problem.oracle, segments=segments)
    prefilter = (
        StructuralPrefilter(*segments, problem.oracle)
        if task.prefilter
        else None
    )
    return oracle, prefilter


# A pool worker's search and context: built once, by the pool's
# initializer, for the one search the pool serves (on an rd53 (6, 7)
# split the build costs about as much as the 256 candidates of a
# chunk), so a task carries only its range.
_WORKER_SEARCH: List[Tuple] = []


def _init_worker(search: _ChunkTask) -> None:
    _WORKER_SEARCH[:] = [search, _chunk_context(search)]


def _evaluate_range(start: int, stop: int) -> _ChunkReport:
    """A pool task: the range ``[start, stop)`` of the worker's search."""
    search, context = _WORKER_SEARCH
    return _evaluate_chunk(replace(search, start=start, stop=stop), context)


def _evaluate_chunk(
    task: _ChunkTask,
    context: Tuple[EquivalenceOracle, Optional[StructuralPrefilter]],
) -> _ChunkReport:
    """Evaluate one range of the candidate stream.

    *context* is the search's shared oracle and prefilter (a pool
    worker's is the one its initializer built), so reference tables and
    segment profiles are derived once per search and process.
    """
    n1, n2 = task.problem.widths
    oracle, prefilter = context
    groups = None if prefilter is None else prefilter.group_fits
    tried = 0
    records: List[CandidateOutcome] = []
    for rows in matching_rows(task.kind, n1, n2, task.start, task.stop,
                              groups):
        if prefilter is not None:
            rows = rows.select(prefilter.admitted(rows))
            if not len(rows):
                continue
        verdicts = oracle.verdicts(rows)
        tried += len(rows)
        for row in np.flatnonzero(verdicts | task.record_all):
            matching = rows.matching(row)
            records.append(
                CandidateOutcome(
                    index=matching.index,
                    mapping=matching.mapping,
                    num_qubits=matching.num_qubits,
                    functional_match=bool(verdicts[row]),
                )
            )
    pruned = task.stop - task.start - tried
    return _ChunkReport(tried=tried, pruned=pruned, records=tuple(records))


def _dispatch_order(
    num_chunks: int, seed: Optional[int]
) -> Sequence[int]:
    if seed is None:
        return range(num_chunks)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return [int(i) for i in rng.permutation(num_chunks)]


def _aggregate(
    attack_name: str,
    search_space: int,
    reports: Sequence[_ChunkReport],
    early_exit: bool,
) -> AttackOutcome:
    records = sorted(
        (record for report in reports for record in report.records),
        key=lambda record: record.index,
    )
    return AttackOutcome(
        attack=attack_name,
        search_space=search_space,
        candidates_tried=sum(report.tried for report in reports),
        pruned=sum(report.pruned for report in reports),
        matches=sum(
            1 for record in records if record.functional_match
        ),
        results=records,
        early_exit=early_exit,
    )


def run_streaming_search(
    problem: CollusionProblem,
    kind: str,
    attack_name: str,
    options: SearchOptions,
) -> AttackOutcome:
    """Search *problem*'s candidate stream under *options*."""
    if options.jobs <= 0:
        raise ValueError("jobs must be positive")
    if options.chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    n1, n2 = problem.widths
    total = matching_count(kind, n1, n2)
    if total > options.max_candidates:
        raise ValueError(
            f"{total} candidates exceed the cap "
            f"{options.max_candidates}; raise "
            f"SearchOptions.max_candidates to search anyway"
        )
    search = _ChunkTask(
        problem, kind, 0, total, options.prefilter, options.record_all
    )
    context = _chunk_context(search)
    widest = max(n1 + n2 * (kind != "same-width"), problem.oracle.num_qubits)
    if not context[0].composes and widest > MAX_UNITARY_QUBITS:
        raise ValueError(
            f"candidates up to {widest} qubits exceed the unitary "
            f"oracle's {MAX_UNITARY_QUBITS}"
        )
    if not options.early_exit and (
        options.jobs == 1 or total <= options.chunk_size
    ):
        # the outcome of a full search does not depend on chunking
        report = _evaluate_chunk(search, context)
        return _aggregate(attack_name, total, [report], early_exit=False)
    step = options.chunk_size
    ranges = [
        (start, min(start + step, total)) for start in range(0, total, step)
    ]
    order = _dispatch_order(len(ranges), options.seed)

    if options.jobs == 1 or len(ranges) <= 1:
        # early exit: chunks in dispatch order, up to the first match
        reports: List[_ChunkReport] = []
        for position in order:
            start, stop = ranges[position]
            report = _evaluate_chunk(
                replace(search, start=start, stop=stop), context
            )
            reports.append(report)
            if report.has_match:
                break
        return _aggregate(attack_name, total, reports, early_exit=True)

    workers = min(options.jobs, len(ranges))
    completed: Dict[int, _ChunkReport] = {}  # dispatch position -> report
    cutoff: Optional[int] = None  # first matching dispatch position
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(search,)
    ) as pool:
        futures = {
            pool.submit(_evaluate_range, *ranges[chunk_index]): position
            for position, chunk_index in enumerate(order)
        }
        for future in concurrent.futures.as_completed(futures):
            if future.cancelled():
                continue
            position = futures[future]
            report = future.result()
            completed[position] = report
            if not options.early_exit:
                continue
            if report.has_match and (cutoff is None or position < cutoff):
                cutoff = position
                # chunks past the cutoff can only waste work; chunks at
                # or before it must still finish for bit-identity with
                # the sequential prefix
                for other, other_position in futures.items():
                    if other_position > cutoff:
                        other.cancel()
        # cutoff is set by early exit alone
        kept = [
            completed[position]
            for position in sorted(completed)
            if cutoff is None or position <= cutoff
        ]
    return _aggregate(
        attack_name, total, kept, early_exit=options.early_exit
    )
