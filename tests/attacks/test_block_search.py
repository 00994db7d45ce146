"""The array search against the per-candidate reference search.

Every problem below is searched with and without the prefilter, under
``record_all``, at the default chunk size and at chunk sizes 1 and 7
(whose chunks cut subset groups): the counters and every checked
candidate's ``(index, mapping, functional_match)`` must equal what
:func:`reference_attack.per_candidate_search` finds by recombining and
checking each candidate circuit on its own.  The rd53 (4, 7) problem
is also searched on a process pool, and the same-width problems with
early exit, against the reference's canonical prefix.  The problems are
interlocking splits of 4gt13, 4mod5 and rd53 over several insertion
and split seeds, Saki same-width splits, and splits of a
non-reversible circuit (the oracle's unitary path); each has at most
2,000 candidates.
"""

import pytest

from repro.attacks import (
    SearchOptions,
    get_attack,
    problem_from_saki,
    problem_from_split,
    subset_matching_count,
)
from repro.baselines import saki_split
from repro.circuits import QuantumCircuit
from repro.core import insert_random_pairs, interlocking_split
from repro.revlib import benchmark_circuit
from reference_attack import per_candidate_search

# (benchmark, insertion seed, split seed); every split seed of these
# insertions gives a space of at most 2,000 candidates, and rd53's
# split seed 3 gives its (4, 7) split (1,961 candidates)
SPLITS = (
    [("4gt13", i, s) for i in range(4) for s in range(4)]
    + [("4mod5", i, s) for i in range(3) for s in range(4)]
    + [("rd53", 3, 3), ("rd53", 29, 3)]
    + [("h-cx-t", 0, s) for s in range(2)]
)
SAKI = [(name, seed) for name in ("4gt13", "4mod5") for seed in range(4)]


def h_cx_t_circuit(num_qubits=4):
    """A non-reversible target: an h layer, a cx chain, a t layer."""
    qc = QuantumCircuit(num_qubits)
    for q in range(num_qubits):
        qc.h(q)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    for q in range(num_qubits):
        qc.t(q)
    return qc


def circuit(name):
    return h_cx_t_circuit() if name == "h-cx-t" else benchmark_circuit(name)


def outcome_records(outcome):
    return [
        (record.index, record.mapping, record.functional_match)
        for record in outcome.results
    ]


def reference_prefix(reference, chunk_size):
    """The reference search cut where an early-exit search in canonical
    chunk order stops: after the chunk holding the first match."""
    _, _, records = reference
    first = min(index for index, _, match in records if match)
    last = (first // chunk_size + 1) * chunk_size
    kept = [record for record in records if record[0] < last]
    total = sum(reference[:2])
    return len(kept), min(last, total) - len(kept), kept


def assert_search_matches_reference(
    problem, kind, attack, chunk_sizes=(256, 1, 7), **options
):
    """Both prefilter settings at each chunk size (1 and 7 cut subset
    groups) against :func:`per_candidate_search`; an early-exit search
    against the reference's canonical prefix."""
    for prefilter in (False, True):
        reference = per_candidate_search(problem, kind, prefilter)
        for chunk_size in chunk_sizes:
            outcome = get_attack(attack).search(problem, SearchOptions(
                prefilter=prefilter, record_all=True, chunk_size=chunk_size,
                **options,
            ))
            tried, pruned, records = (
                reference_prefix(reference, chunk_size)
                if options.get("early_exit") else reference
            )
            assert outcome.candidates_tried == tried
            assert outcome.pruned == pruned
            assert outcome_records(outcome) == records
            assert outcome.matches == sum(match for _, _, match in records)
            assert outcome.success


@pytest.mark.parametrize(
    "name,insertion_seed,split_seed", SPLITS,
    ids=[f"{n}-i{i}-s{s}" for n, i, s in SPLITS],
)
def test_interlocking_split(name, insertion_seed, split_seed):
    insertion = insert_random_pairs(
        circuit(name), gate_limit=4, seed=insertion_seed
    )
    split = interlocking_split(insertion, seed=split_seed)
    problem = problem_from_split(split)
    assert subset_matching_count(*problem.widths) <= 2000
    assert_search_matches_reference(problem, "subset", "mismatched")


def test_rd53_pool_search():
    insertion = insert_random_pairs(
        benchmark_circuit("rd53"), gate_limit=4, seed=3
    )
    problem = problem_from_split(interlocking_split(insertion, seed=3))
    assert problem.widths == (4, 7)
    assert_search_matches_reference(
        problem, "subset", "mismatched", chunk_sizes=(256, 7), jobs=2
    )


@pytest.mark.parametrize(
    "name,seed", SAKI, ids=[f"{n}-s{s}" for n, s in SAKI]
)
def test_saki_same_width_split(name, seed):
    problem = problem_from_saki(saki_split(benchmark_circuit(name), seed=seed))
    assert_search_matches_reference(problem, "same-width", "same-width")


@pytest.mark.parametrize(
    "name,seed", SAKI, ids=[f"{n}-s{s}" for n, s in SAKI]
)
def test_saki_same_width_early_exit(name, seed):
    problem = problem_from_saki(saki_split(benchmark_circuit(name), seed=seed))
    assert_search_matches_reference(
        problem, "same-width", "same-width", early_exit=True
    )
