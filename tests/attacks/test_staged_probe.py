"""The oracle's staged probe against exact, per-candidate checks.

The composed check runs in tiers of inputs (input 0, the rest of the
first eight, the rest of all ``2^width``), each on the rows the earlier
tiers passed.  Whole ``record_all`` searches must equal
:func:`reference_attack.per_candidate_search` sequentially and on a
pool, at chunk sizes that cut the stream anywhere; a row that is right
on every probed input but wrong past them must still be rejected; and
every tier must see only new inputs, equal tiers collapsed.
"""

import numpy as np
import pytest

from repro.attacks import (
    EquivalenceOracle,
    SearchOptions,
    get_attack,
    problem_from_split,
    recombine_candidate,
)
from repro.attacks.matching import matching_rows
from repro.circuits import QuantumCircuit
from repro.core import insert_random_pairs, interlocking_split
from repro.revlib import benchmark_circuit
from repro.synth.truthtable import reversible_table
from reference_attack import per_candidate_search

# (benchmark, insertion seed, split seed) -> the split's widths
SPLITS = {
    ("rd53", 1, 0): (6, 7),  # 37,633 candidates
    ("rd53", 3, 3): (4, 7),  # 1,961 candidates
    ("4gt13", 0, 0): (3, 4),  # 73 candidates
}
JOBS_AND_CHUNKS = [(jobs, chunk) for jobs in (1, 2) for chunk in (1, 7, 256)]


def split_problem(name, insertion_seed, split_seed):
    insertion = insert_random_pairs(
        benchmark_circuit(name), gate_limit=4, seed=insertion_seed
    )
    return problem_from_split(interlocking_split(insertion, seed=split_seed))


@pytest.mark.parametrize(
    "split", list(SPLITS), ids=[f"{n}-i{i}-s{s}" for n, i, s in SPLITS]
)
def test_exhaustive_records_equal_the_reference(split):
    """No prefilter, so every row of every overlap reaches the oracle."""
    problem = split_problem(*split)
    assert problem.widths == SPLITS[split]
    tried, pruned, records = per_candidate_search(problem, "subset", False)
    assert sum(match for _, _, match in records) >= 1
    attack = get_attack("mismatched")
    for jobs, chunk_size in JOBS_AND_CHUNKS:
        if jobs == 2 and chunk_size == 1 and len(records) > 2000:
            continue  # one pool task per candidate: covered on the others
        outcome = attack.search(problem, SearchOptions(
            prefilter=False, record_all=True, jobs=jobs,
            chunk_size=chunk_size,
        ))
        assert (outcome.candidates_tried, outcome.pruned) == (tried, pruned)
        assert [
            (record.index, record.mapping, record.functional_match)
            for record in outcome.results
        ] == records, (jobs, chunk_size)


def mcx_circuit(num_qubits, controls, target):
    qc = QuantumCircuit(num_qubits)
    qc.mcx(controls, target)
    return qc


def same_width_rows(n):
    (rows,) = matching_rows("same-width", n, n)
    return rows


class TestProbedInputsAreNotTheVerdict:
    """Segment 2 flips qubit 0 where qubits 1-3 are set: inputs 14 and
    15 swap, so the composed table agrees with the identity on inputs
    0-13 — every probed input — and differs on the last."""

    def oracle(self, reference):
        segments = (QuantumCircuit(4), mcx_circuit(4, [1, 2, 3], 0))
        oracle = EquivalenceOracle(reference, segments=segments)
        assert oracle.composes
        return oracle, segments

    def test_row_right_on_the_probe_is_rejected(self):
        oracle, segments = self.oracle(QuantumCircuit(4))
        rows = same_width_rows(4)
        verdicts = oracle.verdicts(rows)
        identity = rows.slots.tolist().index([0, 1, 2, 3])
        candidate = recombine_candidate(
            *segments, dict(enumerate(range(4))), 4
        )
        table = reversible_table(candidate)
        assert table[:14].tolist() == list(range(14))
        assert table[15] != 15
        assert not verdicts[identity]
        # every row against its own circuit's full table
        expected = [
            oracle.check(recombine_candidate(
                *segments, dict(enumerate(slots)), 4
            ))
            for slots in rows.slots.tolist()
        ]
        assert verdicts.tolist() == expected
        assert not any(expected)

    def test_the_same_row_is_accepted_against_its_own_function(self):
        oracle, _ = self.oracle(mcx_circuit(4, [1, 2, 3], 0))
        rows = same_width_rows(4)
        verdicts = oracle.verdicts(rows)
        assert verdicts[rows.slots.tolist().index([0, 1, 2, 3])]


@pytest.mark.parametrize("width,tiers", [
    (1, [(0, 1), (1, 2)]),
    (3, [(0, 1), (1, 8)]),
    (4, [(0, 1), (1, 8), (8, 16)]),
])
def test_each_tier_checks_only_new_inputs(monkeypatch, width, tiers):
    """Tiers cover the inputs once, in order, equal tiers collapsed, and
    each later tier sees only rows the earlier ones passed."""
    reference = QuantumCircuit(width)
    reference.x(width - 1)
    segments = (QuantumCircuit(width), reference)
    oracle = EquivalenceOracle(reference, segments=segments)
    seen = []
    agree = oracle._agree

    def recording(slots, after1, expected):
        verdicts = agree(slots, after1, expected)
        seen.append((after1.tolist(), len(slots), int(verdicts.sum())))
        return verdicts

    monkeypatch.setattr(oracle, "_agree", recording)
    rows = same_width_rows(width)
    verdicts = oracle.verdicts(rows)
    inputs = np.arange(1 << width)
    assert [after1 for after1, _, _ in seen] == [
        inputs[lo:hi].tolist() for lo, hi in tiers
    ]
    assert seen[0][1] == len(rows)
    for (_, _, passed), (_, checked, _) in zip(seen, seen[1:]):
        assert checked == passed
    assert verdicts.sum() == seen[-1][2] >= 1
