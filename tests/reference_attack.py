"""Reference attack pieces the test suite checks the adversary
subsystem against.

:func:`same_width_verdicts` is the plain loop
:class:`repro.attacks.SameWidthBruteForce` streams and parallelises:
every bijection of segment-2 qubits onto segment-1 qubits, in
``itertools.permutations`` order, each recombined candidate compared
with the original circuit's unitary up to global phase.  No chunking,
prefilter or truth-table shortcut.

:func:`structurally_admitted` is the per-slot histogram comparison
:class:`repro.attacks.StructuralPrefilter` tabulates, run on each
candidate's circuit.

:func:`per_candidate_search` is the whole search the array search
evaluates, one candidate circuit at a time: every matching of the
canonical stream, built by ``itertools``, recombined, filtered by
:func:`structurally_admitted` and compared with the reference by a
truth table or a unitary.
"""

from collections import Counter
from itertools import combinations, permutations

import numpy as np

from repro.attacks import recombine_candidate
from repro.attacks.prefilter import edge_histogram, qubit_histograms
from repro.simulator.unitary import circuit_unitary, equal_up_to_global_phase


def same_width_verdicts(segment1, segment2, original):
    """``[(mapping, functional_match), ...]`` in canonical order.

    *mapping* sends each segment-2 qubit to a segment-1 qubit.
    """
    n = segment1.num_qubits
    if segment2.num_qubits != n or original.num_qubits != n:
        raise ValueError("the reference attack needs three equal widths")
    reference = circuit_unitary(original.remove_final_measurements())
    verdicts = []
    for perm in permutations(range(n)):
        mapping = dict(enumerate(perm))
        candidate = segment1.compose(segment2.remap_qubits(mapping, n))
        verdicts.append((
            mapping,
            equal_up_to_global_phase(circuit_unitary(candidate), reference),
        ))
    return verdicts


def structurally_admitted(problem, matching):
    """The prefilter's rule on the built candidate circuit.

    True when every slot's per-qubit gate histogram of
    ``recombine_candidate(...)``, padded with empty histograms to the
    reference width, equals the reference's, and so does its labelled
    edge multiset.
    """
    return _admitted_circuit(problem, recombine_candidate(
        problem.segment1,
        problem.segment2,
        matching.mapping_dict(),
        matching.num_qubits,
    ))


def _admitted_circuit(problem, candidate):
    have = qubit_histograms(candidate)
    want = qubit_histograms(problem.oracle)
    empty = Counter()
    for slot in range(max(len(have), len(want))):
        if (have[slot] if slot < len(have) else empty) != (
            want[slot] if slot < len(want) else empty
        ):
            return False
    return edge_histogram(candidate) == edge_histogram(problem.oracle)


def _truth_table(circuit, width):
    """The circuit's permutation of ``2^width`` inputs (idle qubits
    above its own pass through), or None when a gate is not
    classical-reversible."""
    table = np.arange(1 << width)
    for inst in circuit:
        if not inst.is_gate:
            continue
        qubits = inst.qubits
        if inst.name in ("x", "cx", "ccx") or inst.name.startswith("mcx"):
            controls = sum(1 << q for q in qubits[:-1])
            hit = (table & controls) == controls
            table = np.where(hit, table ^ (1 << qubits[-1]), table)
        elif inst.name in ("swap", "cswap"):
            *controls, a, b = qubits
            controls = sum(1 << q for q in controls)
            differ = ((table >> a) ^ (table >> b)) & 1
            hit = ((table & controls) == controls) & (differ == 1)
            table = np.where(hit, table ^ ((1 << a) | (1 << b)), table)
        else:
            return None
    return table


def _unitary(circuit, width):
    extra = width - circuit.num_qubits
    return np.kron(np.eye(1 << extra), circuit_unitary(circuit))


def _candidates(kind, n1, n2):
    """``(index, mapping, num_qubits)`` in canonical order: overlap
    ``j`` ascending, subsets in ``combinations`` order, bijections in
    ``permutations`` order, unmatched segment-2 qubits on ancillas
    ``n1, n1+1, ...``.  The same-width stream is ``j = n`` alone."""
    overlaps = [n1] if kind == "same-width" else range(min(n1, n2) + 1)
    index = 0
    for j in overlaps:
        for seg2 in combinations(range(n2), j):
            rest = [q for q in range(n2) if q not in seg2]
            for seg1 in combinations(range(n1), j):
                for perm in permutations(seg1):
                    mapping = dict(zip(seg2, perm))
                    mapping.update(
                        (q, n1 + rank) for rank, q in enumerate(rest)
                    )
                    yield index, mapping, n1 + n2 - j
                    index += 1


def per_candidate_search(problem, kind, prefilter):
    """``(tried, pruned, [(index, mapping, functional_match), ...])``
    for every candidate the search checks, *mapping* as sorted
    ``(segment-2 qubit, slot)`` pairs — what a ``record_all`` search
    reports."""
    reference = problem.oracle
    wanted = {}  # width -> the reference's padded table
    tried = pruned = 0
    records = []
    for index, mapping, num_qubits in _candidates(kind, *problem.widths):
        candidate = recombine_candidate(
            problem.segment1, problem.segment2, mapping, num_qubits
        )
        if prefilter and not _admitted_circuit(problem, candidate):
            pruned += 1
            continue
        tried += 1
        width = max(num_qubits, reference.num_qubits)
        if width not in wanted:
            wanted[width] = _truth_table(reference, width)
        have = _truth_table(candidate, width)
        if have is not None and wanted[width] is not None:
            match = bool(np.array_equal(have, wanted[width]))
        else:
            match = bool(equal_up_to_global_phase(
                _unitary(candidate, width), _unitary(reference, width)
            ))
        records.append((index, tuple(sorted(mapping.items())), match))
    return tried, pruned, records
