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
"""

from collections import Counter
from itertools import permutations

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
    candidate = recombine_candidate(
        problem.segment1,
        problem.segment2,
        matching.mapping_dict(),
        matching.num_qubits,
    )
    have = qubit_histograms(candidate)
    want = qubit_histograms(problem.oracle)
    empty = Counter()
    for slot in range(max(len(have), len(want))):
        if (have[slot] if slot < len(have) else empty) != (
            want[slot] if slot < len(want) else empty
        ):
            return False
    return edge_histogram(candidate) == edge_histogram(problem.oracle)
