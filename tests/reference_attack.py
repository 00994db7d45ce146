"""Reference same-width collusion attack the test suite checks
:class:`repro.attacks.SameWidthBruteForce` against.

The plain loop the registered attack streams and parallelises: every
bijection of segment-2 qubits onto segment-1 qubits, in
``itertools.permutations`` order, each recombined candidate compared
with the original circuit's unitary up to global phase.  No chunking,
prefilter or truth-table shortcut.
"""

from itertools import permutations

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
