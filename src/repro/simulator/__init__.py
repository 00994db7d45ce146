"""Simulation engines: statevector, unitary, trajectory and density.

All engines share the gate-application kernels in
:mod:`repro.simulator.kernels`; callers should normally go through the
dispatching entry point :func:`repro.execution.run` rather than
instantiating engines directly.
"""

from .counts import Counts, counts_from_outcomes, remap_bits
from .kernels import (
    apply_matrix_batch,
    apply_matrix_generic,
    apply_matrix_state,
)
from .observables import (
    expectation_value,
    parity_expectation_from_counts,
    pauli_string_matrix,
    z_expectation_from_counts,
)
from .density import DensityMatrix, DensityMatrixSimulator
from .statevector import Statevector, bitstring_to_index, format_bitstring
from .trajectory import (
    measures_are_terminal,
    sample_terminal_counts,
    terminal_distribution,
)
from .unitary import (
    circuit_unitary,
    circuits_equivalent,
    equal_up_to_global_phase,
    permutation_matrix,
)

__all__ = [
    "Statevector",
    "format_bitstring",
    "bitstring_to_index",
    "Counts",
    "counts_from_outcomes",
    "remap_bits",
    "apply_matrix_batch",
    "apply_matrix_generic",
    "apply_matrix_state",
    "measures_are_terminal",
    "sample_terminal_counts",
    "terminal_distribution",
    "DensityMatrix",
    "DensityMatrixSimulator",
    "circuit_unitary",
    "circuits_equivalent",
    "equal_up_to_global_phase",
    "permutation_matrix",
    "pauli_string_matrix",
    "expectation_value",
    "z_expectation_from_counts",
    "parity_expectation_from_counts",
]
