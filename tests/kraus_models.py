"""Noise models that drive the trajectory ensemble's rarer general-Kraus
routes: a 2-qubit channel, and a 1-qubit channel whose Gram matrices
are not diagonal (so its branch norms need the reduced density matrix
instead of the |amp|^2 marginals)."""

import math

from repro.circuits.gates import gate_from_name
from repro.noise import (
    NoiseModel,
    QuantumChannel,
    amplitude_damping,
    tensor_channel,
    thermal_relaxation,
)


def rotated_damping(gamma):
    """Amplitude damping towards |+> instead of |0>."""
    rotation = gate_from_name("ry", [math.pi / 2]).matrix
    return QuantumChannel(
        [
            rotation @ op @ rotation.conj().T
            for op in amplitude_damping(gamma).kraus_operators
        ],
        name=f"rotated_damping({gamma:g})",
    )


def two_qubit_kraus():
    """A 2-qubit general-Kraus channel (diagonal Grams, jump branches)."""
    return tensor_channel(
        amplitude_damping(0.1), thermal_relaxation(50.0, 70.0, 2.0)
    )


def kraus_route_models():
    """``{route: model}`` for the 2-qubit and non-diagonal-Gram routes."""
    two_qubit = NoiseModel()
    two_qubit.add_all_qubit_quantum_error(two_qubit_kraus(), ["cx"])
    rotated = NoiseModel()
    rotated.add_all_qubit_quantum_error(
        rotated_damping(0.3), ["h", "x", "ry", "rz"]
    )
    return {"two-qubit-kraus": two_qubit, "non-diagonal-gram": rotated}
