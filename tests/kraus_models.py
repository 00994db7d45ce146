"""Noise models that drive the trajectory ensemble's rarer general-Kraus
routes: a 2-qubit channel, a 1-qubit channel whose leading operator is
not diagonal (neither folds into the span ops), and the device model's
channel layout at rates high enough that jumps are common."""

import math

from repro.circuits.gates import gate_from_name
from repro.noise import (
    NoiseModel,
    QuantumChannel,
    amplitude_damping,
    depolarizing,
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


def exaggerated_model():
    """The Valencia-like layout at exaggerated rates: each CX is followed
    by a 2-qubit depolarizing channel (p = 0.3, mixed unitary) and then
    thermal relaxation on each qubit (gamma ~ 0.3), each 1-qubit gate by
    depolarizing (p = 0.05) composed with the same relaxation, and x by
    a depolarizing channel (p = 0.3).  Jumps at folded anchors, and Pauli
    branches between a fold and the span op that applies it, are then
    common instead of ~1% events."""
    relax = thermal_relaxation(50.0, 70.0, 17.8)  # 1 - exp(-17.8/50)
    model = NoiseModel()
    model.add_all_qubit_quantum_error(
        depolarizing(0.05).compose(relax), ["h", "x", "ry"]
    )
    model.add_all_qubit_quantum_error(
        depolarizing(0.3, num_qubits=2), ["cx"]
    )
    model.add_all_qubit_quantum_error(relax, ["cx"])
    # a Pauli channel after x's relaxation lands on its pending fold
    model.add_all_qubit_quantum_error(depolarizing(0.3), ["x"])
    return model
