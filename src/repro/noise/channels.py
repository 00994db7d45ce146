"""Quantum noise channels in Kraus form.

The channels implemented here cover what IBM's fake-backend noise
models (the paper uses ``FakeValencia``) are built from: depolarizing
gate error, thermal relaxation (T1/T2) and readout error.  A channel is
a list of Kraus operators satisfying ``sum K_i^† K_i = I``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "QuantumChannel",
    "ReadoutError",
    "bit_flip",
    "phase_flip",
    "bit_phase_flip",
    "depolarizing",
    "amplitude_damping",
    "phase_damping",
    "thermal_relaxation",
    "tensor_channel",
]

_ATOL = 1e-8


def _read_only(array, dtype=complex) -> np.ndarray:
    """A frozen copy: channel tables are shared by every plan bound to
    the channel, and frozen matrices memoise identity checks."""
    array = np.array(array, dtype=dtype)
    array.setflags(write=False)
    return array


_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class QuantumChannel:
    """A CPTP map described by Kraus operators on ``num_qubits`` qubits."""

    def __init__(
        self,
        kraus_operators: Sequence[np.ndarray],
        name: str = "channel",
        validate: bool = True,
    ) -> None:
        ops = [_read_only(op) for op in kraus_operators]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        num_qubits = int(round(math.log2(dim)))
        if 2 ** num_qubits != dim:
            raise ValueError("Kraus dimension must be a power of two")
        for op in ops:
            if op.shape != (dim, dim):
                raise ValueError("all Kraus operators must share one shape")
        if validate:
            total = sum(op.conj().T @ op for op in ops)
            if not np.allclose(total, np.eye(dim), atol=1e-6):
                raise ValueError("Kraus operators do not sum to identity")
        self.kraus_operators: List[np.ndarray] = ops
        self.num_qubits = num_qubits
        self.name = name
        self._mixed_unitary_probs = self._detect_mixed_unitary()
        # lazily-built per-channel tables shared by every simulator
        # bound to this channel (see the properties below)
        self._mixed_unitary_cumulative: Optional[np.ndarray] = None
        self._mixed_unitary_scaled: Optional[tuple] = None
        self._kraus_grams: Optional[tuple] = None
        # trace-time bindings keyed by physical qubits, filled by
        # repro.execution.noise_plan.ChannelBinding.bind so that every
        # plan anchoring this channel on the same qubits shares one
        self.bindings: Dict[Tuple[int, ...], object] = {}
        dim = 2 ** self.num_qubits
        # per-operator "proportional to identity" flags: lets simulators
        # skip whole-batch applications of no-op branches
        self._scalar_identity_flags = [
            bool(
                abs(op[0, 0]) > 1e-12
                and np.allclose(op, op[0, 0] * np.eye(dim), atol=1e-12)
            )
            for op in self.kraus_operators
        ]

    @property
    def scalar_identity_flags(self) -> List[bool]:
        """Per Kraus operator: True when it is a scalar multiple of I."""
        return self._scalar_identity_flags

    def _detect_mixed_unitary(self) -> Optional[List[float]]:
        """Probabilities when every Kraus op is sqrt(p) * unitary.

        Mixed-unitary channels (Pauli/depolarizing families) admit an
        O(1) trajectory step: sample the branch from fixed weights
        instead of computing state-dependent norms.
        """
        dim = 2 ** self.num_qubits
        probs: List[float] = []
        for op in self.kraus_operators:
            gram = op.conj().T @ op
            p = float(gram[0, 0].real)
            if p < 0 or not np.allclose(gram, p * np.eye(dim), atol=1e-10):
                return None
            probs.append(p)
        total = sum(probs)
        if abs(total - 1.0) > 1e-8:
            return None
        return probs

    @property
    def mixed_unitary_probs(self) -> Optional[List[float]]:
        """Branch probabilities for mixed-unitary channels, else None."""
        return self._mixed_unitary_probs

    @property
    def mixed_unitary_cumulative(self) -> Optional[np.ndarray]:
        """Cumulative branch probabilities for mixed-unitary channels.

        Computed once per channel so trajectory simulators stop calling
        ``np.cumsum`` for every shot at every channel anchor.
        """
        if self._mixed_unitary_probs is None:
            return None
        if self._mixed_unitary_cumulative is None:
            self._mixed_unitary_cumulative = _read_only(
                np.cumsum(self._mixed_unitary_probs), float
            )
        return self._mixed_unitary_cumulative

    @property
    def mixed_unitary_scaled(self) -> Optional[tuple]:
        """Pre-scaled branch unitaries ``K_i / sqrt(p_i)`` (None at p=0)."""
        if self._mixed_unitary_probs is None:
            return None
        if self._mixed_unitary_scaled is None:
            scaled = []
            for op, weight in zip(
                self.kraus_operators, self._mixed_unitary_probs
            ):
                scaled.append(
                    _read_only(op / np.sqrt(weight)) if weight > 0 else None
                )
            self._mixed_unitary_scaled = tuple(scaled)
        return self._mixed_unitary_scaled

    @property
    def kraus_grams(self) -> tuple:
        """Per-operator Gram matrices ``K_i^† K_i``.

        General-Kraus branch probabilities on a state are
        ``Tr(K^† K rho)``; caching the Grams lets batched simulators
        evaluate all branches with one einsum against the reduced
        density matrix.
        """
        if self._kraus_grams is None:
            self._kraus_grams = tuple(
                _read_only(op.conj().T @ op) for op in self.kraus_operators
            )
        return self._kraus_grams

    def is_unital(self) -> bool:
        """True when the channel maps identity to identity."""
        dim = 2 ** self.num_qubits
        total = sum(op @ op.conj().T for op in self.kraus_operators)
        return bool(np.allclose(total, np.eye(dim), atol=1e-6))

    def compose(self, other: "QuantumChannel") -> "QuantumChannel":
        """Channel applying ``self`` then ``other`` (same qubit count)."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit counts differ")
        ops = [
            b @ a
            for a in self.kraus_operators
            for b in other.kraus_operators
        ]
        return QuantumChannel(ops, name=f"{self.name};{other.name}")

    def __repr__(self) -> str:
        return (
            f"QuantumChannel(name={self.name!r}, qubits={self.num_qubits}, "
            f"kraus={len(self.kraus_operators)})"
        )


def tensor_channel(
    first: QuantumChannel, second: QuantumChannel
) -> QuantumChannel:
    """Tensor product channel; *first* acts on the more significant qubits.

    Matches the gate-matrix convention: for a CX on (control, target),
    ``tensor_channel(control_channel, target_channel)`` applies each
    factor to the corresponding qubit.
    """
    ops = [
        np.kron(a, b)
        for a in first.kraus_operators
        for b in second.kraus_operators
    ]
    return QuantumChannel(ops, name=f"{first.name}(x){second.name}")


# ---------------------------------------------------------------------------
# standard single-qubit channels
# ---------------------------------------------------------------------------


def _check_probability(p: float, upper: float = 1.0) -> None:
    if not 0.0 <= p <= upper + 1e-12:
        raise ValueError(f"probability {p} outside [0, {upper}]")


def bit_flip(p: float) -> QuantumChannel:
    """Apply X with probability *p*."""
    _check_probability(p)
    return QuantumChannel(
        [math.sqrt(1 - p) * _PAULIS["I"], math.sqrt(p) * _PAULIS["X"]],
        name=f"bit_flip({p:g})",
    )


def phase_flip(p: float) -> QuantumChannel:
    """Apply Z with probability *p*."""
    _check_probability(p)
    return QuantumChannel(
        [math.sqrt(1 - p) * _PAULIS["I"], math.sqrt(p) * _PAULIS["Z"]],
        name=f"phase_flip({p:g})",
    )


def bit_phase_flip(p: float) -> QuantumChannel:
    """Apply Y with probability *p*."""
    _check_probability(p)
    return QuantumChannel(
        [math.sqrt(1 - p) * _PAULIS["I"], math.sqrt(p) * _PAULIS["Y"]],
        name=f"bit_phase_flip({p:g})",
    )


def depolarizing(p: float, num_qubits: int = 1) -> QuantumChannel:
    """Uniform depolarizing channel on *num_qubits* qubits.

    With probability *p* the state is replaced by the maximally mixed
    state; implemented as the uniform Pauli-twirl Kraus set.
    """
    _check_probability(p)
    if num_qubits < 1:
        raise ValueError("depolarizing channel needs at least one qubit")
    labels = ["I", "X", "Y", "Z"]
    num_paulis = 4 ** num_qubits
    ops: List[np.ndarray] = []
    for index in range(num_paulis):
        op = np.array([[1.0 + 0j]])
        rem = index
        for _ in range(num_qubits):
            op = np.kron(op, _PAULIS[labels[rem % 4]])
            rem //= 4
        if index == 0:
            weight = math.sqrt(1 - p + p / num_paulis)
        else:
            weight = math.sqrt(p / num_paulis)
        if weight > 0:
            ops.append(weight * op)
    return QuantumChannel(ops, name=f"depolarizing({p:g},{num_qubits})")


def amplitude_damping(gamma: float) -> QuantumChannel:
    """T1 relaxation: |1> decays to |0> with probability *gamma*."""
    _check_probability(gamma)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return QuantumChannel([k0, k1], name=f"amplitude_damping({gamma:g})")


def phase_damping(lam: float) -> QuantumChannel:
    """Pure dephasing with probability *lam*."""
    _check_probability(lam)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex)
    k1 = np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)
    return QuantumChannel([k0, k1], name=f"phase_damping({lam:g})")


def thermal_relaxation(
    t1: float, t2: float, gate_time: float
) -> QuantumChannel:
    """Combined T1/T2 relaxation over *gate_time* (all in same units).

    Requires ``t2 <= 2 * t1`` (physicality).  Implemented as amplitude
    damping with ``gamma = 1 - exp(-t/T1)`` composed with the extra pure
    dephasing needed to reach the requested T2.
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("T1 and T2 must be positive")
    if t2 > 2 * t1 + 1e-12:
        raise ValueError("thermal relaxation requires T2 <= 2*T1")
    if gate_time < 0:
        raise ValueError("gate time must be non-negative")
    gamma = 1.0 - math.exp(-gate_time / t1)
    # total phase coherence decay: exp(-t/T2) = exp(-t/(2 T1)) * sqrt(1-lam)
    pure_dephasing_rate = 1.0 / t2 - 1.0 / (2.0 * t1)
    lam = 1.0 - math.exp(-2.0 * gate_time * pure_dephasing_rate)
    lam = min(max(lam, 0.0), 1.0)
    channel = amplitude_damping(gamma).compose(phase_damping(lam))
    channel.name = f"thermal_relaxation(t1={t1:g},t2={t2:g},t={gate_time:g})"
    return channel


# ---------------------------------------------------------------------------
# readout error
# ---------------------------------------------------------------------------


class ReadoutError:
    """Classical measurement assignment error for one qubit.

    ``prob_1_given_0`` is P(read 1 | prepared 0); ``prob_0_given_1`` is
    P(read 0 | prepared 1).  IBM calibration data reports these as
    ``prob_meas1_prep0`` / ``prob_meas0_prep1``.
    """

    def __init__(self, prob_1_given_0: float, prob_0_given_1: float) -> None:
        _check_probability(prob_1_given_0)
        _check_probability(prob_0_given_1)
        self.prob_1_given_0 = float(prob_1_given_0)
        self.prob_0_given_1 = float(prob_0_given_1)

    def flip_probability(self, true_bit: int) -> float:
        """Probability that *true_bit* is read out flipped."""
        return self.prob_1_given_0 if true_bit == 0 else self.prob_0_given_1

    def apply(self, true_bit: int, rng: np.random.Generator) -> int:
        """Sample the read-out value for *true_bit*."""
        if rng.random() < self.flip_probability(true_bit):
            return 1 - true_bit
        return true_bit

    def assignment_matrix(self) -> np.ndarray:
        """Column-stochastic matrix ``M[read, true]``."""
        return np.array(
            [
                [1 - self.prob_1_given_0, self.prob_0_given_1],
                [self.prob_1_given_0, 1 - self.prob_0_given_1],
            ]
        )

    def average_error(self) -> float:
        return (self.prob_1_given_0 + self.prob_0_given_1) / 2.0

    def __repr__(self) -> str:
        return (
            f"ReadoutError(p10={self.prob_1_given_0:g}, "
            f"p01={self.prob_0_given_1:g})"
        )
