"""Noise model: binding channels to instructions.

Mirrors the structure of Qiskit Aer's ``NoiseModel``: quantum errors
are attached to gate names, either for all qubits or for specific qubit
tuples, and readout errors are attached per qubit.  The noise-plan
lowering (:func:`repro.execution.noise_plan.build_noise_plan`) queries
:meth:`NoiseModel.errors_for` once per gate; both noisy engines then
execute that plan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._hashing import new_digest
from ..circuits.instruction import Instruction
from .channels import QuantumChannel, ReadoutError

__all__ = ["NoiseModel", "BoundError"]


class BoundError:
    """A channel together with the qubits (of an instruction) it acts on.

    ``qubit_slots`` indexes into the instruction's qubit tuple: a 1-qubit
    channel bound to slot ``(1,)`` of a CX acts on the target qubit.
    """

    def __init__(
        self, channel: QuantumChannel, qubit_slots: Tuple[int, ...]
    ) -> None:
        if channel.num_qubits != len(qubit_slots):
            raise ValueError("channel arity does not match qubit slots")
        self.channel = channel
        self.qubit_slots = qubit_slots

    def resolve(self, instruction: Instruction) -> Tuple[int, ...]:
        """Physical qubits this error acts on for *instruction*."""
        return tuple(instruction.qubits[slot] for slot in self.qubit_slots)

    def __repr__(self) -> str:
        return f"BoundError({self.channel.name}, slots={self.qubit_slots})"


class NoiseModel:
    """Per-gate quantum errors plus per-qubit readout errors."""

    def __init__(self, name: str = "noise") -> None:
        self.name = name
        # gate name -> list of (qubits-or-None, channel, slots-or-None)
        self._gate_errors: Dict[
            str,
            List[
                Tuple[
                    Optional[Tuple[int, ...]],
                    QuantumChannel,
                    Optional[Tuple[int, ...]],
                ]
            ],
        ] = {}
        self._readout_errors: Dict[int, ReadoutError] = {}
        # (gate name, qubit tuple) -> resolved bound errors; trajectory
        # simulators call errors_for once per instruction per shot, so
        # memoizing the match turns per-shot work into a dict lookup
        self._errors_memo: Dict[
            Tuple[str, Tuple[int, ...]], List[BoundError]
        ] = {}
        self._fingerprint: Optional[str] = None

    def _invalidate(self) -> None:
        self._errors_memo.clear()
        self._fingerprint = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_all_qubit_quantum_error(
        self, channel: QuantumChannel, gate_names: Sequence[str]
    ) -> "NoiseModel":
        """Attach *channel* to every occurrence of the named gates."""
        for name in gate_names:
            self._gate_errors.setdefault(name, []).append(
                (None, channel, None)
            )
        self._invalidate()
        return self

    def add_quantum_error(
        self,
        channel: QuantumChannel,
        gate_names: Sequence[str],
        qubits: Sequence[int],
        slots: Optional[Sequence[int]] = None,
    ) -> "NoiseModel":
        """Attach *channel* to the named gates on a specific qubit tuple.

        *slots* optionally restricts a narrower channel to specific
        positions of the gate's qubit tuple — e.g. a 1-qubit relaxation
        channel on slot 0 (the control) of a CX on qubits ``(a, b)``.
        """
        key = tuple(int(q) for q in qubits)
        slot_key = tuple(int(s) for s in slots) if slots is not None else None
        if slot_key is not None:
            if channel.num_qubits != len(slot_key):
                raise ValueError("channel arity does not match slots")
        elif channel.num_qubits != len(key):
            raise ValueError("channel arity does not match qubit tuple")
        for name in gate_names:
            self._gate_errors.setdefault(name, []).append(
                (key, channel, slot_key)
            )
        self._invalidate()
        return self

    def add_readout_error(
        self, error: ReadoutError, qubit: int
    ) -> "NoiseModel":
        self._readout_errors[int(qubit)] = error
        self._invalidate()
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def noisy_gate_names(self) -> List[str]:
        return sorted(self._gate_errors)

    def errors_for(self, instruction: Instruction) -> List[BoundError]:
        """Channels to apply after *instruction*, bound to its qubits.

        Channel arity resolution: an error whose arity matches the gate
        applies to the full qubit tuple; a 1-qubit error on a multi-qubit
        gate is applied to every qubit of the gate (the convention used
        when building backend noise from per-qubit calibration).
        """
        memo_key = (instruction.name, instruction.qubits)
        cached = self._errors_memo.get(memo_key)
        if cached is not None:
            return cached
        entries = self._gate_errors.get(instruction.name, [])
        bound: List[BoundError] = []
        for qubits, channel, slots in entries:
            if qubits is not None and qubits != instruction.qubits:
                continue
            if slots is not None:
                bound.append(BoundError(channel, slots))
                continue
            arity = channel.num_qubits
            width = len(instruction.qubits)
            if arity == width:
                bound.append(BoundError(channel, tuple(range(width))))
            elif arity == 1:
                bound.extend(
                    BoundError(channel, (slot,)) for slot in range(width)
                )
            else:
                raise ValueError(
                    f"cannot bind {arity}-qubit channel to "
                    f"{width}-qubit gate {instruction.name!r}"
                )
        self._errors_memo[memo_key] = bound
        return bound

    def fingerprint(self) -> str:
        """Content hash of the model, stable across processes.

        Keys noise-bound plan caches: two models with the same bindings
        and Kraus data share a fingerprint regardless of identity or
        insertion order of unrelated gates; any mutation through the
        ``add_*`` methods invalidates the cached value.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        digest = new_digest(digest_size=16)
        for name in sorted(self._gate_errors):
            digest.update(b"G")
            digest.update(name.encode())
            for qubits, channel, slots in self._gate_errors[name]:
                digest.update(repr(qubits).encode())
                digest.update(repr(slots).encode())
                digest.update(channel.num_qubits.to_bytes(2, "little"))
                for op in channel.kraus_operators:
                    digest.update(
                        np.ascontiguousarray(op, dtype=complex).tobytes()
                    )
        for qubit in sorted(self._readout_errors):
            error = self._readout_errors[qubit]
            digest.update(b"R")
            digest.update(qubit.to_bytes(4, "little", signed=True))
            digest.update(repr(error.prob_1_given_0).encode())
            digest.update(repr(error.prob_0_given_1).encode())
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def readout_error(self, qubit: int) -> Optional[ReadoutError]:
        return self._readout_errors.get(int(qubit))

    def has_readout_errors(self) -> bool:
        return bool(self._readout_errors)

    def is_trivial(self) -> bool:
        """True when the model contains no errors at all."""
        return not self._gate_errors and not self._readout_errors

    def __repr__(self) -> str:
        return (
            f"NoiseModel(name={self.name!r}, "
            f"gates={self.noisy_gate_names}, "
            f"readout_qubits={sorted(self._readout_errors)})"
        )
