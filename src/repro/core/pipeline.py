"""End-to-end evaluation pipeline for one circuit.

Reproduces the measurement procedure of the paper's Sec. V for a single
benchmark and iteration:

1. compile and simulate the **original** circuit on the noisy backend
   (accuracy baseline, Table I column "Accuracy");
2. obfuscate, split, and measure the structural overhead (depth and
   gate-count columns);
3. compile and simulate the compiler-visible **obfuscated** circuit
   ``RC`` (Figure 4's "obfuscated" TVD — functionality corrupted);
4. split-compile with two untrusted compilers, recombine, simulate the
   **restored** circuit (Figure 4's "restored" TVD and Table I's
   "Accuracy restored").

The noisy backend defaults to FakeValencia for circuits that fit on 5
qubits and to the Valencia-calibrated widening otherwise (see
DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..execution import Counts, run as execute
from ..metrics.accuracy import accuracy
from ..metrics.tvd import tvd_counts, tvd_to_reference
from ..noise.backend import Backend, valencia_like_backend
from ..synth.truthtable import reversible_table
from ..transpiler.transpile import TranspileResult, transpile
from .deobfuscate import CompiledSplit, SplitCompilationFlow
from .obfuscate import TetrisLockObfuscator
from .split import interlocking_split

__all__ = ["EvaluationResult", "TetrisLockPipeline", "evaluate_iteration"]


@dataclass
class EvaluationResult:
    """All quantities of one pipeline run (one Table I iteration)."""

    name: str
    depth_original: int
    depth_obfuscated: int
    gates_original: int
    gates_obfuscated: int
    inserted_gates: int
    split_qubits: tuple
    counts_original: Counts
    counts_obfuscated: Counts
    counts_restored: Counts
    expected_bitstring: str

    # -- derived metrics -------------------------------------------------
    @property
    def accuracy_original(self) -> float:
        return accuracy(self.counts_original, self.expected_bitstring)

    @property
    def accuracy_restored(self) -> float:
        return accuracy(self.counts_restored, self.expected_bitstring)

    @property
    def accuracy_change(self) -> float:
        return abs(self.accuracy_original - self.accuracy_restored)

    @property
    def tvd_obfuscated(self) -> float:
        """TVD of the obfuscated circuit vs the theoretical output."""
        return tvd_to_reference(self.counts_obfuscated, self.expected_bitstring)

    @property
    def tvd_restored(self) -> float:
        return tvd_to_reference(self.counts_restored, self.expected_bitstring)

    @property
    def tvd_original(self) -> float:
        return tvd_to_reference(self.counts_original, self.expected_bitstring)

    @property
    def tvd_obfuscated_vs_original(self) -> float:
        """Distribution distance between obfuscated and original runs."""
        return tvd_counts(self.counts_obfuscated, self.counts_original)

    @property
    def gate_change_pct(self) -> float:
        if self.gates_original == 0:
            return 0.0
        return 100.0 * (
            self.gates_obfuscated - self.gates_original
        ) / self.gates_original

    @property
    def depth_preserved(self) -> bool:
        return self.depth_obfuscated <= self.depth_original

    # -- persistence -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form for the experiment result store.

        Only raw quantities are stored — every derived metric is a
        property recomputed from them, so a round-trip through
        :meth:`from_dict` is bit-identical.
        """
        return {
            "name": self.name,
            "depth_original": self.depth_original,
            "depth_obfuscated": self.depth_obfuscated,
            "gates_original": self.gates_original,
            "gates_obfuscated": self.gates_obfuscated,
            "inserted_gates": self.inserted_gates,
            "split_qubits": list(self.split_qubits),
            "counts_original": self.counts_original.to_dict(),
            "counts_obfuscated": self.counts_obfuscated.to_dict(),
            "counts_restored": self.counts_restored.to_dict(),
            "expected_bitstring": self.expected_bitstring,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationResult":
        return cls(
            name=data["name"],
            depth_original=int(data["depth_original"]),
            depth_obfuscated=int(data["depth_obfuscated"]),
            gates_original=int(data["gates_original"]),
            gates_obfuscated=int(data["gates_obfuscated"]),
            inserted_gates=int(data["inserted_gates"]),
            split_qubits=tuple(data["split_qubits"]),
            counts_original=Counts.from_dict(data["counts_original"]),
            counts_obfuscated=Counts.from_dict(data["counts_obfuscated"]),
            counts_restored=Counts.from_dict(data["counts_restored"]),
            expected_bitstring=data["expected_bitstring"],
        )


class TetrisLockPipeline:
    """Reusable evaluation pipeline bound to a backend + simulator."""

    def __init__(
        self,
        backend: Optional[Backend] = None,
        shots: int = 1000,
        gate_limit: int = 4,
        gate_pool: Sequence[str] = ("x", "cx"),
        seed: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        self.backend = backend
        self.shots = shots
        self.gate_limit = gate_limit
        self.gate_pool = tuple(gate_pool)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        else:
            self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _backend_for(self, circuit: QuantumCircuit) -> Backend:
        if self.backend is not None:
            return self.backend
        return valencia_like_backend(max(circuit.num_qubits, 2))

    def _simulate(
        self,
        result: TranspileResult,
        backend: Backend,
        num_virtual: int,
    ) -> Counts:
        """Measure every virtual qubit of a compiled circuit, noisily."""
        circuit = result.circuit.copy()
        circuit.num_clbits = max(circuit.num_clbits, num_virtual)
        for v in range(num_virtual):
            circuit.measure(result.final_layout.physical(v), v)
        return execute(
            circuit,
            self.shots,
            noise_model=backend.noise_model(),
            seed=self._rng,
        )

    def _simulate_restored(
        self, compiled: CompiledSplit, backend: Backend
    ) -> Counts:
        return execute(
            compiled.measured_circuit(),
            self.shots,
            noise_model=backend.noise_model(),
            seed=self._rng,
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        circuit: QuantumCircuit,
        name: Optional[str] = None,
        output_qubits: Optional[Sequence[int]] = None,
    ) -> EvaluationResult:
        """One full evaluation iteration on *circuit*.

        *output_qubits* restricts metrics to the circuit's primary
        outputs, following the paper's convention (the 1-bit adder is
        scored on its single output bit, the rd family on its 3–4
        output bits).  Default: every qubit.
        """
        backend = self._backend_for(circuit)
        if output_qubits is None:
            output_qubits = tuple(range(circuit.num_qubits))
        output_qubits = tuple(sorted(output_qubits))
        full_expected = format(
            int(reversible_table(circuit)[0]), f"0{circuit.num_qubits}b"
        )
        reversed_bits = full_expected[::-1]
        expected = "".join(reversed_bits[q] for q in output_qubits)[::-1]

        compiled_original = transpile(
            circuit,
            backend=backend,
            optimization_level=2,
        )
        counts_original = self._simulate(
            compiled_original, backend, circuit.num_qubits
        )

        obfuscator = TetrisLockObfuscator(
            gate_limit=self.gate_limit,
            gate_pool=self.gate_pool,
            seed=self._rng,
        )
        insertion = obfuscator.obfuscate(circuit)
        split = interlocking_split(insertion, seed=self._rng)

        rc = insertion.rc_circuit()
        compiled_rc = transpile(
            rc,
            backend=backend,
            optimization_level=2,
        )

        flow = SplitCompilationFlow(
            backend,
            obfuscator=obfuscator,
            seed=self._rng,
        )
        counts_obfuscated = self._simulate(
            compiled_rc, backend, circuit.num_qubits
        )

        compiled_split = flow.compile_split(split)
        counts_restored = self._simulate_restored(compiled_split, backend)

        return EvaluationResult(
            name=name or circuit.name,
            depth_original=circuit.depth(),
            depth_obfuscated=rc.depth(),
            gates_original=circuit.size(),
            gates_obfuscated=rc.size(),
            inserted_gates=insertion.num_inserted_gates,
            split_qubits=split.qubit_counts,
            counts_original=counts_original.marginal(output_qubits),
            counts_obfuscated=counts_obfuscated.marginal(output_qubits),
            counts_restored=counts_restored.marginal(output_qubits),
            expected_bitstring=expected,
        )


def evaluate_iteration(
    circuit: QuantumCircuit,
    name: Optional[str],
    output_qubits: Optional[Sequence[int]],
    shots: int,
    gate_limit: int,
    seed: np.random.SeedSequence,
) -> EvaluationResult:
    """One Sec. V iteration as a pure function of its arguments.

    The per-iteration step of Table I / Figure 4 cells and of the
    service's ``evaluate`` jobs, which both spawn one *seed* child per
    iteration.
    """
    pipeline = TetrisLockPipeline(
        shots=shots, gate_limit=gate_limit, seed=np.random.default_rng(seed)
    )
    return pipeline.evaluate(circuit, name=name, output_qubits=output_qubits)
