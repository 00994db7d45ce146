#!/usr/bin/env python3
"""Quickstart: protect one circuit with TetrisLock, end to end.

Walks the full flow on a small reversible circuit:

1. build the original circuit,
2. insert random self-inverse pairs into empty layer slots
   (Algorithm 1 — depth unchanged),
3. split along an interlocking boundary,
4. hand each segment to a different "untrusted compiler",
5. stitch the compiled segments back together and verify the
   original functionality survives (on a noisy FakeValencia-style
   simulation).

Run:  python examples/quickstart.py
"""

from repro import (
    QuantumCircuit,
    SplitCompilationFlow,
    TetrisLockObfuscator,
    interlocking_split,
    valencia_like_backend,
)
from repro.circuits import draw_circuit
from repro.execution import run as execute
from repro.synth import simulate_reversible


def main() -> None:
    # 1. the circuit to protect: a 4-qubit reversible design
    circuit = QuantumCircuit(4, name="secret_design")
    circuit.x(3).ccx(0, 1, 3).cx(1, 2).ccx(1, 2, 3).cx(0, 1)
    print("Original circuit (the IP to protect):")
    print(draw_circuit(circuit))
    print(f"depth={circuit.depth()}  gates={circuit.size()}\n")

    # 2. obfuscate: random X/CX pairs dropped into empty slots
    obfuscator = TetrisLockObfuscator(gate_limit=4, seed=42)
    insertion = obfuscator.obfuscate(circuit)
    print(f"Inserted {insertion.num_pairs} random pair(s); "
          f"depth {circuit.depth()} -> {insertion.obfuscated.depth()} "
          "(unchanged by construction)")
    print("Obfuscated circuit R†RC:")
    print(draw_circuit(insertion.obfuscated))
    print()

    # 3. interlocking split
    split = interlocking_split(insertion, seed=7)
    q1, q2 = split.qubit_counts
    print(f"Split 1: {split.segment1.compact.size()} gates on {q1} qubits")
    print(f"Split 2: {split.segment2.compact.size()} gates on {q2} qubits")
    print(f"Mismatched qubit counts: {split.mismatched_qubits}")
    left, right = split.exposure_fraction()
    print(f"Original-gate exposure: compiler1={left:.0%} "
          f"compiler2={right:.0%}\n")

    # 4. + 5. split-compile on a noisy device model and recombine
    backend = valencia_like_backend(circuit.num_qubits)
    flow = SplitCompilationFlow(backend, obfuscator=obfuscator, seed=42)
    compiled = flow.compile_split(split)
    measured = compiled.measured_circuit()
    # the execution layer auto-dispatches by cost: a noisy 4-qubit
    # run at 1000 shots goes to the exact density engine
    counts = execute(
        measured, shots=1000, noise_model=backend.noise_model(), seed=1
    )
    expected = format(
        simulate_reversible(circuit)(0), f"0{circuit.num_qubits}b"
    )
    print(f"Expected noiseless output: {expected}")
    print(f"Restored-circuit counts (top 3): {counts.top(3)}")
    print(f"Accuracy after de-obfuscation: {counts.fraction(expected):.3f}")


if __name__ == "__main__":
    main()
