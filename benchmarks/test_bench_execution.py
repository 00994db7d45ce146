"""Execution-layer benchmarks: specialized vs generic kernels, dispatch.

The tentpole claim behind :mod:`repro.simulator.kernels` is that the
1-/2-qubit axis-move + GEMM paths beat the generic ``tensordot`` +
``moveaxis`` route on the shot batches every noisy experiment runs.
These benches pin both routes side by side (same circuit, same batch)
so the speedup — and any regression — shows up in the comparison
table, plus the end-to-end dispatch overhead of ``execution.run``.
"""

import numpy as np

from repro.circuits import QuantumCircuit, random_circuit
from repro.execution import run
from repro.noise import valencia_like_backend
from repro.simulator import apply_matrix_batch, apply_matrix_generic

_QUBITS = 8
_SHOTS = 256


def _gate_list():
    circuit = random_circuit(
        _QUBITS, 48, gate_pool=["h", "x", "t", "cx", "cz"], seed=11
    )
    return [(inst.operation.matrix, inst.qubits) for inst in circuit.gates()]


def _fresh_batch():
    batch = np.zeros((_SHOTS,) + (2,) * _QUBITS, dtype=np.complex64)
    batch[(slice(None),) + (0,) * _QUBITS] = 1.0
    return batch


def _evolve(kernel):
    batch = _fresh_batch()
    for matrix, qubits in _gate_list():
        batch = kernel(batch, matrix, qubits)
    return batch


def test_bench_kernels_specialized(benchmark):
    batch = benchmark(_evolve, apply_matrix_batch)
    norms = np.abs(batch.reshape(_SHOTS, -1)) ** 2
    assert np.allclose(norms.sum(axis=1), 1.0, atol=1e-4)


def test_bench_kernels_generic(benchmark):
    batch = benchmark(_evolve, apply_matrix_generic)
    norms = np.abs(batch.reshape(_SHOTS, -1)) ** 2
    assert np.allclose(norms.sum(axis=1), 1.0, atol=1e-4)


def test_kernels_agree():
    """The two routes must be numerically interchangeable."""
    fast = _evolve(apply_matrix_batch)
    generic = _evolve(apply_matrix_generic)
    assert np.allclose(fast, generic, atol=1e-5)


def test_bench_execution_auto_noiseless(benchmark):
    """Auto dispatch: noiseless suite circuit -> statevector engine."""
    circuit = random_circuit(
        _QUBITS, 48, gate_pool=["h", "x", "t", "cx", "cz"], seed=11
    ).measure_all()

    counts = benchmark(run, circuit, 1000, seed=5)
    assert counts.shots == 1000


def test_bench_execution_auto_noisy(benchmark):
    """Auto dispatch: noisy terminal circuit -> trajectory engine."""
    backend = valencia_like_backend(5)
    circuit = QuantumCircuit(5)
    for q in range(4):
        circuit.h(q).cx(q, q + 1)
    circuit.measure_all()
    noise = backend.noise_model()

    def sample():
        return run(circuit, 500, noise_model=noise, seed=6)

    counts = benchmark(sample)
    assert counts.shots == 500
