"""Substrate performance benchmarks (not tied to a paper artefact).

Tracks the performance-critical kernels that every experiment runs
through: statevector evolution, the noisy trajectory ensemble, and
the transpiler pipeline.  Regressions here multiply into the Table I /
Figure 4 harness runtimes.
"""

from repro.circuits import QuantumCircuit, random_circuit
from repro.execution import run
from repro.noise import valencia_like_backend
from repro.revlib import benchmark_circuit
from repro.simulator import Statevector
from repro.transpiler import transpile


def test_bench_statevector_evolution(benchmark):
    circuit = random_circuit(
        10, 60, gate_pool=["h", "x", "t", "cx", "cz"], seed=1
    )

    def evolve():
        return Statevector(10).evolve(circuit)

    state = benchmark(evolve)
    assert abs(state.norm() - 1.0) < 1e-9


def test_bench_batched_noisy_sampler(benchmark):
    backend = valencia_like_backend(5)
    compiled = transpile(
        benchmark_circuit("4mod5"), backend=backend, optimization_level=2
    )
    circuit = compiled.circuit.copy()
    circuit.num_clbits = 5
    for q in range(5):
        circuit.measure(q, q)
    noise = backend.noise_model()

    def sample():
        return run(circuit, shots=500, noise_model=noise, seed=3)

    counts = benchmark(sample)
    assert counts.shots == 500


def test_bench_transpile_rd53(benchmark):
    backend = valencia_like_backend(7)
    circuit = benchmark_circuit("rd53")

    def compile_once():
        return transpile(circuit, backend=backend, optimization_level=2)

    result = benchmark(compile_once)
    assert result.size > circuit.size()


def test_bench_noiseless_bell_sampling(benchmark):
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1).measure_all()

    def sample():
        return run(qc, shots=4000, seed=1)

    counts = benchmark(sample)
    assert set(counts) <= {"00", "11"}
