"""TetrisLock reproduction: quantum circuit split compilation with
interlocking patterns (Wang et al., DAC 2025).

Public API tour
---------------
* :mod:`repro.circuits` — circuit IR, gates, DAG/layers, QASM, drawer.
* :mod:`repro.execution` — **the unified execution layer**:
  :func:`repro.execution.run`, the single entry point that dispatches
  every simulation request to the fastest valid engine, and the
  cached execution plans it runs.
* :mod:`repro.simulator` — statevector / unitary / density /
  trajectory engines plus the shared gate kernels
  (:mod:`repro.simulator.kernels`) they are all built on.
* :mod:`repro.noise` — channels, noise models, FakeValencia backend.
* :mod:`repro.transpiler` — the "untrusted compiler": basis
  translation, layout, routing, optimisation.
* :mod:`repro.revlib` — RevLib benchmarks and the ``.real`` format.
* :mod:`repro.synth` — reversible truth tables and MCX
  decompositions.
* :mod:`repro.core` — **TetrisLock itself**: Algorithm 1 insertion,
  interlocking split, split compilation, de-obfuscation, Eq. 1
  attack complexity.
* :mod:`repro.attacks` — **the adversary subsystem**: the paper's two
  executable brute-force collusion attacks (same width and Eq. 1
  mismatched width) in one fixed table, the scenario each faces, and
  a streaming parallel search.
* :mod:`repro.baselines` — Saki cascading split and Das random
  insertion, for comparison.
* :mod:`repro.metrics` — TVD (Eq. 2), accuracy, overhead.
* :mod:`repro.experiments` — harnesses regenerating Table I,
  Figure 4 and the attack-complexity analysis.
* :mod:`repro.service` — **protection as a service**: async job
  queue, process-pool workers, circuit-hash result cache, simulate
  coalescing, HTTP front-end (``repro serve`` / ``repro submit``).

Quickstart
----------
>>> from repro import QuantumCircuit, TetrisLockObfuscator, interlocking_split
>>> qc = QuantumCircuit(3)
>>> _ = qc.x(2).ccx(0, 1, 2).cx(0, 1)
>>> result = TetrisLockObfuscator(seed=7).obfuscate(qc)
>>> split = interlocking_split(result, seed=7)
>>> split.recombined().num_qubits
3

Simulate anything through the execution layer — engine choice is
automatic (see :func:`repro.execution.run`):

>>> from repro import run
>>> counts = run(qc.copy().measure_all(), shots=100, seed=0)
>>> counts.shots
100
"""

from .attacks import (
    ATTACKS,
    get_attack,
    problem_for,
    problem_from_saki,
    problem_from_split,
    select_attack,
)
from .circuits import QuantumCircuit
from .execution import run, select_engine
from .core import (
    EvaluationResult,
    SplitCompilationFlow,
    SplitResult,
    TetrisLockObfuscator,
    TetrisLockPipeline,
    insert_random_pairs,
    interlocking_split,
    protect_circuit,
    saki_attack_complexity,
    tetrislock_attack_complexity,
)
from .noise import fake_valencia, valencia_like_backend
from .revlib import benchmark_circuit, benchmark_names, paper_suite
from .transpiler import transpile

__version__ = "1.0.0"

__all__ = [
    "QuantumCircuit",
    "TetrisLockObfuscator",
    "TetrisLockPipeline",
    "EvaluationResult",
    "insert_random_pairs",
    "interlocking_split",
    "protect_circuit",
    "SplitResult",
    "SplitCompilationFlow",
    "saki_attack_complexity",
    "tetrislock_attack_complexity",
    "ATTACKS",
    "get_attack",
    "select_attack",
    "problem_for",
    "problem_from_saki",
    "problem_from_split",
    "fake_valencia",
    "valencia_like_backend",
    "benchmark_circuit",
    "benchmark_names",
    "paper_suite",
    "run",
    "select_engine",
    "transpile",
    "__version__",
]
