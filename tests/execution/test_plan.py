"""Compiled-execution tier: trace/lower/fuse, the plan cache, engines.

Noiseless runs execute the noise-free noise plan.  The contract under
test (see ``repro/execution/plan.py``):

* plans agree with the per-instruction reference loops
  (``tests/reference_sim.py``) to 1e-12 on the statevector and unitary
  paths, and so do the reference lowerings' plans (``ref.lowering``),
  whose ``"none"`` stream is bit-identical to the loops;
* the exact density engine composes every plan into <=2-qubit
  superoperator blocks, so for every lowering it agrees with its
  reference loop to 1e-12 (not bit for bit);
* the plan cache traces a circuit exactly once (misses == traces),
  evicts LRU, and is safe to hit from threads;
* paper-benchmark counts at pinned seeds are unchanged by the default
  fused path.
"""

import threading

import numpy as np
import pytest
import reference_sim as ref

from repro.circuits import QuantumCircuit, random_circuit
from repro.cli import main
from repro.execution import (
    build_noise_plan,
    get_noise_plan_cache,
    get_plan_cache,
    run,
)
from repro.execution import plan as plan_module
from repro.execution.plan_cache import PlanCache
from repro.noise import depolarizing
from repro.noise.model import NoiseModel
from repro.revlib import benchmark_circuit
from repro.simulator import DensityMatrixSimulator, Statevector
from repro.simulator.kernels import matrix_is_identity
from repro.simulator.trajectory import (
    sample_terminal_counts,
    terminal_distribution,
)
from repro.simulator.unitary import circuit_unitary

POOL = ["x", "y", "z", "h", "s", "t", "rx", "ry", "rz", "cx", "cz", "swap"]


def _random(n, gates, seed):
    return random_circuit(n, gates, gate_pool=POOL, seed=seed)


def _mixed_circuit():
    """Identities, barriers, diagonal runs, overlapping 2q gates."""
    qc = QuantumCircuit(4, 4)
    qc.h(0).i(1).t(0).s(0).rz(0.7, 1).cz(0, 1).cp(0.3, 1, 2)
    qc.barrier()
    qc.cx(2, 1).i(3).x(3).y(3).ccx(0, 1, 2).swap(2, 3).rz(1.1, 3)
    for q in range(4):
        qc.measure(q, q)
    return qc


def _noise():
    model = NoiseModel("depol")
    model.add_all_qubit_quantum_error(
        depolarizing(0.02), ["h", "x", "y", "cx", "cz"]
    )
    return model


class TestTraceAndLower:
    def test_trace_splits_measures_and_drops_barriers(self):
        # terminal measures become the report entries; the barrier and
        # the measures leave one fused span behind
        plan = build_noise_plan(_mixed_circuit())
        assert [entry[:2] for entry in plan.entries] == [
            (q, q) for q in range(4)
        ]
        assert [step[0] for step in plan.steps] == ["span"]

    def test_trace_keeps_identity_gates_with_flags(self):
        # noise models bind errors to identity gates too, so tracing
        # keeps them (flagged) and counts them as source gates
        gates = ref.traced_gates(_mixed_circuit())
        identity_ops = [op for op in gates if op.identity]
        assert len(identity_ops) == 2
        assert build_noise_plan(_mixed_circuit()).source_gates == len(gates)

    def test_diagonal_classification(self):
        qc = QuantumCircuit(2)
        qc.rz(0.5, 0).cz(0, 1).cp(0.2, 0, 1).t(1).h(0)
        assert [op.diagonal for op in ref.traced_gates(qc)] == [
            True, True, True, True, False,
        ]

    def test_lowering_drops_identities_at_every_level(self):
        gates = ref.traced_gates(_mixed_circuit())
        for fusion in ref.LOWERINGS:
            ops = ref.lower(gates, fusion)
            assert len(ops) < len(gates)

    def test_fusion_reduces_op_count(self):
        qc = _random(4, 60, seed=11)
        plan_none = ref.plan_at(qc, "none")
        plan_full = build_noise_plan(qc)
        assert len(ref.span_ops(plan_full)) < len(ref.span_ops(plan_none))

    def test_blocks_capped_at_three_qubits(self):
        plan = build_noise_plan(_random(6, 80, seed=3))
        assert all(len(op.qubits) <= 3 for op in ref.span_ops(plan))

    @pytest.mark.parametrize("seed", range(12))
    def test_composed_block_equals_circuit_unitary(self, seed):
        """A 1-3-qubit block, diagonal gates and descending operand
        orders included, composes to the circuit's unitary (read with
        the smallest qubit most significant)."""
        rng = np.random.default_rng(seed)
        m = seed % 3 + 1
        qc = QuantumCircuit(m)
        for _ in range(8):
            qubits = [int(q) for q in rng.permutation(m)]
            angle = float(rng.uniform(-np.pi, np.pi))
            gates = [
                lambda: qc.h(qubits[0]), lambda: qc.t(qubits[0]),
                lambda: qc.rz(angle, qubits[0]),
                lambda: qc.ry(angle, qubits[0]),
            ]
            if m >= 2:
                gates += [
                    lambda: qc.cx(*qubits[:2]), lambda: qc.cz(*qubits[:2]),
                    lambda: qc.cp(angle, *qubits[:2]),
                ]
            if m == 3:
                gates += [lambda: qc.ccx(*qubits)]
            gates[int(rng.integers(len(gates)))]()
        ops = [
            plan_module._gate_diag(op.matrix, op.qubits)
            if op.diagonal
            else plan_module.PlanOp("matrix", op.qubits, matrix=op.matrix)
            for op in ref.traced_gates(qc)
        ]
        block = plan_module._compose_block(ops, tuple(range(m)))
        with ref.lowering("none"):  # a plan built without blocks
            little_endian = circuit_unitary(qc)
        flip = tuple(range(m - 1, -1, -1))
        expected = little_endian.reshape((2,) * 2 * m).transpose(
            flip + tuple(m + q for q in flip)
        ).reshape(1 << m, 1 << m)
        assert np.abs(block - expected).max() < 1e-12

    def test_execute_skips_measures_and_refuses_channels(self):
        # a mid-circuit measure splits the noise-free plan's spans;
        # execute() applies both and skips the measure step
        qc = QuantumCircuit(2, 1)
        qc.h(0).measure(0, 0).cx(0, 1).t(1)
        plan = build_noise_plan(qc)
        assert [step[0] for step in plan.steps] == ["span", "measure", "span"]
        np.testing.assert_allclose(
            Statevector(2).evolve(qc)._tensor, ref.evolve_state(qc),
            atol=1e-12,
        )
        noisy = build_noise_plan(qc, _noise())
        with pytest.raises(ValueError, match="noise-free"):
            noisy.execute(np.zeros((1, 2, 2), dtype=complex))

    def test_timing_and_summary_fields(self):
        plan = build_noise_plan(_mixed_circuit())
        assert plan.trace_seconds >= 0.0
        assert plan.source_gates == 14
        assert 0 < len(ref.span_ops(plan)) <= plan.source_gates
        assert (plan.num_spans, plan.num_channels) == (1, 0)


class TestFusedAgreement:
    """Every lowering vs the reference loops to 1e-12; ``none``
    bit-identical — per engine."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("fusion", ref.LOWERINGS)
    def test_statevector_evolve(self, seed, fusion):
        qc = _random(5, 40, seed)
        reference = ref.evolve_state(qc)
        with ref.lowering(fusion):
            fused = Statevector(5).evolve(qc)._tensor
        if fusion == "none":
            assert np.array_equal(fused, reference)
        np.testing.assert_allclose(fused, reference, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fusion", ref.LOWERINGS)
    def test_terminal_distribution(self, seed, fusion):
        qc = _random(4, 30, seed)
        reference, measured_reference = ref.terminal_distribution(qc)
        with ref.lowering(fusion):
            fused, measured = terminal_distribution(qc)
        assert measured == measured_reference
        if fusion == "none":
            assert np.array_equal(fused, reference)
        np.testing.assert_allclose(fused, reference, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fusion", ref.LOWERINGS)
    def test_unitary(self, seed, fusion):
        qc = _random(4, 30, seed)
        reference = ref.circuit_unitary(qc)
        with ref.lowering(fusion):
            fused = circuit_unitary(qc)
        if fusion == "none":
            assert np.array_equal(fused, reference)
        np.testing.assert_allclose(fused, reference, atol=1e-12)

    @pytest.mark.parametrize("fusion", ref.LOWERINGS)
    def test_density_noiseless(self, fusion):
        qc = _random(4, 30, seed=5)
        reference = ref.evolve_density(qc).to_matrix()
        with ref.lowering(fusion):
            fused = DensityMatrixSimulator().evolve(qc).to_matrix()
        np.testing.assert_allclose(fused, reference, atol=1e-12)

    def test_mixed_circuit_all_engines_through_run(self):
        # every lowering samples the same counts as the unfused stream,
        # which the tests above pin to the reference loops
        qc = _mixed_circuit()
        for method in ("statevector", "trajectory", "density"):
            with ref.lowering("none"):
                reference = run(qc, 500, method=method, seed=13)
            for fusion in ref.LOWERINGS:
                with ref.lowering(fusion):
                    fused = run(qc, 500, method=method, seed=13)
                assert dict(fused) == dict(reference), (method, fusion)

    def test_large_batch_gemm_route(self):
        # force the GEMM fast paths: the unitary's 256 basis states
        # make a (256, 2, ..., 2) batch of 2^16 amplitudes
        qc = _random(8, 40, seed=7)
        reference = ref.circuit_unitary(qc)
        np.testing.assert_allclose(circuit_unitary(qc), reference, atol=1e-12)
        with ref.lowering("none"):
            assert np.array_equal(circuit_unitary(qc), reference)


class TestNoisyAnchoring:
    """Noisy runs keep every channel on its gate: the ensemble's counts
    are bit-identical across lowerings, and the exact engine matches
    the per-instruction density loop to 1e-12."""

    def test_batched_noisy_bit_identical(self):
        qc = _mixed_circuit()
        model = _noise()
        with ref.lowering("none"):
            b = run(qc, 400, noise_model=model, seed=5)
        for fusion in ref.LOWERINGS:
            with ref.lowering(fusion):
                a = run(qc, 400, noise_model=model, seed=5)
            assert dict(a) == dict(b)

    def test_density_noisy_bit_identical(self):
        qc = _random(3, 25, seed=2)
        model = _noise()
        a = DensityMatrixSimulator(model).evolve(qc).to_matrix()
        b = ref.evolve_density(qc, model).to_matrix()
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_noise_on_identity_gates_still_fires(self):
        # the model binds a channel to 'i'; the traced stream must keep
        # the (dropped-from-fusion) identity gate as a noise anchor
        qc = QuantumCircuit(1)
        qc.h(0).i(0).i(0)
        model = NoiseModel("id-noise")
        model.add_all_qubit_quantum_error(depolarizing(0.3), ["id"])
        a = DensityMatrixSimulator(model).evolve(qc).to_matrix()
        b = ref.evolve_density(qc, model).to_matrix()
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        assert a[0, 1] != pytest.approx(0.5)  # the noise clearly acted


class TestPlanCache:
    def test_hit_miss_counting(self):
        cache = PlanCache(maxsize=8)
        qc = _random(3, 20, seed=1)
        first = cache.plan_for(qc)
        second = cache.plan_for(qc)
        assert first is second  # identity copy policy: plans are shared
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 1)

    def test_structural_keying_across_equal_circuits(self):
        # equal structure, distinct objects -> one trace
        cache = PlanCache(maxsize=8)
        cache.plan_for(_mixed_circuit())
        cache.plan_for(_mixed_circuit())
        assert cache.stats().misses == 1

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        circuits = [_random(3, 10, seed=s) for s in range(3)]
        for qc in circuits:
            cache.plan_for(qc)
        assert len(cache) == 2
        cache.plan_for(circuits[0])  # evicted -> re-trace
        assert cache.stats().misses == 4

    def test_thread_safety(self):
        cache = PlanCache(maxsize=32)
        circuits = [_random(4, 30, seed=s) for s in range(4)]
        errors = []

        def worker():
            try:
                for _ in range(20):
                    for qc in circuits:
                        plan = cache.plan_for(qc)
                        batch = np.zeros((1, 2, 2, 2, 2), dtype=complex)
                        batch[(0,) * 5] = 1.0
                        out = plan.execute(batch)
                        assert abs(np.linalg.norm(out) - 1.0) < 1e-9
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        # every lookup after the (possibly racy) first build is a hit
        assert stats.hits + stats.misses == 8 * 20 * 4
        assert stats.misses <= 8 * len(circuits)

    def test_global_cache_reused_across_engines(self):
        # noiseless terminal runs share the plan cache; the density
        # engine, like the noisy ensemble, runs the noise-plan cache
        cache = get_plan_cache()
        cache.clear()
        qc = _mixed_circuit()
        run(qc, 100, method="statevector", seed=0)
        before = cache.stats().misses
        run(qc, 100, method="trajectory", seed=0)
        after = cache.stats()
        assert after.misses == before  # zero re-traces on cache hits
        assert after.hits >= 1
        noise_cache = get_noise_plan_cache()
        noise_cache.clear()
        run(qc, 100, method="density", seed=0)
        run(qc, 100, method="density", seed=1)
        run(qc, 100, method="trajectory", noise_model=_noise(), seed=0)
        run(qc, 100, method="density", noise_model=_noise(), seed=0)
        after = noise_cache.stats()
        assert after.misses == 2  # one trace per (circuit, model)
        assert after.hits >= 2


class TestPaperBenchmarks:
    """PR-3-style re-verification: pinned-seed counts are unchanged."""

    @pytest.mark.parametrize("name", ["4mod5", "4gt11", "rd53"])
    def test_benchmark_counts_identical(self, name):
        qc = benchmark_circuit(name).copy().measure_all()
        probs, measured = ref.terminal_distribution(qc)
        reference = sample_terminal_counts(
            probs, measured, qc.num_qubits, qc.num_clbits, 1000,
            np.random.default_rng(1234),
        )
        fused = run(qc, 1000, seed=1234)
        assert dict(fused) == dict(reference)

    def test_expected_output_dominates(self):
        from repro.revlib.benchmarks import load_benchmark

        record = load_benchmark("4mod5")
        qc = record.circuit().copy().measure_all()
        counts = run(qc, 200, seed=7)
        assert counts.most_frequent() == record.expected_output()


class TestApiKnobs:
    def test_invalid_fuse_rejected(self):
        # one lowering per circuit: neither run() nor the CLI takes a
        # fusion level any more, and passing one is an error
        with pytest.raises(TypeError, match="fuse"):
            run(_mixed_circuit(), 10, fuse="none")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "c.qasm", "--fuse", "none"])
        assert exc.value.code == 2


class TestKernelSatellites:
    def test_identity_memo_frozen_matrix(self):
        eye = np.eye(2, dtype=complex)
        eye.setflags(write=False)
        assert matrix_is_identity(eye)
        assert matrix_is_identity(eye)  # memo path

    def test_identity_memo_never_caches_writable(self):
        mat = np.eye(2, dtype=complex)
        assert matrix_is_identity(mat)
        mat[0, 0] = 2.0  # mutate in place: verdict must not be stale
        assert not matrix_is_identity(mat)

    def test_sample_counts_skips_renorm_but_handles_drift(self):
        state = Statevector(2)
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        state.evolve(qc)
        rng = np.random.default_rng(3)
        counts = state.sample_counts(500, rng)
        assert sum(counts.values()) == 500
        assert set(counts) <= {"00", "11"}
        # non-unitary evolution (Kraus branch) drifts the norm; the
        # tolerance gate must still renormalise
        state.apply_matrix(np.array([[0.7, 0.0], [0.0, 0.7]]), [0])
        drifted = state.sample_counts(500, np.random.default_rng(3))
        assert sum(drifted.values()) == 500
