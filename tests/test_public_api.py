"""The package-level public API works as documented in the README."""

import repro


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_flow(self):
        """The README quickstart, end to end."""
        qc = repro.QuantumCircuit(3)
        qc.x(2).ccx(0, 1, 2).cx(0, 1)
        insertion = repro.TetrisLockObfuscator(seed=7).obfuscate(qc)
        split = repro.interlocking_split(insertion, seed=7)
        restored = split.recombined()
        from repro.synth import simulate_reversible

        assert simulate_reversible(restored) == simulate_reversible(qc)

    def test_benchmark_access(self):
        assert len(repro.paper_suite()) == 8
        circuit = repro.benchmark_circuit("rd84")
        assert circuit.num_qubits == 12

    def test_backend_and_simulation(self):
        backend = repro.fake_valencia()
        qc = repro.QuantumCircuit(2)
        qc.h(0).cx(0, 1).measure_all()
        counts = repro.run(
            qc, shots=100, noise_model=backend.noise_model(), seed=0
        )
        assert counts.shots == 100

    def test_transpile_entry_point(self):
        qc = repro.QuantumCircuit(3)
        qc.ccx(0, 1, 2)
        result = repro.transpile(qc, backend=repro.valencia_like_backend(3))
        assert result.size > 0

    def test_attack_complexities(self):
        assert repro.tetrislock_attack_complexity(
            5, 27, 2
        ) > repro.saki_attack_complexity(5, 2)
