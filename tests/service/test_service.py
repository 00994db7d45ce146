"""JobService end-to-end behaviour: submit, results, priority, cache."""

import pytest

from repro.circuits import from_qasm, to_qasm
from repro.core.protect import protect_circuit
from repro.execution import run as execute
from repro.service import (
    JobService,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    SimulateRequest,
)
from repro.service.requests import prepare_circuit

from service_qasm import BELL_QASM


@pytest.fixture()
def service():
    with JobService(workers=2) as svc:
        yield svc


class TestSubmitAndResult:
    def test_wire_and_typed_submission_agree(self, service, bench_qasm):
        client = ServiceClient(service)
        a = client.submit(
            "simulate", {"qasm": bench_qasm, "seed": 9, "shots": 50}
        )
        b = client.submit(
            SimulateRequest(qasm=bench_qasm, seed=9, shots=50)
        )
        assert client.result(a, timeout=60) == client.result(b, timeout=60)

    def test_simulate_bit_identical_to_direct_run(
        self, service, bench_qasm
    ):
        client = ServiceClient(service)
        job = client.submit(
            "simulate", {"qasm": bench_qasm, "seed": 7, "shots": 400}
        )
        payload = client.result(job, timeout=60)
        direct = execute(prepare_circuit(bench_qasm), 400, seed=7)
        assert payload["counts"] == direct.to_dict()
        assert payload["engine"] == "statevector"

    def test_noisy_simulate_bit_identical_to_direct_run(
        self, service, bench_qasm
    ):
        from repro.noise import valencia_like_backend

        client = ServiceClient(service)
        job = client.submit(
            "simulate",
            {"qasm": bench_qasm, "seed": 11, "shots": 60, "noisy": True},
        )
        payload = client.result(job, timeout=120)
        circuit = prepare_circuit(bench_qasm)
        model = valencia_like_backend(circuit.num_qubits).noise_model()
        direct = execute(circuit, 60, noise_model=model, seed=11)
        assert payload["counts"] == direct.to_dict()
        # 4 qubits at 60 shots: 2^4 < 2 * 60, the exact engine
        assert payload["engine"] == "density"

    def test_protect_matches_library_call(self, service, bench_qasm):
        client = ServiceClient(service)
        job = client.submit("protect", {"qasm": bench_qasm, "seed": 5})
        payload = client.result(job, timeout=60)
        direct = protect_circuit(from_qasm(bench_qasm), seed=5)
        assert payload["segment1_qasm"] == to_qasm(
            direct.split.segment1.compact
        )
        assert payload["segment2_qasm"] == to_qasm(
            direct.split.segment2.compact
        )
        assert payload["metadata"] == direct.metadata()

    def test_transpile_job(self, service, bench_qasm):
        client = ServiceClient(service)
        job = client.submit("transpile", {"qasm": bench_qasm, "level": 2})
        payload = client.result(job, timeout=60)
        compiled = from_qasm(payload["qasm"])
        assert compiled.size() == payload["size"] > 0

    def test_status_of_unknown_job(self, service):
        with pytest.raises(KeyError, match="unknown job"):
            service.status("j999999")

    def test_wait_timeout_returns_false(self, service):
        job = service.submit("_sleep", {"seconds": 1.0})
        assert service.wait([job], timeout=0.05) is False
        assert service.wait([job], timeout=30) is True


class TestDeterminism:
    def test_same_seed_any_worker_count(self, bench_qasm):
        """The headline guarantee: worker count never changes results."""
        payloads = []
        for workers in (1, 3):
            with JobService(workers=workers, cache_size=0) as svc:
                client = ServiceClient(svc)
                jobs = [
                    client.submit(
                        "simulate",
                        {"qasm": bench_qasm, "seed": s, "shots": 100},
                    )
                    for s in range(4)
                ]
                payloads.append(
                    [client.result(j, timeout=60) for j in jobs]
                )
        assert payloads[0] == payloads[1]

    def test_evaluate_seeding_is_positional(self, service):
        """evaluate uses SeedSequence(seed).spawn — same seed, same rows."""
        client = ServiceClient(service)
        params = {
            "benchmark": "one_bit_adder",
            "shots": 80,
            "iterations": 2,
            "seed": 13,
        }
        first = client.result(
            client.submit("evaluate", dict(params)), timeout=300
        )
        with JobService(workers=1, cache_size=0) as other:
            second = ServiceClient(other).result(
                other.submit("evaluate", dict(params)), timeout=300
            )
        assert first == second
        assert len(first["iterations"]) == 2

    def test_evaluate_iterations_equal_table1_cells(self):
        """An evaluate job and the table1 grid run one iteration alike."""
        from repro.experiments import run_experiment
        from repro.service.handlers import handle_evaluate

        served = handle_evaluate(
            {"benchmark": "4gt13", "iterations": 2, "shots": 100, "seed": 7}
        )["iterations"]
        cells = run_experiment(
            "table1",
            {"iterations": 2, "shots": 100, "seed": 7,
             "benchmarks": ["4gt13"]},
        ).result["4gt13"].iterations
        assert len(served) == len(cells) == 2
        for row, cell in zip(served, cells):
            expected = cell.to_dict()
            assert {key: row[key] for key in expected} == expected
            assert row["accuracy_restored"] == cell.accuracy_restored
            assert row["tvd_obfuscated"] == cell.tvd_obfuscated


class TestPriorities:
    def test_lower_priority_value_runs_first(self, bench_qasm):
        with JobService(workers=1, cache_size=0) as svc:
            client = ServiceClient(svc)
            # occupy the single worker so later jobs queue up
            blocker = client.submit("_sleep", {"seconds": 0.4})
            low = client.submit(
                "simulate",
                {"qasm": bench_qasm, "seed": 1, "shots": 10},
                priority=5,
            )
            high = client.submit(
                "simulate",
                {"qasm": bench_qasm, "seed": 2, "shots": 10},
                priority=-5,
            )
            assert client.wait([blocker, low, high], timeout=60)
            low_view = svc.status(low)
            high_view = svc.status(high)
            assert high_view["started_at"] <= low_view["started_at"]


class TestResultCache:
    def test_identical_resubmission_is_a_hit(self, service, bench_qasm):
        client = ServiceClient(service)
        params = {"qasm": bench_qasm, "seed": 21, "shots": 100}
        first = client.submit("simulate", dict(params))
        cold = client.result(first, timeout=60)
        second = client.submit("simulate", dict(params))
        view = service.result(second, timeout=60)
        assert view["cached"] is True
        assert view["result"] == cold

    def test_formatting_variant_also_hits(self, service, bench_qasm):
        client = ServiceClient(service)
        params = {"qasm": bench_qasm, "seed": 22, "shots": 100}
        client.result(client.submit("simulate", dict(params)), timeout=60)
        spaced = bench_qasm.replace(";\n", " ;\n")
        second = client.submit(
            "simulate", {"qasm": spaced, "seed": 22, "shots": 100}
        )
        assert service.result(second, timeout=60)["cached"] is True

    def test_same_width_attack_hits_across_gate_limits(self, service):
        client = ServiceClient(service)
        params = {"benchmark": "4gt13", "adversary": "same-width"}
        first = client.submit("attack", {**params, "gate_limit": 3})
        cold = client.result(first, timeout=60)
        second = client.submit("attack", {**params, "gate_limit": 4})
        view = service.result(second, timeout=60)
        assert view["cached"] is True
        assert view["result"] == cold

    def test_unseeded_jobs_never_cached(self, service, bench_qasm):
        client = ServiceClient(service)
        params = {"qasm": bench_qasm, "shots": 50}
        first = client.submit("simulate", dict(params))
        client.result(first, timeout=60)
        second = client.submit("simulate", dict(params))
        assert service.result(second, timeout=60)["cached"] is False

    def test_cache_disabled(self, bench_qasm):
        with JobService(workers=1, cache_size=0) as svc:
            client = ServiceClient(svc)
            params = {"qasm": bench_qasm, "seed": 3, "shots": 50}
            client.result(client.submit("simulate", dict(params)), 60)
            second = client.submit("simulate", dict(params))
            assert svc.result(second, timeout=60)["cached"] is False


class TestLifecycleGuards:
    def test_submit_after_shutdown_raises(self, bench_qasm):
        svc = JobService(workers=1)
        svc.start()
        svc.shutdown()
        with pytest.raises(ServiceUnavailable):
            svc.submit("simulate", {"qasm": bench_qasm, "seed": 1})

    def test_submit_without_start_raises(self, bench_qasm):
        svc = JobService(workers=1)
        with pytest.raises(ServiceUnavailable):
            svc.submit("simulate", {"qasm": bench_qasm, "seed": 1})

    def test_failed_job_raises_service_error(self, service):
        client = ServiceClient(service)
        # internal kinds skip submit-time validation, so the bad value
        # reaches the handler, which raises inside the worker and the
        # job fails cleanly
        job = client.submit("_sleep", {"seconds": "forever"})
        with pytest.raises(ServiceError, match="failed"):
            client.result(job, timeout=60)
        assert service.status(job)["state"] == "failed"

    def test_stats_shape(self, service, bench_qasm):
        client = ServiceClient(service)
        client.result(
            client.submit(
                "simulate", {"qasm": bench_qasm, "seed": 2, "shots": 10}
            ),
            timeout=60,
        )
        stats = service.stats()
        assert stats["jobs"]["done"] >= 1
        assert stats["workers"] == 2
        assert stats["cache"]["maxsize"] == 256

