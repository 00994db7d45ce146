"""Request coalescing: batching happens and never changes results."""

from repro.execution import run as execute
from repro.service import JobService, ServiceClient
from repro.service.coalesce import execute_simulate_batch
from repro.service.handlers import handle_simulate
from repro.service.requests import SimulateRequest, prepare_circuit


class TestBatchExecutor:
    def test_batch_matches_solo_handler_bit_for_bit(self, bench_qasm):
        """The pure worker function: one evolution, per-request draws."""
        params_list = [
            SimulateRequest(
                qasm=bench_qasm, shots=100 + 10 * i, seed=i
            ).params()
            for i in range(5)
        ]
        batched = execute_simulate_batch(params_list)
        solo = [handle_simulate(dict(p)) for p in params_list]
        assert batched == solo

    def test_batch_matches_direct_execution(self, bench_qasm):
        params_list = [
            SimulateRequest(qasm=bench_qasm, shots=200, seed=s).params()
            for s in (1, 2)
        ]
        batched = execute_simulate_batch(params_list)
        circuit = prepare_circuit(bench_qasm)
        for payload, seed in zip(batched, (1, 2)):
            direct = execute(circuit, 200, seed=seed)
            assert payload["counts"] == direct.to_dict()


class TestServiceCoalescing:
    def test_queued_compatible_jobs_coalesce(self, bench_qasm):
        with JobService(
            workers=1, cache_size=0, coalesce=True, max_batch=32
        ) as svc:
            client = ServiceClient(svc)
            # hold the single worker so the simulate jobs pile up
            blocker = client.submit("_sleep", {"seconds": 0.4})
            jobs = [
                client.submit(
                    "simulate",
                    {"qasm": bench_qasm, "seed": s, "shots": 50},
                )
                for s in range(8)
            ]
            assert client.wait([blocker, *jobs], timeout=120)
            views = [svc.status(j) for j in jobs]
            group_sizes = {v["coalesced"] for v in views}
            assert max(group_sizes) > 1, group_sizes
            stats = svc.stats()
            assert stats["coalesced_jobs"] >= max(group_sizes)
            # coalesced or not, every job is bit-identical to solo
            circuit = prepare_circuit(bench_qasm)
            for seed, view in enumerate(views):
                direct = execute(circuit, 50, seed=seed)
                assert view["result"]["counts"] == direct.to_dict()

    def test_coalescing_disabled(self, bench_qasm):
        with JobService(
            workers=1, cache_size=0, coalesce=False
        ) as svc:
            client = ServiceClient(svc)
            blocker = client.submit("_sleep", {"seconds": 0.2})
            jobs = [
                client.submit(
                    "simulate",
                    {"qasm": bench_qasm, "seed": s, "shots": 20},
                )
                for s in range(4)
            ]
            assert client.wait([blocker, *jobs], timeout=120)
            assert all(
                svc.status(j)["coalesced"] == 1 for j in jobs
            )
            assert svc.stats()["coalesced_jobs"] == 0

    def test_max_batch_respected(self, bench_qasm):
        with JobService(
            workers=1, cache_size=0, coalesce=True, max_batch=3
        ) as svc:
            client = ServiceClient(svc)
            blocker = client.submit("_sleep", {"seconds": 0.4})
            jobs = [
                client.submit(
                    "simulate",
                    {"qasm": bench_qasm, "seed": s, "shots": 20},
                )
                for s in range(7)
            ]
            assert client.wait([blocker, *jobs], timeout=120)
            sizes = [svc.status(j)["coalesced"] for j in jobs]
            assert max(sizes) <= 3

    def test_incompatible_jobs_not_grouped(self, bench_qasm, bell_qasm):
        with JobService(
            workers=1, cache_size=0, coalesce=True, max_batch=32
        ) as svc:
            client = ServiceClient(svc)
            blocker = client.submit("_sleep", {"seconds": 0.3})
            bench_jobs = [
                client.submit(
                    "simulate",
                    {"qasm": bench_qasm, "seed": s, "shots": 20},
                )
                for s in range(2)
            ]
            noisy = client.submit(
                "simulate",
                {"qasm": bench_qasm, "seed": 5, "shots": 20, "noisy": True},
            )
            bell_jobs = [
                client.submit(
                    "simulate",
                    {"qasm": bell_qasm, "seed": s, "shots": 20},
                )
                for s in range(2)
            ]
            all_jobs = [blocker, *bench_jobs, noisy, *bell_jobs]
            assert client.wait(all_jobs, timeout=120)
            # the noisy job can never be in a coalesced group
            assert svc.status(noisy)["coalesced"] == 1
            # every result is still correct per its own request
            circuit = prepare_circuit(bell_qasm)
            for seed, job in enumerate(bell_jobs):
                direct = execute(circuit, 20, seed=seed)
                assert (
                    svc.status(job)["result"]["counts"]
                    == direct.to_dict()
                )
