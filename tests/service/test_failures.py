"""Service failure paths: crashes, cancellation, drain, cache replay.

These are the satellite-task guarantees: a worker crash mid-job marks
the job failed (never hung) and the pool recovers; queued jobs can be
cancelled; graceful shutdown drains; a cache hit replays bit-identical
counts.
"""

import pytest

from repro.execution import run as execute
from repro.service import JobService, ServiceClient, ServiceError
from repro.service.requests import prepare_circuit


class TestWorkerCrash:
    def test_crash_marks_job_failed_not_hung(self):
        with JobService(workers=1, cache_size=0) as svc:
            job = svc.submit("_crash", {"code": 3})
            view = svc.result(job, timeout=60)  # must not hang
            assert view["state"] == "failed"
            assert "worker process died" in view["error"]

    def test_pool_recovers_after_crash(self, bench_qasm):
        with JobService(workers=1, cache_size=0) as svc:
            client = ServiceClient(svc)
            crash = svc.submit("_crash", {})
            svc.result(crash, timeout=60)
            # the replacement pool serves subsequent jobs normally
            job = client.submit(
                "simulate", {"qasm": bench_qasm, "seed": 4, "shots": 50}
            )
            payload = client.result(job, timeout=60)
            direct = execute(prepare_circuit(bench_qasm), 50, seed=4)
            assert payload["counts"] == direct.to_dict()

    def test_queued_jobs_survive_a_crash(self, bench_qasm):
        with JobService(workers=1, cache_size=0) as svc:
            client = ServiceClient(svc)
            crash = svc.submit("_crash", {})
            queued = [
                client.submit(
                    "simulate",
                    {"qasm": bench_qasm, "seed": s, "shots": 20},
                )
                for s in range(3)
            ]
            assert svc.wait([crash, *queued], timeout=120)
            assert svc.status(crash)["state"] == "failed"
            for job in queued:
                assert svc.status(job)["state"] == "done"


    def test_crash_during_drain_still_finishes_queue(self, bench_qasm):
        """Drain's contract holds even if a worker dies mid-drain."""
        svc = JobService(workers=1, cache_size=0).start()
        crash = svc.submit("_crash", {})
        queued = [
            svc.submit(
                "simulate", {"qasm": bench_qasm, "seed": s, "shots": 20}
            )
            for s in range(3)
        ]
        svc.shutdown(drain=True)
        assert svc.status(crash)["state"] == "failed"
        for job in queued:
            assert svc.status(job)["state"] == "done"

    def test_too_wide_unitary_attack_fails_the_job(self):
        """An 8-qubit h/cx/t target splits (8, 7): its candidates would
        need unitaries up to 15 qubits wide, so the search refuses."""
        qasm = (
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[8]; '
            + " ".join(f"h q[{q}];" for q in range(8))
            + " ".join(f"cx q[{q}],q[{q + 1}];" for q in range(7))
            + " ".join(f"t q[{q}];" for q in range(8))
        )
        with JobService(workers=1, cache_size=0) as svc:
            job = svc.submit(
                "attack", {"qasm": qasm, "adversary": "mismatched"}
            )
            view = svc.result(job, timeout=60)
            assert view["state"] == "failed"
            assert "unitary oracle" in view["error"]


class TestHistoryBound:
    def test_old_terminal_jobs_evicted(self):
        with JobService(
            workers=1, cache_size=0, max_history=3
        ) as svc:
            jobs = [
                svc.submit("_sleep", {"seconds": 0.0}) for _ in range(6)
            ]
            assert svc.wait(jobs, timeout=60)
            stats = svc.stats()
            assert stats["total_jobs"] <= 3
            # the newest job is still pollable, the oldest is gone
            assert svc.status(jobs[-1])["state"] == "done"
            with pytest.raises(KeyError):
                svc.status(jobs[0])


    def test_terminal_jobs_drop_their_request(self, bench_qasm):
        # a pollable finished job keeps its result, not its parsed
        # circuit: history memory must not scale with circuit size
        with JobService(workers=1, cache_size=0) as svc:
            job_id = svc.submit(
                "simulate", {"qasm": bench_qasm, "seed": 1, "shots": 20}
            )
            assert svc.result(job_id, timeout=60)["state"] == "done"
            assert svc._job(job_id).request is None


class TestCancellation:
    def test_cancel_queued_job(self):
        with JobService(workers=1, cache_size=0) as svc:
            blocker = svc.submit("_sleep", {"seconds": 0.5})
            queued = svc.submit("_sleep", {"seconds": 0.01})
            assert svc.cancel(queued) is True
            view = svc.result(queued, timeout=10)
            assert view["state"] == "cancelled"
            with pytest.raises(ServiceError, match="cancelled"):
                ServiceClient(svc).result(queued, timeout=10)
            # the blocker is untouched
            assert svc.result(blocker, timeout=60)["state"] == "done"

    def test_cancel_running_job_refused(self):
        with JobService(workers=1, cache_size=0) as svc:
            job = svc.submit("_sleep", {"seconds": 0.4})
            # wait until it actually starts
            for _ in range(200):
                if svc.status(job)["state"] == "running":
                    break
                import time

                time.sleep(0.005)
            assert svc.cancel(job) is False
            assert svc.result(job, timeout=60)["state"] == "done"

    def test_cancel_terminal_job(self):
        with JobService(workers=1, cache_size=0) as svc:
            job = svc.submit("_sleep", {"seconds": 0.01})
            svc.result(job, timeout=60)
            assert svc.cancel(job) is False


class TestShutdown:
    def test_graceful_shutdown_drains_everything(self):
        svc = JobService(workers=2, cache_size=0).start()
        jobs = [
            svc.submit("_sleep", {"seconds": 0.15}) for _ in range(5)
        ]
        svc.shutdown(drain=True)
        for job in jobs:
            view = svc.status(job)
            assert view["state"] == "done", view
            assert view["result"] == {"slept": 0.15}

    def test_fast_shutdown_cancels_queued(self):
        svc = JobService(workers=1, cache_size=0).start()
        running = svc.submit("_sleep", {"seconds": 0.3})
        queued = [svc.submit("_sleep", {"seconds": 0.3}) for _ in range(3)]
        import time

        # wait until the first job actually occupies the worker
        for _ in range(200):
            if svc.status(running)["state"] == "running":
                break
            time.sleep(0.005)
        svc.shutdown(drain=False)
        assert svc.status(running)["state"] == "done"
        states = {svc.status(j)["state"] for j in queued}
        assert states == {"cancelled"}


    def test_shutdown_timeout_raises_and_can_be_retried(self):
        svc = JobService(workers=1, cache_size=0).start()
        job = svc.submit("_sleep", {"seconds": 0.6})
        with pytest.raises(TimeoutError, match="still settling"):
            svc.shutdown(drain=True, timeout=0.05)
        # the service stayed consistent: finishing the drain works
        svc.shutdown(drain=True)
        assert svc.status(job)["state"] == "done"


class TestCacheReplay:
    def test_hit_is_bit_identical_to_cold_run(self, bench_qasm):
        """Warm-cache counts == cold-run counts, bit for bit."""
        params = {"qasm": bench_qasm, "seed": 33, "shots": 250}
        with JobService(workers=1) as svc:
            client = ServiceClient(svc)
            cold = client.result(
                client.submit("simulate", dict(params)), timeout=60
            )
            warm_view = svc.result(
                svc.submit("simulate", dict(params)), timeout=60
            )
        assert warm_view["cached"] is True
        assert warm_view["result"] == cold
        # and both equal a run on a completely fresh service
        with JobService(workers=1) as fresh:
            fresh_client = ServiceClient(fresh)
            rerun = fresh_client.result(
                fresh_client.submit("simulate", dict(params)), timeout=60
            )
        assert rerun == cold
