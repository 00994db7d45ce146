"""The HTTP/JSON front-end and its urllib client."""

import threading

import pytest

from repro.service import HTTPServiceClient, JobService, ServiceError
from repro.service.http import make_server

from service_qasm import BELL_QASM


@pytest.fixture()
def served():
    """A running service and an HTTP client of its front-end."""
    service = JobService(workers=2).start()
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    port = httpd.server_address[1]
    try:
        yield service, HTTPServiceClient(f"http://127.0.0.1:{port}")
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        service.shutdown(drain=False)


@pytest.fixture()
def http_client(served):
    return served[1]


class TestRoutes:
    def test_health(self, http_client):
        health = http_client.health()
        assert health["status"] == "ok"
        assert "simulate" in health["kinds"]
        assert not any(k.startswith("_") for k in health["kinds"])

    def test_submit_poll_result(self, http_client, bench_qasm):
        job = http_client.submit(
            "simulate", {"qasm": bench_qasm, "seed": 7, "shots": 100}
        )
        payload = http_client.result(job, timeout=60)
        assert payload["engine"] == "statevector"
        assert sum(payload["counts"]["counts"].values()) == 100

    def test_cached_resubmission(self, http_client, bench_qasm):
        params = {"qasm": bench_qasm, "seed": 17, "shots": 100}
        first = http_client.submit("simulate", dict(params))
        cold = http_client.result(first, timeout=60)
        second = http_client.submit("simulate", dict(params))
        view = http_client.status(second)
        assert view["cached"] is True
        assert view["result"] == cold

    def test_protect_over_http(self, http_client, bench_qasm):
        job = http_client.submit(
            "protect", {"qasm": bench_qasm, "seed": 3}
        )
        payload = http_client.result(job, timeout=60)
        assert payload["metadata"]["num_qubits"] == 4
        assert "OPENQASM" in payload["segment1_qasm"]

    def test_stats(self, http_client, bench_qasm):
        http_client.result(
            http_client.submit(
                "simulate", {"qasm": bench_qasm, "seed": 1, "shots": 10}
            ),
            timeout=60,
        )
        stats = http_client.stats()
        assert stats["total_jobs"] >= 1
        assert stats["workers"] == 2

    def test_cancel_round_trip(self, served):
        service, http_client = served
        # saturate both workers in-process (internal kinds are not
        # accepted over HTTP), then cancel a queued job over HTTP
        blockers = [
            service.submit("_sleep", {"seconds": 0.4}) for _ in range(2)
        ]
        queued = service.submit("_sleep", {"seconds": 0.2})
        assert http_client.cancel(queued) is True
        with pytest.raises(ServiceError, match="cancelled"):
            http_client.result(queued, timeout=10)
        assert http_client.wait(blockers, timeout=60)


class TestErrors:
    def test_unknown_kind_is_400(self, http_client):
        with pytest.raises(ServiceError) as err:
            http_client.submit("frobnicate", {})
        assert err.value.status == 400

    def test_internal_kinds_are_400(self, served, bench_qasm):
        service, http_client = served
        for kind, params in [
            ("_crash", {}),
            ("_sleep", {"seconds": 1e6}),
            ("_echo", {}),
        ]:
            with pytest.raises(ServiceError, match="unknown request") as err:
                http_client.submit(kind, params)
            assert err.value.status == 400, kind
        assert service.stats()["total_jobs"] == 0
        assert http_client.health()["status"] == "ok"
        # no worker died: a real job still runs on the pool
        job = http_client.submit(
            "simulate", {"qasm": bench_qasm, "seed": 2, "shots": 10}
        )
        assert http_client.result(job, timeout=60)["shots"] == 10

    def test_bad_qasm_is_400(self, http_client):
        refused = [
            "garbage",
            # index past the register: must not escape as an IndexError
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[2]; x q[5];',
            # broadcast operand: refused, not read as a 0-qubit barrier
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[2]; barrier q;',
        ]
        for qasm in refused:
            with pytest.raises(ServiceError) as err:
                http_client.submit("simulate", {"qasm": qasm})
            assert err.value.status == 400, qasm

    def test_incompatible_method_is_400(self, http_client):
        refused = [
            {"method": "statevector", "noisy": True},
            {"method": "batched", "noisy": True},  # retired engine
            {"precision": "single"},  # retired parameter
        ]
        for extra in refused:
            with pytest.raises(ServiceError) as err:
                http_client.submit("simulate", {"qasm": BELL_QASM, **extra})
            assert err.value.status == 400, extra

    def test_oversized_inputs_are_400(self, http_client):
        wide = 'OPENQASM 2.0; include "qelib1.inc"; qreg q[40]; h q[0];'
        refused = [
            ("simulate", {"qasm": wide}),
            ("simulate", {"qasm": BELL_QASM, "shots": 10**12}),
            # chunk_size is a retired parameter
            ("simulate", {"qasm": BELL_QASM, "chunk_size": 10**5}),
            ("evaluate", {"benchmark": "4gt13", "shots": 10**12}),
            ("evaluate", {"benchmark": "4gt13", "chunk_size": 10**5}),
            ("protect", {"qasm": wide}),
            ("transpile", {"qasm": wide}),
            ("attack", {"qasm": wide}),
            ("attack", {"benchmark": "4gt13", "max_candidates": 10**12}),
            ("evaluate", {"benchmark": "4gt13", "gate_limit": -1}),
            ("attack", {"benchmark": "4gt13", "gate_limit": -1}),
            # a truthy string is not a bool
            ("attack", {"benchmark": "4gt13", "early_exit": "false"}),
            (
                "transpile",
                {"qasm": BELL_QASM, "size": 10**6, "coupling": "full"},
            ),
            ("simulate", {"qasm": BELL_QASM.replace(
                "measure", "h q[0]; " * 20_000 + "measure", 1
            )}),
        ]
        for kind, params in refused:
            with pytest.raises(ServiceError) as err:
                http_client.submit(kind, params)
            assert err.value.status == 400, params

    def test_unknown_job_is_404(self, http_client):
        with pytest.raises(ServiceError) as err:
            http_client.status("j424242")
        assert err.value.status == 404

    def test_unknown_route_is_404(self, http_client):
        with pytest.raises(ServiceError) as err:
            http_client._call("GET", "/nope")
        assert err.value.status == 404

    def test_bad_priority_is_400(self, http_client):
        with pytest.raises(ServiceError) as err:
            http_client._call(
                "POST",
                "/jobs",
                {"kind": "simulate", "params": {}, "priority": "high"},
            )
        assert err.value.status == 400

    def test_bad_content_length_is_400(self, http_client):
        import http.client as http_lib

        host = http_client.url.split("//", 1)[1]
        conn = http_lib.HTTPConnection(host, timeout=5)
        conn.putrequest("POST", "/jobs")
        conn.putheader("Content-Length", "abc")
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 400
        assert b"Content-Length" in response.read()
        conn.close()

    def test_unreachable_server(self):
        client = HTTPServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
