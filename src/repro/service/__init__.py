"""Protection-as-a-service: the TetrisLock workflow as submitted jobs.

The paper's workflow (obfuscate → split → untrusted compile →
recombine → simulate, Sec. V) is a multi-stage service pipeline; this
package serves it to concurrent callers instead of one-shot scripts:

* :class:`JobService` — asyncio priority queue, process-pool workers,
  graceful drain, a cross-request result cache keyed on structural
  circuit hashes, and a coalescer that batches compatible noiseless
  simulations into single shared-evolution calls;
* :class:`ServiceClient` / :class:`HTTPServiceClient` — the same
  submit/result/wait surface in-process and over HTTP;
* ``repro serve`` / ``repro submit`` — the CLI front-ends.

Quickstart::

    >>> from repro.service import JobService, ServiceClient
    >>> with JobService(workers=4) as service:
    ...     client = ServiceClient(service)
    ...     job = client.submit("simulate", {"qasm": qasm, "seed": 7})
    ...     counts = client.result(job)["counts"]

Determinism guarantee: every result is a pure function of the
request's canonical params (seeds included), so the same submission
returns bit-identical payloads whether it runs on 1 worker or 16,
coalesced or alone, computed or replayed from the cache.
"""

from .cache import ResultCache
from .client import HTTPServiceClient, ServiceClient, ServiceError
from .job import Job, JobState
from .requests import (
    AttackRequest,
    EvaluateRequest,
    ProtectRequest,
    RawRequest,
    ServiceRequest,
    SimulateRequest,
    TranspileRequest,
    request_from_wire,
)
from .service import JobService, ServiceUnavailable

__all__ = [
    "JobService",
    "ServiceUnavailable",
    "ServiceClient",
    "HTTPServiceClient",
    "ServiceError",
    "ResultCache",
    "Job",
    "JobState",
    "ServiceRequest",
    "SimulateRequest",
    "ProtectRequest",
    "TranspileRequest",
    "EvaluateRequest",
    "AttackRequest",
    "RawRequest",
    "request_from_wire",
]
