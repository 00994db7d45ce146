"""The asyncio job service: queue, workers, cache, coalescer.

Architecture
------------

::

    submit() ----> [priority heap] ----> scheduler (asyncio task)
      |  cache                             |  pops best job, gathers
      |  shortcut                          |  coalescable companions
      v                                    v
    done (cached)                 process-pool workers
                                           |
                                  finish/fail + result cache

One background thread runs the event loop; the scheduler coroutine
pops jobs in ``(priority, submit order)`` — lower priority value runs
first — and dispatches them to a :class:`ProcessPoolExecutor` through
``run_in_executor``, at most ``workers`` batches in flight.  All public
methods are thread-safe and callable from any thread except the loop's
own (clients, HTTP handler threads, the CLI).

Lifecycle guarantees:

* a job is exactly one of queued / running / done / failed /
  cancelled, and its ``done_event`` fires exactly once, on the
  transition into a terminal state;
* a worker crash (hard exit, OOM kill) fails the affected in-flight
  jobs with a descriptive error and **replaces the broken pool** —
  queued jobs are unaffected and keep running on the fresh pool;
* ``shutdown(drain=True)`` stops accepting submissions, finishes every
  queued and running job, then stops; ``drain=False`` cancels queued
  jobs and waits only for the in-flight ones;
* cancellation succeeds only while a job is still queued (workers are
  processes; mid-flight preemption would corrupt the pool).

Determinism: results are produced by the pure handlers of
:mod:`repro.service.handlers` from canonical request params, so they
never depend on worker count, queue order, coalescing or cache state.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import heapq
import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Union

from .cache import ResultCache
from .coalesce import execute_simulate_batch
from .handlers import execute_request
from .job import Job, JobState
from .requests import ServiceRequest, request_from_wire

__all__ = ["JobService", "ServiceUnavailable"]


class ServiceUnavailable(RuntimeError):
    """The service is not running or is shutting down."""


def _pool_warmup() -> None:
    """No-op task: forces worker spawn errors to surface at start()."""


class JobService:
    """Priority job queue + process-pool worker tier + result cache."""

    def __init__(
        self,
        workers: int = 2,
        cache_size: int = 256,
        coalesce: bool = True,
        max_batch: int = 16,
        max_history: int = 10_000,
    ) -> None:
        """*workers* bounds both pool processes and in-flight batches;
        *cache_size* ``0`` disables the result cache; *coalesce* turns
        request batching off entirely; *max_batch* caps how many
        compatible simulate jobs one worker call may serve;
        *max_history* bounds how many finished jobs stay pollable —
        beyond it the oldest terminal jobs (and their result payloads)
        are evicted, so a long-running server's memory stays flat."""
        if workers <= 0:
            raise ValueError("workers must be positive")
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_history <= 0:
            raise ValueError("max_history must be positive")
        self.workers = workers
        self.coalesce_enabled = coalesce
        self.max_batch = max_batch
        self.max_history = max_history
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_size) if cache_size else None
        )

        self._jobs: Dict[str, Job] = {}
        self._history: "collections.deque[str]" = collections.deque()
        self._heap: List[tuple] = []  # (priority, seq, job_id)
        self._counter = itertools.count()
        self._mutex = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stopping = False
        self._closed = False
        self._drain = True
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = (
            None
        )
        self._scheduler_task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._inflight = 0
        self._dispatched_batches = 0
        self._coalesced_jobs = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "JobService":
        """Spin up the worker pool and the event-loop thread."""
        if self._closed:
            raise ServiceUnavailable("service has been shut down")
        if self._thread is not None:
            return self
        self._executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers
        )
        # fork/spawn failures should fail start(), not the first job
        self._executor.submit(_pool_warmup).result()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop_main, name="repro-service", daemon=True
        )
        self._thread.start()
        self._started.wait()
        return self

    def _loop_main(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._slots = asyncio.Semaphore(self.workers)
        self._scheduler_task = self._loop.create_task(self._scheduler())
        self._loop.call_soon(self._started.set)
        self._loop.run_forever()

    @property
    def running(self) -> bool:
        return self._thread is not None and not self._closed

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop the service.

        *drain* true (the default, and what ``repro serve`` does on
        SIGTERM) finishes every queued and running job first; false
        cancels the queued jobs and waits only for the in-flight ones.
        Either way no new submissions are accepted from the moment this
        is called.

        *timeout* bounds the wait for jobs to settle.  If it expires,
        :class:`TimeoutError` is raised and the service stays in its
        draining state (still refusing submissions, jobs still
        running) — call ``shutdown(drain=False)`` to cancel the
        remaining queue and stop, or ``shutdown()`` again to keep
        waiting.
        """
        if self._thread is None or self._closed:
            self._closed = True
            return
        future = self._call_in_loop(self._begin_shutdown(drain))
        try:
            # never cancel this future on timeout: cancelling would
            # propagate into the awaited scheduler task and kill it —
            # the pending drain coroutine is harmless and completes
            # (or is retried) on a later shutdown call
            future.result(timeout)
        except concurrent.futures.TimeoutError:
            raise TimeoutError(
                f"jobs still settling after {timeout}s; "
                "shutdown(drain=False) abandons the queue"
            ) from None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(
                f"event loop thread still running after {timeout}s"
            )
        self._loop.close()  # late _call_in_loop raises, never hangs
        self._executor.shutdown(wait=True)
        self._closed = True

    async def _begin_shutdown(self, drain: bool) -> None:
        self._stopping = True
        self._drain = drain
        if not drain:
            with self._mutex:
                for job in list(self._jobs.values()):
                    if job.state is JobState.QUEUED:
                        job.cancel()
                        self._remember_terminal(job)
            self._heap.clear()
        self._wake.set()
        await self._scheduler_task

    # ------------------------------------------------------------------
    # public API (any thread except the loop's)
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Union[str, ServiceRequest],
        params: Optional[Dict[str, Any]] = None,
        *,
        priority: int = 0,
    ) -> str:
        """Enqueue one request and return its job id.

        *request* is a typed request object, or a kind name with a
        *params* dict (the wire form).  Lower *priority* values run
        first; equal priorities run in submission order.  A result-cache
        hit completes the job immediately without occupying a worker.
        """
        if isinstance(request, str):
            request = request_from_wire(request, params or {})
        elif params is not None:
            raise ValueError(
                "params are only accepted with a kind name, not a "
                "request object"
            )
        elif not isinstance(request, ServiceRequest):
            raise TypeError(
                "submit() needs a ServiceRequest or a kind name"
            )
        self._ensure_accepting()
        with self._mutex:
            seq = next(self._counter)
        job = Job(
            id=f"j{seq:06d}",
            kind=request.KIND,
            priority=priority,
            seq=seq,
            request=request,
            cache_key=(
                request.fingerprint() if self.cache is not None else None
            ),
            coalesce_key=(
                request.coalesce_key() if self.coalesce_enabled else None
            ),
        )
        if job.cache_key is not None:
            hit = self.cache.lookup(job.cache_key)
            if hit is not None:
                job.finish(hit, cached=True)
                with self._mutex:
                    self._jobs[job.id] = job
                    self._remember_terminal(job)
                return job.id
        future = self._call_in_loop(self._admit(job))
        try:
            # generous bound: _admit is microseconds on a live loop;
            # the timeout only trips if shutdown stopped the loop
            # between _ensure_accepting and the scheduling above
            future.result(timeout=30.0)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise ServiceUnavailable(
                "service shut down during submission"
            ) from None
        return job.id

    def status(self, job_id: str) -> Dict[str, Any]:
        """JSON-safe snapshot of one job (raises ``KeyError`` if unknown)."""
        job = self._job(job_id)
        with self._mutex:
            return job.view()

    def result(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Block until *job_id* is terminal; return its final view.

        Raises :class:`TimeoutError` when the job is still pending
        after *timeout* seconds.
        """
        job = self._job(job_id)
        if not job.done_event.wait(timeout):
            raise TimeoutError(
                f"job {job_id} still {job.state.value} after {timeout}s"
            )
        with self._mutex:
            return job.view()

    def wait(
        self,
        job_ids: Sequence[str],
        timeout: Optional[float] = None,
    ) -> bool:
        """Block until every job is terminal (or *timeout* elapses)."""
        end = None if timeout is None else time.monotonic() + timeout
        for job_id in job_ids:
            job = self._job(job_id)
            remaining = (
                None if end is None else max(0.0, end - time.monotonic())
            )
            if not job.done_event.wait(remaining):
                return False
        return True

    def cancel(self, job_id: str) -> bool:
        """Cancel *job_id* if still queued; running jobs are immune."""
        job = self._job(job_id)
        if job.terminal:
            return job.state is JobState.CANCELLED
        if self._loop is None or self._closed:
            return False
        try:
            future = self._call_in_loop(self._cancel_queued(job))
            return future.result(timeout=30.0)
        except (ServiceUnavailable, concurrent.futures.TimeoutError):
            return False  # the loop stopped underneath us

    def stats(self) -> Dict[str, Any]:
        """Queue, worker, coalescing and cache counters."""
        from ..analysis.static.contracts import validation_stats
        from ..execution.plan_cache import (
            get_noise_plan_cache,
            get_plan_cache,
        )

        with self._mutex:
            states: Dict[str, int] = {s.value: 0 for s in JobState}
            cached_hits = 0
            for job in self._jobs.values():
                states[job.state.value] += 1
                cached_hits += job.cached
        cache_stats = self.cache.stats() if self.cache is not None else None
        plan_stats = get_plan_cache().stats()
        noise_plan_stats = get_noise_plan_cache().stats()
        return {
            "jobs": states,
            "total_jobs": sum(states.values()),
            "workers": self.workers,
            "coalesce": self.coalesce_enabled,
            "dispatched_batches": self._dispatched_batches,
            "coalesced_jobs": self._coalesced_jobs,
            "cache": None
            if cache_stats is None
            else {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "size": cache_stats.size,
                "maxsize": cache_stats.maxsize,
            },
            "cached_jobs": cached_hits,
            # compiled-execution tier (repro.execution.plan): hits are
            # simulations that reused a traced plan, misses are traces
            "plan_cache": {
                "hits": plan_stats.hits,
                "misses": plan_stats.misses,
                "size": plan_stats.size,
                "maxsize": plan_stats.maxsize,
            },
            # noise-bound plans (repro.execution.noise_plan): misses
            # are (circuit, noise model) traces, hits are reuses
            "noise_plan_cache": {
                "hits": noise_plan_stats.hits,
                "misses": noise_plan_stats.misses,
                "size": noise_plan_stats.size,
                "maxsize": noise_plan_stats.maxsize,
            },
            # static plan verification (repro.analysis.static): plans
            # contract-checked this process + violations found
            "plan_validation": validation_stats(),
        }

    # ------------------------------------------------------------------
    # internals (event-loop thread)
    # ------------------------------------------------------------------
    def _ensure_accepting(self) -> None:
        if self._thread is None or self._closed or self._stopping:
            raise ServiceUnavailable(
                "service is not accepting submissions (call start(), "
                "or it is shutting down)"
            )

    def _call_in_loop(self, coroutine) -> concurrent.futures.Future:
        """Schedule *coroutine* on the loop, surfacing a closed loop
        as :class:`ServiceUnavailable` instead of a RuntimeError."""
        try:
            return asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        except RuntimeError as exc:
            coroutine.close()
            raise ServiceUnavailable(
                f"service event loop is not running ({exc})"
            ) from None

    def _job(self, job_id: str) -> Job:
        with self._mutex:
            if job_id not in self._jobs:
                raise KeyError(f"unknown job id {job_id!r}")
            return self._jobs[job_id]

    def _remember_terminal(self, job: Job) -> None:
        """Record a terminal job, evicting the oldest beyond the bound.

        Caller holds ``self._mutex``.  Eviction only drops the registry
        entry — anyone already blocked on the job's ``done_event`` owns
        a reference and completes normally.
        """
        job.request = None  # dispatch-only: drop its parsed circuit
        self._history.append(job.id)
        while len(self._history) > self.max_history:
            self._jobs.pop(self._history.popleft(), None)

    async def _admit(self, job: Job) -> None:
        if self._stopping:
            raise ServiceUnavailable("service is shutting down")
        with self._mutex:
            self._jobs[job.id] = job
        heapq.heappush(self._heap, (job.priority, job.seq, job.id))
        self._wake.set()

    async def _cancel_queued(self, job: Job) -> bool:
        # heap entries are removed lazily: _pop_batch skips any job
        # that is no longer queued
        with self._mutex:
            if job.state is JobState.QUEUED:
                job.cancel()
                self._remember_terminal(job)
                return True
        return False

    async def _scheduler(self) -> None:
        while True:
            while not self._heap and not self._stopping:
                self._wake.clear()
                await self._wake.wait()
            if self._stopping and (not self._drain or not self._heap):
                break
            await self._slots.acquire()
            batch = self._pop_batch()
            if batch is None:
                self._slots.release()
                continue
            self._inflight += 1
            asyncio.ensure_future(self._dispatch(batch))
        # drain phase: wait for in-flight batches to settle
        while self._inflight:
            self._idle.clear()
            await self._idle.wait()

    def _pop_batch(self) -> Optional[List[Job]]:
        # heap entries are lazily deleted: a cancelled (or even
        # history-evicted) job may still have one — skip those
        lead: Optional[Job] = None
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            candidate = self._jobs.get(job_id)
            if candidate is not None and candidate.state is JobState.QUEUED:
                lead = candidate
                break
        if lead is None:
            return None
        batch = [lead]
        if lead.coalesce_key is not None and self.max_batch > 1:
            # sweep the rest of the queue for compatible jobs; serving
            # them early is safe (they share the lead's evolution) and
            # is precisely the amortisation the coalescer exists for
            keep = []
            for entry in self._heap:
                other = self._jobs.get(entry[2])
                if (
                    other is not None
                    and len(batch) < self.max_batch
                    and other.state is JobState.QUEUED
                    and other.coalesce_key == lead.coalesce_key
                ):
                    batch.append(other)
                else:
                    keep.append(entry)
            if len(batch) > 1:
                heapq.heapify(keep)
                self._heap = keep
        with self._mutex:
            for job in batch:
                job.mark_running(coalesced=len(batch))
        self._dispatched_batches += 1
        if len(batch) > 1:
            self._coalesced_jobs += len(batch)
        return batch

    async def _run_in_pool(self, fn, *args):
        """Run *fn* on the worker pool, riding out one pool breakage.

        When any worker dies, *every* task in flight on that pool gets
        :class:`BrokenExecutor` — not just the one that crashed it.
        Handlers are pure functions, so an innocent casualty is simply
        retried once on the replacement pool; a task that breaks the
        pool again on its retry is the actual culprit and the error
        propagates.
        """
        for attempt in (1, 2):
            executor = self._executor
            try:
                return await self._loop.run_in_executor(
                    executor, fn, *args
                )
            except concurrent.futures.BrokenExecutor:
                self._replace_executor(executor)
                if attempt == 2 or self._executor is executor:
                    raise  # no fresh pool to retry on, or retried already

    async def _dispatch(self, batch: List[Job]) -> None:
        try:
            if len(batch) == 1:
                job = batch[0]
                try:
                    result = await self._run_in_pool(
                        execute_request, job.kind, job.request.params()
                    )
                except concurrent.futures.BrokenExecutor as exc:
                    self._fail(
                        job,
                        f"worker process died while running {job.id} "
                        f"({exc or type(exc).__name__})",
                    )
                except Exception as exc:
                    self._fail(job, f"{type(exc).__name__}: {exc}")
                else:
                    self._finish(job, result)
            else:
                params_list = [job.request.params() for job in batch]
                try:
                    results = await self._run_in_pool(
                        execute_simulate_batch, params_list
                    )
                except concurrent.futures.BrokenExecutor as exc:
                    for job in batch:
                        self._fail(
                            job,
                            "worker process died while running "
                            f"coalesced batch ({exc or type(exc).__name__})",
                        )
                except Exception as exc:
                    for job in batch:
                        self._fail(job, f"{type(exc).__name__}: {exc}")
                else:
                    for job, result in zip(batch, results):
                        self._finish(job, result)
        finally:
            self._inflight -= 1
            self._slots.release()
            self._idle.set()
            self._wake.set()

    def _replace_executor(self, broken) -> None:
        # several in-flight dispatches may observe the same broken
        # pool; only the first one swaps in a replacement.  A draining
        # shutdown still replaces it — its contract is to finish the
        # queued jobs; only a non-drain shutdown (queue already
        # cancelled) skips the pointless respawn.
        abandoning = self._stopping and not self._drain
        if self._executor is broken and not abandoning:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
        broken.shutdown(wait=False)

    def _finish(self, job: Job, result: Dict[str, Any]) -> None:
        with self._mutex:
            job.finish(result)
            self._remember_terminal(job)
        if job.cache_key is not None and self.cache is not None:
            self.cache.store(job.cache_key, result)

    def _fail(self, job: Job, error: str) -> None:
        with self._mutex:
            job.fail(error)
            self._remember_terminal(job)
