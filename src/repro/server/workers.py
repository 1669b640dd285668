"""Worker pool: threads draining the durable queue.

Each worker claims the oldest eligible job from the
:class:`~repro.server.queue.DurableQueue`, runs it with the function the
CLI uses for that kind (:mod:`repro.server.jobspec`: ``run_suite`` for
sweeps, the PoC module for attacks, ``run_campaign`` for fuzz
campaigns), stores the result envelope in the content-addressed
artifact store, and marks the record done.  A job that raises is handed
back to the queue, which retries it with backoff until ``max_retries``
is spent and then parks it as ``failed`` — one poisoned job can never
wedge the pool.

Workers are *threads*, not processes: a simulation job spends its time
inside the engine, which can fan out to its own process pool
(``engine_jobs``); the threads only coordinate.  ``engine_jobs=1`` (the
default) keeps everything in-process, which is the safe choice when the
server embeds in tests.  ``workers=0`` starts no thread: jobs wait in
the queue for a server with workers over the same directory.
"""

from __future__ import annotations

import threading
import time
import traceback

from repro.obs.log import get_logger
from repro.obs.spans import parse_traceparent
from repro.server.jobspec import execute_attack, execute_fuzz, execute_sweep
from repro.server.queue import ArtifactStore, DurableQueue, JobRecord


class WorkerPool:
    """N daemon threads running the claim/execute/complete loop."""

    def __init__(
        self,
        queue: DurableQueue,
        artifacts: ArtifactStore,
        *,
        cache=None,
        workers: int = 1,
        engine_jobs: int = 1,
        claim_timeout: float = 0.2,
        tracer=None,
    ) -> None:
        self.queue = queue
        self.artifacts = artifacts
        self.cache = cache
        self.workers = int(workers)
        self.engine_jobs = engine_jobs
        self.claim_timeout = claim_timeout
        self.tracer = tracer
        self.log = get_logger("server")
        self._threads: list = []
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #

    def start(self) -> "WorkerPool":
        if self._threads:
            return self
        self._stop.clear()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop, name="repro-worker-%d" % index,
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []

    def _loop(self) -> None:
        while not self._stop.is_set():
            record = self.queue.claim(timeout=self.claim_timeout)
            if record is None:
                continue
            self.run_job(record)

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #

    def run_job(self, record: JobRecord) -> JobRecord:
        """Execute one claimed record end to end."""
        tracer = self.tracer
        if tracer is None:
            return self._run_job(record)
        parent = record.traceparent or None
        # Queue wait is reconstructed from the durable record's own
        # timestamps, so it is exact even though the span is recorded
        # only now, at claim time.
        if record.submitted_unix:
            claimed = record.started_unix or time.time()
            if claimed > record.submitted_unix:
                tracer.record(
                    "queue.wait", record.submitted_unix, claimed,
                    parent=parent,
                    attrs={"job_id": record.id, "kind": record.kind,
                           "attempt": record.attempts},
                )
        with tracer.span(
            "job.execute", parent=parent,
            attrs={"job_id": record.id, "kind": record.kind},
        ) as span:
            updated = self._run_job(record)
            if updated.state == "failed" or updated.error:
                span.attrs["state"] = updated.state
                span.end(status="error")
        return updated

    def _execute(self, record: JobRecord) -> dict:
        if record.kind == "sweep":
            return execute_sweep(
                record.spec, cache=self.cache, engine_jobs=self.engine_jobs,
            )
        if record.kind == "attack":
            return execute_attack(record.spec)
        return execute_fuzz(record.spec, engine_jobs=self.engine_jobs)

    def _run_job(self, record: JobRecord) -> JobRecord:
        context = parse_traceparent(record.traceparent)
        trace_id = context.trace_id if context is not None else None
        try:
            envelope = self._execute(record)
        except BaseException as error:
            detail = "%s: %s" % (type(error).__name__, error)
            updated = self.queue.fail(record.id, detail)
            # Keep the traceback out of the record but visible to a log
            # reader: workers are headless, so swallowing it entirely
            # would make genuine simulator bugs undebuggable.
            self.log.error(
                "job.failed", job_id=record.id, kind=record.kind,
                state=updated.state, error=detail,
                traceback=traceback.format_exc(), trace_id=trace_id,
            )
            return updated
        result_key = self.artifacts.store(envelope)
        self.log.info(
            "job.done", job_id=record.id, kind=record.kind,
            trace_id=trace_id,
        )
        return self.queue.complete(record.id, result_key=result_key)
