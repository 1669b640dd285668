"""Durable on-disk job queue and content-addressed result store.

Every submitted job is one JSON file under ``<queue_dir>/jobs/<id>.json``
holding the full :class:`JobRecord` — state transitions rewrite the file
atomically, so killing the server process loses nothing: a fresh
:class:`DurableQueue` over the same directory resumes exactly where the
old one stopped (jobs that were mid-execution are requeued; their
attempt count survives, so a crash loop still converges to ``failed``).

Scheduling is FIFO: workers claim jobs in submission order.  A job
that fails is retried with jittered exponential backoff (the shared
:class:`repro.engine.retry.RetryPolicy` — base ``retry_backoff``,
doubling per attempt, deterministic per-job jitter) until
``max_retries`` is exhausted, then parked in ``failed`` with the last
error — the server never crash-loops on a poisoned job.

Submission is idempotent: the job id *is* the content key of the work
(for sweeps, a digest over the engine's per-window content-addressed
cache keys — see :func:`repro.server.jobspec.content_key`), so
resubmitting an identical request returns the existing record instead
of queueing a duplicate.  ``submissions`` counts how many times each
job was asked for.

The :class:`ArtifactStore` is the same idea for results: the worker
pool stores each result envelope under its own SHA-256, and
``GET /v1/jobs/<id>/result`` reads it back through the record's
``result_key``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional

from repro.engine.retry import RetryPolicy

#: Legal job states and the transitions the queue enforces.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class JobRecord:
    """One submitted job, exactly as persisted (JSON-stable)."""

    id: str
    kind: str  # "sweep" | "attack" | "fuzz"
    spec: dict
    state: str = "queued"
    submitted_unix: float = 0.0
    started_unix: float = 0.0
    finished_unix: float = 0.0
    not_before: float = 0.0
    attempts: int = 0
    max_retries: int = 2
    submissions: int = 1
    principal: str = ""
    error: str = ""
    result_key: str = ""
    seq: int = 0  # submission order: the order workers claim in
    #: W3C traceparent of the submit span (see :mod:`repro.obs.spans`);
    #: empty when the submission was untraced.  Persisted with the
    #: record so a requeue-after-crash still executes under the
    #: submitting client's trace.  Old records without the field load
    #: fine (``from_dict`` fills the default).
    traceparent: str = ""

    @property
    def retries(self) -> int:
        """Executions beyond the first (``GET /v1/jobs/<id>`` reports it)."""
        return max(0, self.attempts - 1)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        # Unknown keys are dropped, so a record written by an older
        # version with since-retired fields still loads.
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


class DurableQueue:
    """FIFO job queue persisted one-JSON-file-per-job (thread-safe)."""

    def __init__(
        self,
        root,
        *,
        max_retries: int = 2,
        retry_backoff: float = 1.0,
    ) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_policy = RetryPolicy(
            max_retries=max_retries, backoff=retry_backoff,
        )
        self._lock = threading.Condition()
        self._records: Dict[str, JobRecord] = {}
        self._seq = 0
        self._recover()

    # ------------------------------------------------------------------ #
    # Durability.
    # ------------------------------------------------------------------ #

    def _recover(self) -> None:
        """Load every persisted record; requeue the ones caught mid-run.

        Unreadable files are skipped (a half-written record from a hard
        kill must not brick the queue), and ``running`` jobs go back to
        ``queued`` — their worker is gone.  Attempt counts survive, so a
        job that keeps killing the process still degrades to ``failed``.
        """
        if not self.jobs_dir.is_dir():
            return
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                record = JobRecord.from_dict(json.loads(path.read_text()))
            except (OSError, ValueError, TypeError, KeyError):
                continue
            if record.state not in JOB_STATES:
                continue
            if record.state == "running":
                record.state = "queued"
                record.started_unix = 0.0
                self._persist(record)
            self._records[record.id] = record
            self._seq = max(self._seq, record.seq + 1)

    def _persist(self, record: JobRecord) -> None:
        """Atomic single-file rewrite (crash leaves old or new, never half)."""
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        path = self.jobs_dir / (record.id + ".json")
        tmp = path.with_suffix(".tmp.%d" % os.getpid())
        tmp.write_text(
            json.dumps(record.to_dict(), indent=1, sort_keys=True) + "\n"
        )
        os.replace(tmp, path)

    # ------------------------------------------------------------------ #
    # Producer side.
    # ------------------------------------------------------------------ #

    def submit(self, record: JobRecord):
        """Enqueue *record*, or return the existing job with its id.

        Returns ``(record, created)`` — ``created`` is False for an
        idempotent resubmission (the stored record is returned, with its
        ``submissions`` count bumped).
        """
        with self._lock:
            existing = self._records.get(record.id)
            if existing is not None:
                existing.submissions += 1
                self._persist(existing)
                return existing, False
            record.submitted_unix = record.submitted_unix or time.time()
            record.seq = self._seq
            self._seq += 1
            if record.max_retries < 0:
                record.max_retries = self.max_retries
            self._records[record.id] = record
            self._persist(record)
            self._lock.notify()
            return record, True

    # ------------------------------------------------------------------ #
    # Worker side.
    # ------------------------------------------------------------------ #

    def _oldest_eligible(self, now: float) -> Optional[JobRecord]:
        return min(
            (
                r for r in self._records.values()
                if r.state == "queued" and r.not_before <= now
            ),
            key=lambda r: r.seq,
            default=None,
        )

    def claim(self, timeout: float = 0.0) -> Optional[JobRecord]:
        """Pop the oldest eligible job and mark it ``running``.

        Blocks up to *timeout* seconds waiting for work (backoff windows
        count: a job whose ``not_before`` lies inside the wait becomes
        claimable).  Returns None when nothing is eligible in time.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                now = time.time()
                record = self._oldest_eligible(now)
                if record is not None:
                    record.state = "running"
                    record.started_unix = now
                    record.attempts += 1
                    self._persist(record)
                    return record
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                # Wake early when a backoff window expires mid-wait.
                backoffs = [
                    r.not_before - now
                    for r in self._records.values()
                    if r.state == "queued" and r.not_before > now
                ]
                if backoffs:
                    remaining = min(remaining, max(0.01, min(backoffs)))
                self._lock.wait(remaining)

    def complete(self, job_id: str, *, result_key: str = "") -> JobRecord:
        """Transition one job to ``done``."""
        with self._lock:
            record = self._records[job_id]
            record.state = "done"
            record.finished_unix = time.time()
            record.error = ""
            record.result_key = result_key
            self._persist(record)
            self._lock.notify_all()
            return record

    def fail(self, job_id: str, error: str) -> JobRecord:
        """Record a failed execution: requeue with backoff, or park.

        The record comes back ``queued`` (with ``not_before`` pushed out
        exponentially) while retries remain, else ``failed``.
        """
        with self._lock:
            record = self._records[job_id]
            record.error = error
            # Per-record max_retries can differ from the queue default;
            # the delay curve comes from the shared engine policy.
            if record.attempts <= record.max_retries:
                record.state = "queued"
                record.not_before = time.time() + self.retry_policy.delay(
                    record.attempts, key=record.id,
                )
            else:
                record.state = "failed"
                record.finished_unix = time.time()
            self._persist(record)
            self._lock.notify_all()
            return record

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def position(self, job_id: str) -> Optional[int]:
        """0-based queue position of a ``queued`` job, else None."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.state != "queued":
                return None
            ordered = sorted(
                (r for r in self._records.values() if r.state == "queued"),
                key=lambda r: r.seq,
            )
            return [r.id for r in ordered].index(job_id)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {state: 0 for state in JOB_STATES}
            for record in self._records.values():
                out[record.state] += 1
            return out

    def records(self) -> List[JobRecord]:
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.seq)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class ArtifactStore:
    """Content-addressed JSON blob store (key = SHA-256 of the payload)."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / (key + ".json")

    def store(self, payload: dict) -> str:
        """Persist *payload*; returns its content key (idempotent)."""
        text = json.dumps(payload, sort_keys=True)
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        path = self._path(key)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp.%d" % os.getpid())
            tmp.write_text(text)
            os.replace(tmp, path)
        return key

    def load(self, key: str) -> Optional[dict]:
        """The payload stored under *key*, or None."""
        if not key or any(ch not in "0123456789abcdef" for ch in key):
            return None
        try:
            return json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return None
