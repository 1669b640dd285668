"""Typed Python client for the job server (stdlib ``http.client`` only).

This is the one supported way to talk to :mod:`repro.server` from code —
the CLI's ``submit`` subcommand and the test suite both sit on it, so
its surface *is* the wire protocol's compatibility contract::

    from repro.api import ServerClient

    client = ServerClient("http://127.0.0.1:8765", token="s3cret")
    job = client.submit("attack", {"attack": "spectre_v1_cache",
                                   "config": "strict"})
    job = client.wait(job.id, timeout=120)
    result = client.result(job.id)        # a repro.result/v1 envelope

One method per route — :meth:`~ServerClient.submit`,
:meth:`~ServerClient.job`, :meth:`~ServerClient.result` and
:meth:`~ServerClient.health` — plus :meth:`~ServerClient.wait` and
:meth:`~ServerClient.submit_and_wait`, which poll ``job``.  Every
response is checked against the envelope contract before it is
returned; HTTP-level rejections surface as :class:`ServerError` with
the structured ``error.code`` the server sent (``invalid_spec``,
``unauthorized``, ``rate_limited``, ...).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from typing import Optional
from urllib.parse import urlsplit

from repro.envelope import RESULT_SCHEMA, validate_envelope
from repro.errors import ReproError


class ServerError(ReproError):
    """An error response (or transport failure) from the job server."""

    def __init__(self, status: int, code: str, message: str,
                 detail: Optional[dict] = None) -> None:
        super().__init__("[%d %s] %s" % (status, code, message))
        self.status = status
        self.code = code
        self.detail = detail or {}


@dataclass(frozen=True)
class JobStatus:
    """One job record as ``GET /v1/jobs/<id>`` reports it."""

    id: str
    kind: str
    state: str
    attempts: int
    retries: int
    submissions: int
    error: str
    result_key: str
    queue_position: Optional[int]
    links: dict

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    @classmethod
    def from_envelope(cls, envelope: dict) -> "JobStatus":
        job = envelope.get("job", {})
        return cls(
            id=job.get("id", ""),
            kind=job.get("kind", ""),
            state=job.get("state", ""),
            attempts=job.get("attempts", 0),
            retries=job.get("retries", 0),
            submissions=job.get("submissions", 0),
            error=job.get("error", ""),
            result_key=job.get("result_key", ""),
            queue_position=envelope.get("queue_position"),
            links=dict(envelope.get("links", {})),
        )


class ServerClient:
    """Synchronous HTTP client bound to one server and one token."""

    def __init__(self, base_url: str = "http://127.0.0.1:8765",
                 token: Optional[str] = None, timeout: float = 60.0) -> None:
        split = urlsplit(base_url)
        if split.scheme not in ("", "http"):
            raise ValueError(
                "ServerClient speaks plain http (got %r)" % base_url
            )
        netloc = split.netloc or split.path  # accept "host:port" shorthand
        host, _, port = netloc.partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port) if port else 8765
        self.token = token
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # Transport.
    # ------------------------------------------------------------------ #

    def _request(self, method: str, path: str, body: Optional[dict] = None):
        connection = HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        headers = {"Accept": "application/json"}
        if self.token:
            headers["Authorization"] = "Bearer %s" % self.token
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, ConnectionError) as error:
            raise ServerError(
                0, "transport",
                "cannot reach http://%s:%d%s (%s)"
                % (self.host, self.port, path, error),
            )
        finally:
            connection.close()
        try:
            document = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ServerError(
                status, "protocol", "non-JSON response from server"
            )
        if status >= 400:
            error = (
                document.get("error", {})
                if isinstance(document, dict) else {}
            )
            raise ServerError(
                status,
                error.get("code", "http_%d" % status),
                error.get("message", "request failed"),
                detail=error.get("detail"),
            )
        if isinstance(document, dict):
            problems = validate_envelope(document)
            if problems:
                raise ServerError(
                    status, "protocol",
                    "response is not a %s envelope: %s"
                    % (RESULT_SCHEMA, "; ".join(problems)),
                )
        return status, document

    # ------------------------------------------------------------------ #
    # API surface.
    # ------------------------------------------------------------------ #

    def health(self) -> dict:
        return self._request("GET", "/healthz")[1]

    def submit(self, kind: str, spec: Optional[dict] = None,
               traceparent: Optional[str] = None) -> JobStatus:
        """Submit one job; returns its status (an idempotent resubmission
        of a finished job comes back ``state == "done"`` immediately).
        *traceparent* (a W3C-style header from :mod:`repro.obs.spans`)
        links the server-side spans to the caller's trace."""
        body = {"kind": kind, "spec": spec or {}}
        if traceparent:
            body["traceparent"] = traceparent
        _status, envelope = self._request("POST", "/v1/jobs", body=body)
        return JobStatus.from_envelope(envelope)

    def job(self, job_id: str) -> JobStatus:
        _status, envelope = self._request("GET", "/v1/jobs/%s" % job_id)
        return JobStatus.from_envelope(envelope)

    def result(self, job_id: str) -> dict:
        """The job's result envelope (raises ``not_ready`` while queued)."""
        return self._request("GET", "/v1/jobs/%s/result" % job_id)[1]

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.1) -> JobStatus:
        """Poll until the job finishes; raises on timeout.

        Returns the final status whether it is ``done`` or ``failed`` —
        deciding what a failure means is the caller's call.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status.finished:
                return status
            if time.monotonic() >= deadline:
                raise ServerError(
                    0, "timeout",
                    "job %s still %s after %.1fs"
                    % (job_id[:12], status.state, timeout),
                )
            time.sleep(poll)

    def submit_and_wait(self, kind: str, spec: Optional[dict] = None,
                        timeout: float = 120.0) -> dict:
        """Submit, wait, and fetch the result envelope in one call."""
        job = self.submit(kind, spec)
        if not job.finished:
            job = self.wait(job.id, timeout=timeout)
        if job.state == "failed":
            raise ServerError(0, "job_failed", job.error or "job failed")
        return self.result(job.id)
