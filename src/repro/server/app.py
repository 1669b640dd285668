"""``repro.server.app``: the asyncio HTTP front-end of the job service.

Hand-rolled HTTP/1.1 on :func:`asyncio.start_server` — no framework, no
new dependencies.  Every response body is a versioned
:mod:`repro.envelope` document (``schema: "repro.result/v1"``); errors
are ``kind: "error"`` envelopes with a structured ``error.code``.

Endpoints (auth = Bearer token when a tokens file is configured)::

    POST /v1/jobs                submit {kind, spec}              [auth]
    GET  /v1/jobs/<id>           status + queue position          [auth]
    GET  /v1/jobs/<id>/result    the result envelope              [auth]
    GET  /healthz                liveness + queue counts (open)

The job id *is* the content key of the work, so a duplicate request
returns the existing record instead of queueing the work again.  Every
new job goes through the FIFO queue to a worker thread; a sweep whose
windows are already in the result store executes nothing there.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from pathlib import Path
from typing import Optional, Tuple

from repro.engine.store import ShardedDiskStore
from repro.envelope import error_envelope, make_envelope
from repro.obs.log import get_logger
from repro.obs.spans import maybe_tracer
from repro.server.auth import ANONYMOUS, RateLimiter, TokenAuth
from repro.server.jobspec import SpecError, content_key, validate_spec
from repro.server.queue import ArtifactStore, DurableQueue, JobRecord
from repro.server.workers import WorkerPool

#: Default queue directory (sibling of results/.cache and results/manifests).
DEFAULT_QUEUE_DIR = "results/queue"

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request",
    401: "Unauthorized", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}


class ReproServer:
    """The service: queue + workers + cache + auth behind one socket."""

    def __init__(
        self,
        *,
        queue_dir=DEFAULT_QUEUE_DIR,
        cache=True,
        cache_dir=None,
        auth: Optional[TokenAuth] = None,
        workers: int = 1,
        engine_jobs: int = 1,
        max_retries: int = 2,
        retry_backoff: float = 1.0,
        max_body: int = 1 << 20,
        request_timeout: float = 30.0,
    ) -> None:
        self.queue_dir = Path(queue_dir)
        self.queue = DurableQueue(
            self.queue_dir, max_retries=max_retries,
            retry_backoff=retry_backoff,
        )
        self.artifacts = ArtifactStore(self.queue_dir / "artifacts")
        if isinstance(cache, ShardedDiskStore):
            self.cache: Optional[ShardedDiskStore] = cache
        elif cache:
            self.cache = ShardedDiskStore(cache_dir)
        else:
            self.cache = None
        self.auth = auth
        self.limiter = RateLimiter()
        # None unless REPRO_TRACE_DIR is set (or a tracer is installed):
        # an untraced server records no spans.
        self.tracer = maybe_tracer("server")
        self.pool = WorkerPool(
            self.queue, self.artifacts, cache=self.cache, workers=workers,
            engine_jobs=engine_jobs, tracer=self.tracer,
        )
        self.max_body = max_body
        self.request_timeout = request_timeout
        self.address: Optional[Tuple[str, int]] = None
        self._asyncio_server = None
        self._thread = None
        self._loop = None
        self._routes = (
            ("POST", re.compile(r"^/v1/jobs$"), self._post_jobs, True),
            ("GET", re.compile(r"^/v1/jobs/([0-9a-f]{8,64})$"),
             self._get_job, True),
            ("GET", re.compile(r"^/v1/jobs/([0-9a-f]{8,64})/result$"),
             self._get_result, True),
            ("GET", re.compile(r"^/healthz$"), self._get_healthz, False),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind the socket and start the worker pool (port 0 = ephemeral)."""
        self.pool.start()
        self._asyncio_server = await asyncio.start_server(
            self._handle_client, host, port
        )
        sockname = self._asyncio_server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self

    async def serve_forever(self) -> None:
        async with self._asyncio_server:
            await self._asyncio_server.serve_forever()

    def start_background(self, host: str = "127.0.0.1",
                         port: int = 0) -> Tuple[str, int]:
        """Run the server in a daemon thread; returns the bound address.

        This is how tests embed the service: the caller's thread stays
        free, the event loop lives in the background thread, and
        :meth:`close` tears everything down.
        """
        ready = threading.Event()

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.start(host, port))
            ready.set()
            try:
                loop.run_until_complete(self._asyncio_server.serve_forever())
            except asyncio.CancelledError:
                pass
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-server", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=10.0):
            raise RuntimeError("server failed to start within 10s")
        return self.address

    def close(self) -> None:
        """Stop accepting, drain workers, release the port."""
        loop = self._loop
        if loop is not None and self._asyncio_server is not None:

            def _shutdown() -> None:
                self._asyncio_server.close()
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            try:
                loop.call_soon_threadsafe(_shutdown)
            except RuntimeError:
                pass  # loop already wound down on its own
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        elif self._asyncio_server is not None:
            self._asyncio_server.close()
        self.pool.stop()

    # ------------------------------------------------------------------ #
    # HTTP plumbing.
    # ------------------------------------------------------------------ #

    async def _handle_client(self, reader, writer) -> None:
        status, payload, extra_headers = 500, error_envelope(
            "internal", "unhandled server error"
        ), {}
        try:
            try:
                method, path, headers, body = await asyncio.wait_for(
                    self._read_request(reader), self.request_timeout
                )
            except _HttpError as error:
                status, payload = error.status, error.envelope
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError):
                return  # client went away; nothing to answer
            else:
                status, payload, extra_headers = self._dispatch(
                    method, path, headers, body
                )
        except Exception as error:  # noqa: BLE001 — must answer something
            status, payload = 500, error_envelope(
                "internal", "%s: %s" % (type(error).__name__, error)
            )
        finally:
            try:
                await self._write_response(
                    writer, status, payload, extra_headers
                )
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(self, reader):
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("empty request")
        try:
            method, target, _version = (
                request_line.decode("latin-1").split(None, 2)
            )
        except ValueError:
            raise _HttpError(400, "bad_request", "malformed request line")
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(
                400, "bad_request", "unparseable Content-Length"
            )
        if length < 0:
            raise _HttpError(400, "bad_request", "negative Content-Length")
        if length > self.max_body:
            raise _HttpError(
                413, "payload_too_large",
                "request body exceeds %d bytes" % self.max_body,
            )
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    async def _write_response(self, writer, status, payload, extra_headers):
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = [
            "HTTP/1.1 %d %s" % (status, _STATUS_TEXT.get(status, "Status")),
            "Content-Type: application/json; charset=utf-8",
            "Content-Length: %d" % len(blob),
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            head.append("%s: %s" % (name, value))
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(blob)
        await writer.drain()
        writer.close()

    def _dispatch(self, method, path, headers, body):
        # A path that matches a route under another method answers 405,
        # not 404.  The scan goes on after a mismatch so that one path
        # can be served under several methods.
        path_matched = False
        for route_method, pattern, handler, needs_auth in self._routes:
            match = pattern.match(path)
            if not match:
                continue
            if method != route_method:
                path_matched = True
                continue
            principal = ANONYMOUS
            if needs_auth and self.auth is not None:
                principal = self.auth.authenticate(
                    headers.get("authorization")
                )
                if principal is None:
                    return (
                        401,
                        error_envelope(
                            "unauthorized",
                            "missing or unknown bearer token",
                        ),
                        {},
                    )
                retry_after = self.limiter.check(principal)
                if retry_after > 0:
                    return (
                        429,
                        error_envelope(
                            "rate_limited",
                            "token %r is over its request budget"
                            % principal.name,
                            detail={
                                "retry_after_seconds": round(retry_after, 3)
                            },
                        ),
                        {"Retry-After": "%d" % max(1, int(retry_after + 1))},
                    )
            return handler(match, headers, body, principal)
        if path_matched:
            return (
                405,
                error_envelope(
                    "method_not_allowed",
                    "%s does not accept %s" % (path, method),
                ),
                {},
            )
        return (
            404,
            error_envelope("not_found", "no route for %s" % path),
            {},
        )

    # ------------------------------------------------------------------ #
    # Handlers.
    # ------------------------------------------------------------------ #

    def _post_jobs(self, match, headers, body, principal):
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            return 400, error_envelope(
                "bad_request", "request body is not valid JSON"
            ), {}
        if not isinstance(request, dict):
            return 400, error_envelope(
                "bad_request", "request body must be a JSON object"
            ), {}
        kind = request.get("kind")
        try:
            spec = validate_spec(kind, request.get("spec", {}))
        except SpecError as error:
            return 400, error_envelope(
                "invalid_spec", "job spec rejected",
                detail={"problems": error.problems},
            ), {}
        # The trace context rides at the request's top level, not inside
        # the spec (validate_spec rejects unknown spec fields).  A
        # malformed header starts a fresh trace rather than erroring.
        client_traceparent = request.get("traceparent")
        if not isinstance(client_traceparent, str):
            client_traceparent = None
        submit_span = None
        if self.tracer is not None:
            submit_span = self.tracer.start_span(
                "submit", parent=client_traceparent,
                attrs={"kind": kind, "principal": principal.name},
            )
        record = JobRecord(
            id=content_key(kind, spec), kind=kind, spec=spec,
            max_retries=self.queue.max_retries,
            principal=principal.name,
            traceparent=(
                submit_span.traceparent() if submit_span is not None else ""
            ),
        )
        stored, created = self.queue.submit(record)
        if submit_span is not None:
            submit_span.attrs["job_id"] = stored.id
            submit_span.attrs["outcome"] = "queued" if created else "deduped"
            submit_span.end()
        return (202 if created else 200), self._job_payload(stored), {}

    def _resolve(self, job_id: str) -> Optional[JobRecord]:
        record = self.queue.get(job_id)
        if record is not None:
            return record
        matches = [
            r for r in self.queue.records() if r.id.startswith(job_id)
        ]
        return matches[0] if len(matches) == 1 else None

    def _get_job(self, match, headers, body, principal):
        record = self._resolve(match.group(1))
        if record is None:
            return 404, error_envelope(
                "not_found", "unknown job %r" % match.group(1)
            ), {}
        return 200, self._job_payload(record), {}

    def _get_result(self, match, headers, body, principal):
        record = self._resolve(match.group(1))
        if record is None:
            return 404, error_envelope(
                "not_found", "unknown job %r" % match.group(1)
            ), {}
        if record.state == "failed":
            return 409, error_envelope(
                "job_failed", record.error or "job failed",
                detail={"job": record.to_dict()},
            ), {}
        if record.state != "done":
            return 409, error_envelope(
                "not_ready",
                "job is %s (queue position %s)"
                % (record.state, self.queue.position(record.id)),
            ), {}
        result = self.artifacts.load(record.result_key)
        if result is None:
            return 500, error_envelope(
                "artifact_missing",
                "result artifact %s vanished" % record.result_key[:12],
            ), {}
        return 200, result, {}

    def _get_healthz(self, match, headers, body, principal):
        return 200, make_envelope(
            "job",
            health="ok",
            queue=self.queue.counts(),
            workers=self.pool.workers,
            auth="enabled" if self.auth is not None else "disabled",
        ), {}

    # ------------------------------------------------------------------ #
    # Payload shaping.
    # ------------------------------------------------------------------ #

    def _job_payload(self, record: JobRecord) -> dict:
        job = record.to_dict()
        job["retries"] = record.retries
        links = {"self": "/v1/jobs/%s" % record.id}
        if record.state == "done":
            links["result"] = "/v1/jobs/%s/result" % record.id
        return make_envelope(
            "job",
            job=job,
            queue_position=self.queue.position(record.id),
            links=links,
        )


class _HttpError(Exception):
    """Internal: an HTTP-level reject raised while parsing the request."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.envelope = error_envelope(code, message)


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    **server_kwargs,
) -> None:
    """Blocking entry point used by ``nda-repro serve``."""

    log = get_logger("server")

    async def _main() -> None:
        server = ReproServer(**server_kwargs)
        await server.start(host, port)
        log.info(
            "server.listening",
            url="http://%s:%d" % server.address,
            queue_dir=str(server.queue_dir),
            cache=server.cache.describe() if server.cache else "disabled",
            auth="enabled" if server.auth else "disabled",
            tracing=(
                server.tracer.spool_path if server.tracer is not None
                else "disabled"
            ),
        )
        try:
            await server.serve_forever()
        finally:
            server.pool.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        log.info("server.stopped", reason="keyboard-interrupt")
