"""Structured JSON-lines logging with trace correlation.

Replaces the ad-hoc ``print``/stderr writes in the job server with
one-line JSON records::

    {"ts": 1754650000.123, "level": "info", "service": "server",
     "event": "job.done", "job_id": "3f9c...", "trace_id": "4bf9..."}

Every record carries ``ts``/``level``/``service``/``event``; call sites
add correlation fields (``job_id``, ``trace_id``, ``worker``, ...) as
keywords.  ``trace_id`` is the same 128-bit id :mod:`repro.obs.spans`
propagates, so a log line greps straight to its spans in the merged
Perfetto trace.

Records go to stderr by default — machine-parseable but still visible
under ``nda-repro serve``.  Set ``REPRO_LOG_PATH`` to append to a file
instead (how a server run with stderr detached keeps its logs).
Non-serializable field values are ``repr()``-ed rather than raised:
logging must never take down the server loop.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Optional

#: Environment variable routing log records to an append-only file.
LOG_PATH_ENV = "REPRO_LOG_PATH"

_LEVELS = ("debug", "info", "warning", "error")


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


class JsonLogger:
    """One service's JSON-lines emitter.

    *stream* defaults to ``sys.stderr`` (looked up per write, so pytest
    capture and test substitution work); a path set through *path* or
    ``REPRO_LOG_PATH`` wins and appends one line per record.
    """

    def __init__(
        self,
        service: str,
        stream=None,
        path: Optional[str] = None,
        **static,
    ) -> None:
        self.service = str(service)
        self.stream = stream
        self.path = path if path is not None else os.environ.get(LOG_PATH_ENV)
        self.static = {k: _jsonable(v) for k, v in static.items()}
        self._lock = threading.Lock()
        self.emitted = 0
        self.errors = 0

    def bind(self, **fields) -> "JsonLogger":
        """A child logger with extra static correlation fields."""
        merged = dict(self.static)
        merged.update({k: _jsonable(v) for k, v in fields.items()})
        child = JsonLogger(
            self.service, stream=self.stream, path=self.path,
        )
        child.static = merged
        return child

    def log(self, level: str, event: str, **fields) -> None:
        if level not in _LEVELS:
            level = "info"
        record = {
            "ts": round(time.time(), 6),
            "level": level,
            "service": self.service,
            "event": str(event),
        }
        record.update(self.static)
        for key, value in fields.items():
            if value is not None:
                record[key] = _jsonable(value)
        try:
            line = json.dumps(record, sort_keys=True)
        except (TypeError, ValueError):
            self.errors += 1
            return
        with self._lock:
            try:
                if self.path:
                    with open(self.path, "a") as handle:
                        handle.write(line + "\n")
                else:
                    stream = (
                        self.stream if self.stream is not None
                        else sys.stderr
                    )
                    stream.write(line + "\n")
                    if hasattr(stream, "flush"):
                        stream.flush()
                self.emitted += 1
            except (OSError, ValueError):
                self.errors += 1

    def debug(self, event: str, **fields) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)


_LOGGERS = {}
_LOGGERS_LOCK = threading.Lock()


def get_logger(service: str) -> JsonLogger:
    """The shared per-service logger (created on first use)."""
    with _LOGGERS_LOCK:
        logger = _LOGGERS.get(service)
        if logger is None:
            logger = JsonLogger(service)
            _LOGGERS[service] = logger
        return logger
