"""Simulation-as-a-service: the async HTTP job server.

Four routes — submit a job, read its status, fetch its result, and a
health probe — in front of a durable FIFO queue.  Worker threads run
each job with the function the CLI uses (``run_suite``, the attack PoC
modules, ``run_campaign``) over the engine's content-addressed result
cache, so identical requests from many users cost one simulation.

Layering (each module is importable on its own):

* :mod:`repro.server.queue`    — durable FIFO queue + result store
* :mod:`repro.server.jobspec`  — job kinds, validation, content keys
* :mod:`repro.server.workers`  — thread pool draining the queue
* :mod:`repro.server.auth`     — token table + per-token rate limiting
* :mod:`repro.server.app`      — asyncio HTTP front-end (the service)
* :mod:`repro.server.client`   — typed client (CLI + tests sit on it)

Quick start: ``nda-repro serve`` then ``nda-repro submit attack
spectre_v1_cache --config strict --wait`` — or from Python::

    from repro.server import ReproServer
    from repro.api import ServerClient

    server = ReproServer(queue_dir="results/queue", workers=2)
    host, port = server.start_background()
    client = ServerClient("http://%s:%d" % (host, port))
    print(client.submit_and_wait("sweep", {"benchmarks": ["mcf"],
                                           "configs": ["ooo", "strict"],
                                           "samples": 1}))
    server.close()
"""

from repro.server.app import DEFAULT_QUEUE_DIR, ReproServer, serve
from repro.server.auth import Principal, RateLimiter, TokenAuth
from repro.server.client import JobStatus, ServerClient, ServerError
from repro.server.jobspec import (
    JOB_KINDS,
    SpecError,
    content_key,
    validate_spec,
)
from repro.server.queue import (
    ArtifactStore,
    DurableQueue,
    JobRecord,
)
from repro.server.workers import WorkerPool

__all__ = [
    "DEFAULT_QUEUE_DIR",
    "ReproServer",
    "serve",
    "Principal",
    "RateLimiter",
    "TokenAuth",
    "JobStatus",
    "ServerClient",
    "ServerError",
    "JOB_KINDS",
    "SpecError",
    "content_key",
    "validate_spec",
    "ArtifactStore",
    "DurableQueue",
    "JobRecord",
    "WorkerPool",
]
