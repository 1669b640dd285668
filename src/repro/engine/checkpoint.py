"""Campaign checkpointing: resumable manifests of completed job keys.

A long sweep or fuzz campaign periodically serializes its progress —
which job keys completed (with their encoded results) and which are
still pending — as a checkpoint manifest (a :mod:`repro.obs.manifest`
document of kind ``"checkpoint"``).  A preempted run restarted with
``--resume <manifest>`` replays the completed results out of the file
and executes only the remainder; ``EngineStats.resumed`` counts the
replays so tests can assert zero re-execution.

Keys are content-addressed: a :class:`~repro.engine.jobs.SimJob` reuses
its cache key (:func:`~repro.engine.store.job_cache_key`); any other
job (a frozen dataclass, e.g. ``FuzzJob``) is keyed by a SHA-256 over
its fields, its type name, and the code version.  A checkpoint therefore
only ever resumes the *same* job set under the *same* code — any drift
changes the keys and the stale entries are simply ignored.

Each job class names its result class in ``result_type`` (a class
attribute, not a field, so it never enters a key): ``SimJob`` names
``PipelineStats``, the fuzz jobs ``FuzzRunResult``.  Both round-trip
through ``to_dict``/``from_dict``.  An entry whose type is not the
job's result class does not decode; the job stays pending and is
re-executed on resume, which is always safe.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from typing import Dict, Optional

from repro.engine.jobs import JobResult, SimJob
from repro.engine.store import _code_version, job_cache_key


def job_key(job) -> str:
    """Stable content key for an engine job (a frozen dataclass)."""
    if isinstance(job, SimJob):
        return job_cache_key(job)
    payload = json.dumps({
        "code": _code_version(),
        "type": type(job).__name__,
        "fields": asdict(job),
    }, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def encode_result(result: JobResult) -> Optional[dict]:
    """Checkpoint entry for one completed job, or None if its result is
    not the job's ``result_type``."""
    window = result.window
    if type(window) is not result.job.result_type:
        return None
    return {
        "type": type(window).__name__,
        "data": window.to_dict(),
        "elapsed": result.elapsed,
    }


def decode_result(job, entry: dict) -> Optional[JobResult]:
    """Rebuild a completed JobResult from a checkpoint entry; None (the
    job re-executes) when the entry does not decode."""
    result_type = job.result_type
    if entry.get("type") != result_type.__name__:
        return None
    try:
        window = result_type.from_dict(entry["data"])
        elapsed = float(entry.get("elapsed", 0.0))
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    return JobResult(job=job, window=window, elapsed=elapsed, resumed=True)


def build_checkpoint(
    jobs_list,
    keys,
    slots,
    *,
    label: str = "engine",
    backend: str = "",
    failures=None,
) -> dict:
    """Assemble the checkpoint manifest for one run's current state.

    ``slots`` is the driver's in-order result list (None = pending).
    Completed entries carry their encoded result so resume never needs
    the cache; results that do not encode stay listed as pending.
    """
    from repro.obs.manifest import build_checkpoint_manifest

    completed: Dict[str, dict] = {}
    pending = []
    for key, result in zip(keys, slots):
        entry = encode_result(result) if result is not None else None
        if entry is not None:
            completed[key] = entry
        else:
            pending.append(key)
    failed = {}
    if failures:
        for failure in failures:
            try:
                failed[job_key(failure.job)] = failure.error
            except (TypeError, ValueError):
                continue
    return build_checkpoint_manifest(
        label=label,
        backend=backend,
        total=len(jobs_list),
        completed=completed,
        pending=pending,
        failed=failed,
    )


def write_checkpoint(path, manifest: dict) -> str:
    """Atomically (re)write *manifest* at the caller-chosen *path*.

    Unlike :func:`repro.obs.manifest.write_manifest` the filename is the
    caller's: a checkpoint is rewritten in place throughout a run so
    ``--resume <path>`` always sees the newest state.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as handle:
        json.dump(manifest, handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def read_checkpoint(source) -> dict:
    """The checkpoint manifest at *source* (a path or a loaded dict).

    Raises ``ValueError`` (naming the file) on a document that is not a
    valid checkpoint — resuming from a half-written or foreign file must
    fail loudly, not silently re-run everything.
    """
    from repro.envelope import load_json_object
    from repro.obs.manifest import validate_checkpoint

    if isinstance(source, dict):
        manifest, name = source, "document"
    else:
        manifest, name = load_json_object(source, "checkpoint"), source
    problems = validate_checkpoint(manifest)
    if problems:
        raise ValueError(
            "%s is not a usable checkpoint: %s"
            % (name, "; ".join(problems[:5]))
        )
    return manifest


def load_checkpoint(source) -> Dict[str, dict]:
    """Completed-entry map from a checkpoint manifest (path or dict)."""
    return read_checkpoint(source)["extra"]["checkpoint"]["completed"]
