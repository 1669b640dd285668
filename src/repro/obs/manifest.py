"""Run manifests: JSON provenance records for simulation runs.

A manifest answers "what exactly produced this number?" months later:
the full configuration and its cache hash, the workload and seed, the
git revision and host that ran it, wall-clock timings, and the numbers
themselves: a run's ``stats`` block (``PipelineStats.to_dict()``) or a
fuzz campaign's ``campaign`` block (``CampaignResult.counts()``).
Manifests are plain JSON files under ``results/manifests/`` (override
with the ``REPRO_MANIFEST_DIR`` environment variable), are
listed/inspected with ``nda-repro obs manifest`` and render with
``nda-repro obs metrics``.

Writing is **opt-in**: the thousands of ``simulate()`` calls the test
suite makes must not spray files, so only callers that pass
``simulate(..., manifest=True)`` — the CLI commands do — produce one.

Validation is hand-rolled (:func:`validate_manifest`) so the repo keeps
its no-new-dependencies rule; the schema it enforces is documented in
DESIGN.md §3.5.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
from typing import Dict, List, Optional

from repro.envelope import RESULT_SCHEMA, load_json_object
from repro.stats.counters import PipelineStats

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1

#: Default output directory (relative to the working directory).
DEFAULT_DIR = os.path.join("results", "manifests")

#: (field, type, required) triples of the top-level schema.  ``schema``
#: is the shared result-envelope tag (``repro.result/v1``, PR 6); it is
#: optional on read so pre-envelope manifests still load and validate.
_SCHEMA = (
    ("schema", str, False),
    ("schema_version", int, True),
    ("kind", str, True),
    ("label", str, True),
    ("created_unix", (int, float), True),
    ("config", dict, True),
    ("config_hash", str, True),
    ("scheme", str, True),
    ("workload", str, False),
    ("seed", (int, type(None)), False),
    ("git_revision", str, True),
    ("host", dict, True),
    ("timings", dict, True),
    ("stats", dict, False),
    ("campaign", dict, False),
    # The metric snapshot manifests carried before the stats block:
    # still valid, never read.
    ("metrics", dict, False),
    ("extra", dict, False),
)

#: Shape of every field a ``stats`` or ``campaign`` block may hold:
#: ``None`` a number, 0 an integer, and n > 0 an object whose values
#: have shape n - 1.  The stats shapes are read off PipelineStats, so
#: the block and the counters cannot drift apart.
_BLOCK_SHAPES = {
    "stats": {
        name: (1 if isinstance(value, dict)
               else None if isinstance(value, float) else 0)
        for name, value in PipelineStats().to_dict().items()
    },
    "campaign": {
        "runs": 1,  # per config
        "leaked_runs": 1,  # per config
        "witnesses": 2,  # per config, per channel
        "counterexamples": 0,
        "failures": 0,
    },
}
_SHAPE_NAMES = {
    None: "a number",
    0: "an integer",
    1: "an object of integers",
    2: "an object of objects of integers",
}


def _fits(value, shape) -> bool:
    if isinstance(value, bool):
        return False
    if shape is None:
        return isinstance(value, (int, float))
    if shape == 0:
        return isinstance(value, int)
    return isinstance(value, dict) and all(
        _fits(item, shape - 1) for item in value.values()
    )


def manifest_dir(directory: Optional[str] = None) -> str:
    """Resolve the manifest directory: explicit argument, then the
    ``REPRO_MANIFEST_DIR`` environment variable, then the default."""
    if directory:
        return directory
    return os.environ.get("REPRO_MANIFEST_DIR") or DEFAULT_DIR


def git_revision() -> str:
    """Current git commit hash, or ``"unknown"`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def host_info() -> Dict[str, str]:
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def build_manifest(
    config,
    *,
    kind: str = "run",
    workload: str = "",
    seed: Optional[int] = None,
    stats=None,
    campaign: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble a manifest for one run of *config*.

    ``stats`` is an optional :class:`PipelineStats`: it becomes the
    ``stats`` block, and its wall-clock fields populate ``timings``.
    ``campaign`` is a fuzz campaign's ``CampaignResult.counts()``.
    """
    timings: Dict[str, float] = {}
    if stats is not None:
        timings = {
            "sim_wall_seconds": stats.sim_wall_seconds,
            "kilo_cycles_per_sec": stats.kilo_cycles_per_sec,
            "cycles": stats.cycles,
        }
    manifest = {
        "schema": RESULT_SCHEMA,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": kind,
        "label": config.label(),
        "created_unix": time.time(),
        "config": config.to_dict(),
        "config_hash": config.cache_key(),
        "scheme": config.scheme,
        "workload": workload,
        "seed": seed,
        "git_revision": git_revision(),
        "host": host_info(),
        "timings": timings,
    }
    if stats is not None:
        manifest["stats"] = stats.to_dict()
    if campaign is not None:
        manifest["campaign"] = campaign
    if extra:
        manifest["extra"] = extra
    return manifest


def validate_manifest(manifest) -> List[str]:
    """Check *manifest* against the schema; return a problem list
    (empty == valid).  Never raises, whatever JSON value it is given."""
    problems: List[str] = []
    if not isinstance(manifest, dict):
        return ["manifest must be a JSON object"]
    for field, types, required in _SCHEMA:
        if field not in manifest:
            if required:
                problems.append("missing required field %r" % field)
            continue
        if not isinstance(manifest[field], types):
            problems.append(
                "field %r has type %s" % (field, type(manifest[field]).__name__)
            )
    if manifest.get("schema") not in (None, RESULT_SCHEMA):
        problems.append(
            "unknown schema %r (this build reads %r)"
            % (manifest.get("schema"), RESULT_SCHEMA)
        )
    if manifest.get("schema_version") not in (None, MANIFEST_SCHEMA_VERSION):
        problems.append(
            "unknown schema_version %r (this build reads %d)"
            % (manifest.get("schema_version"), MANIFEST_SCHEMA_VERSION)
        )
    host = manifest.get("host")
    if isinstance(host, dict):
        for key in ("hostname", "platform", "python"):
            if not isinstance(host.get(key), str):
                problems.append("host.%s must be a string" % key)
    for block, shapes in _BLOCK_SHAPES.items():
        fields = manifest.get(block)
        if not isinstance(fields, dict):
            continue  # absent, or already reported above
        for key, value in fields.items():
            if key not in shapes:
                problems.append("unknown %s field %r" % (block, key))
            elif not _fits(value, shapes[key]):
                problems.append("%s.%s must be %s" % (
                    block, key, _SHAPE_NAMES[shapes[key]],
                ))
    unknown = set(manifest) - {field for field, _, _ in _SCHEMA}
    for field in sorted(unknown):
        problems.append("unknown field %r" % field)
    return problems


def write_manifest(manifest: dict, directory: Optional[str] = None) -> str:
    """Validate and atomically write *manifest*; return its path.

    Filenames are ``<kind>-<label>-<created>-<hash8>.json`` — sortable
    by creation time and collision-free across configs.
    """
    problems = validate_manifest(manifest)
    if problems:
        raise ValueError("refusing to write invalid manifest: "
                         + "; ".join(problems[:5]))
    directory = manifest_dir(directory)
    os.makedirs(directory, exist_ok=True)
    safe_label = "".join(
        ch if ch.isalnum() or ch in "-_" else "_"
        for ch in manifest["label"]
    )[:48]
    name = "%s-%s-%d-%s.json" % (
        manifest["kind"], safe_label,
        int(manifest["created_unix"] * 1000),
        manifest["config_hash"][:8],
    )
    path = os.path.join(directory, name)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def load_manifest(path) -> dict:
    """The manifest at *path* (``ValueError`` if it is not a JSON
    object; :func:`validate_manifest` checks its fields)."""
    return load_json_object(path, "manifest")


def render_metrics(manifest: dict) -> str:
    """The ``stats`` and ``campaign`` blocks of a valid manifest as one
    table, a row per number (``nda-repro obs metrics``)."""
    from repro.stats.report import render_table

    rows: List[tuple] = []

    def walk(name: str, value) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk("%s.%s" % (name, key), item)
        elif isinstance(value, float) and not value.is_integer():
            rows.append((name, "%.3f" % value))
        else:
            rows.append((name, str(int(value))))

    for block in _BLOCK_SHAPES:
        walk(block, manifest.get(block) or {})
    return render_table(("metric", "value"), rows)


def list_manifests(directory: Optional[str] = None) -> List[str]:
    """Manifest paths in *directory*, oldest first."""
    directory = manifest_dir(directory)
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".json")
    )


def latest_manifest(directory: Optional[str] = None) -> Optional[dict]:
    """The most recently written manifest, or None."""
    paths = list_manifests(directory)
    return load_manifest(paths[-1]) if paths else None
