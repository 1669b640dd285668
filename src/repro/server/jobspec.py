"""Job specifications: what ``POST /v1/jobs`` accepts and how it runs.

Three job kinds wrap the three campaign surfaces of the repo, each as a
plain-JSON ``spec`` validated here before anything touches the queue,
and each run by the same function its CLI command uses:

* ``sweep`` — a SMARTS sampling sweep (benchmarks x samples x configs)
  through :func:`repro.harness.experiment.run_suite` with the shared
  content-addressed :class:`~repro.engine.store.ShardedDiskStore`
  (``nda-repro bench``);
* ``attack`` — one attack PoC on one configuration, run by its PoC
  module (``nda-repro attack``);
* ``fuzz`` — a differential leak-fuzzing campaign through
  :func:`repro.fuzz.run_campaign` (``nda-repro fuzz run``).

:func:`content_key` derives each job's identity from what it *computes*,
not when it was asked for: a sweep's key is a digest over the engine's
per-window cache keys (so two requests that would simulate the same
windows collapse to one queue entry), and attack/fuzz keys hash the
normalized spec plus the code version.  A sweep whose windows are all
in the result store still goes through the queue; ``run_suite`` then
serves every window from the store and executes nothing.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional

from repro.config import config_registry
from repro.engine.jobs import expand_jobs
from repro.engine.store import ShardedDiskStore, _code_version, job_cache_key
from repro.errors import ReproError

JOB_KINDS = ("sweep", "attack", "fuzz")


class SpecError(ReproError):
    """A job spec failed validation; ``problems`` lists every reason."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def _attack_names() -> List[str]:
    from repro.attacks.taxonomy import IMPLEMENTED

    return sorted({info.name for info in IMPLEMENTED})


def _int_field(spec, name, default, lo, hi, problems) -> int:
    value = spec.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append("%r must be an integer" % name)
        return default
    if not lo <= value <= hi:
        problems.append("%r must be in [%d, %d]" % (name, lo, hi))
        return default
    return value


def _config_names(spec, default, problems, *, ooo_only=False) -> List[str]:
    registry = config_registry()
    names = spec.get("configs", None)
    if names is None:
        names = list(default)
    if not isinstance(names, list) or not names:
        problems.append("'configs' must be a non-empty list of names")
        return list(default)
    out = []
    for name in names:
        if not isinstance(name, str) or name not in registry:
            problems.append(
                "unknown config %r (see `nda-repro config list`)" % (name,)
            )
        elif ooo_only and registry[name].in_order:
            problems.append(
                "config %r is in-order (no transient window to fuzz)"
                % (name,)
            )
        else:
            out.append(name)
    return out or list(default)


def validate_spec(kind: str, spec) -> dict:
    """Normalize one job spec; raises :class:`SpecError` on any problem.

    Returns the canonical spec dict (defaults filled in, keys sorted by
    construction) that :func:`content_key` and the executors consume.
    """
    problems: List[str] = []
    if kind not in JOB_KINDS:
        raise SpecError(
            ["unknown job kind %r (expected one of %s)"
             % (kind, ", ".join(JOB_KINDS))]
        )
    if not isinstance(spec, dict):
        raise SpecError(["'spec' must be a JSON object"])
    normalized: dict

    if kind == "sweep":
        from repro.workloads.profiles import DEFAULT_SUITE, PROFILES

        benchmarks = spec.get("benchmarks", list(DEFAULT_SUITE))
        if not isinstance(benchmarks, list) or not benchmarks:
            problems.append("'benchmarks' must be a non-empty list")
            benchmarks = list(DEFAULT_SUITE)
        for bench in benchmarks:
            if not isinstance(bench, str) or bench not in PROFILES:
                problems.append("unknown benchmark %r" % (bench,))
        normalized = {
            "benchmarks": benchmarks,
            "configs": _config_names(
                spec, sorted(config_registry()), problems
            ),
            "samples": _int_field(spec, "samples", 1, 1, 100, problems),
            "warmup": _int_field(spec, "warmup", 2000, 1, 10**6, problems),
            "measure": _int_field(
                spec, "measure", 8000, 1, 10**7, problems
            ),
            "instructions": _int_field(
                spec, "instructions", 14000, 100, 10**7, problems
            ),
            "seed0": _int_field(spec, "seed0", 0, 0, 10**9, problems),
        }
    elif kind == "attack":
        names = _attack_names()
        attack = spec.get("attack")
        if not isinstance(attack, str) or attack not in names:
            problems.append(
                "unknown attack %r (expected one of %s)"
                % (attack, ", ".join(names))
            )
        config = spec.get("config", "ooo")
        if not isinstance(config, str) or config not in config_registry():
            problems.append("unknown config %r" % (config,))
        normalized = {
            "attack": attack,
            "config": config,
            "secret": _int_field(spec, "secret", 42, 0, 255, problems),
            "guesses": _int_field(spec, "guesses", 32, 2, 256, problems),
        }
    else:  # fuzz
        from repro.fuzz.campaign import fuzz_configs

        normalized = {
            "seeds": _int_field(spec, "seeds", 20, 1, 100_000, problems),
            "seed0": _int_field(spec, "seed0", 0, 0, 10**9, problems),
            "configs": _config_names(
                spec, fuzz_configs(), problems, ooo_only=True
            ),
            "max_cycles": _int_field(
                spec, "max_cycles", 400_000, 1000, 10**8, problems
            ),
        }

    known = set(normalized) | {"kind"}
    for key in sorted(set(spec) - known):
        problems.append("unknown spec field %r" % (key,))
    if problems:
        raise SpecError(problems)
    return normalized


# ---------------------------------------------------------------------- #
# Content-addressed job identity.
# ---------------------------------------------------------------------- #


def content_key(kind: str, spec: dict) -> str:
    """The job id: a digest of what the job computes.

    Sweeps hash the engine's per-window content-addressed cache keys, so
    the queue's dedup layer and the result cache agree about identity by
    construction.  Attack/fuzz jobs hash the normalized spec plus the
    code version (same invalidation rule as the cache).
    """
    if kind == "sweep":
        registry = config_registry()
        jobs = expand_jobs(
            spec["benchmarks"], [registry[name] for name in spec["configs"]],
            spec["samples"], spec["warmup"], spec["measure"],
            spec["instructions"], spec["seed0"],
        )
        payload = {
            "kind": kind,
            "windows": sorted(job_cache_key(job) for job in jobs),
        }
    else:
        payload = {"kind": kind, "spec": spec, "code": _code_version()}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest


# ---------------------------------------------------------------------- #
# Executors (run in worker threads; return result envelopes).
# ---------------------------------------------------------------------- #


def execute_sweep(
    spec: dict,
    cache: Optional[ShardedDiskStore] = None,
    engine_jobs: int = 1,
) -> dict:
    """Run one sweep through ``run_suite``; returns a ``suite`` envelope."""
    from repro.envelope import make_envelope
    from repro.harness.experiment import run_suite

    registry = config_registry()
    suite = run_suite(
        spec["benchmarks"], [registry[name] for name in spec["configs"]],
        samples=spec["samples"], warmup=spec["warmup"],
        measure=spec["measure"], instructions=spec["instructions"],
        seed0=spec["seed0"], jobs=engine_jobs, cache=cache,
    )
    cpi: dict = {}
    for bench in suite.benchmarks:
        cpi[bench] = {}
        for label in suite.labels:
            run = suite.run(bench, label)
            cpi[bench][label] = {
                "mean_cpi": run.mean_cpi,
                "ci95": run.ci95,
                "samples": len(run.samples),
            }
    engine = suite.engine
    return make_envelope(
        "suite",
        spec=spec,
        benchmarks=suite.benchmarks,
        labels=suite.labels,
        cpi=cpi,
        engine={
            name: getattr(engine, name)
            for name in ("jobs", "executed", "cache_hits", "cache_misses",
                         "retries", "workers", "wall_seconds")
        },
    )


def execute_attack(spec: dict) -> dict:
    """Run one attack PoC the way ``nda-repro attack`` does."""
    from repro.attacks.common import default_guesses
    from repro.attacks.taxonomy import IMPLEMENTED
    from repro.envelope import attack_envelope

    info = next(i for i in IMPLEMENTED if i.name == spec["attack"])
    config_spec = config_registry()[spec["config"]]
    outcome = info.module.run(
        config_spec.config,
        secret=spec["secret"],
        guesses=default_guesses(spec["secret"], spec["guesses"]),
        in_order=config_spec.in_order,
    )
    return attack_envelope(outcome, spec=spec)


def execute_fuzz(spec: dict, engine_jobs: int = 1) -> dict:
    """Run one differential fuzz campaign; returns its envelope."""
    from repro.envelope import make_envelope
    from repro.fuzz.campaign import run_campaign

    campaign = run_campaign(
        range(spec["seed0"], spec["seed0"] + spec["seeds"]),
        config_names=spec["configs"],
        jobs=engine_jobs,
        max_cycles=spec["max_cycles"],
    )
    body = {
        "spec": spec,
        "ok": campaign.ok,
        "runs": len(campaign.results),
        "baseline_witnesses": campaign.baseline_channel_counts(),
        "counterexamples": [
            cex.describe() for cex in campaign.counterexamples
        ],
        "failures": [
            "%s: %s" % (what, why) for what, why in campaign.failures
        ],
        "summary": campaign.describe(),
    }
    return make_envelope("fuzz-campaign", **body)
