"""Job specifications: what ``POST /v1/jobs`` accepts and how it runs.

Three job kinds wrap the three campaign surfaces of the repo, each as a
plain-JSON ``spec`` validated here before anything touches the queue:

* ``sweep`` — a SMARTS sampling sweep (benchmarks x samples x configs),
  executed through :func:`repro.engine.run_jobs` with the shared
  content-addressed :class:`~repro.engine.store.ShardedDiskStore`;
* ``attack`` — one attack PoC on one configuration, run as an
  :class:`AttackJob` through the same engine job layer (the third
  implementation of the ``SimJob``/``FuzzJob`` polymorphic contract);
* ``fuzz`` — a differential leak-fuzzing campaign
  (:func:`repro.fuzz.run_campaign`).

:func:`content_key` derives each job's identity from what it *computes*,
not when it was asked for: a sweep's key is a digest over the engine's
per-window cache keys (so two requests that would simulate the same
windows collapse to one queue entry), and attack/fuzz keys hash the
normalized spec plus the code version.  :func:`is_warm` is the queue
short-circuit probe — True when every window of a sweep already sits in
the result cache, in which case submission completes the job inline
without a worker ever seeing it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import ConfigSpec, config_registry
from repro.engine.store import ShardedDiskStore, _code_version, job_cache_key
from repro.engine.jobs import SimJob, expand_jobs
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
        if name not in registry:
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
            if bench not in PROFILES:
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
            "trace": bool(spec.get("trace", False)),
        }
    elif kind == "attack":
        names = _attack_names()
        attack = spec.get("attack")
        if attack not in names:
            problems.append(
                "unknown attack %r (expected one of %s)"
                % (attack, ", ".join(names))
            )
        config = spec.get("config", "ooo")
        if config not in config_registry():
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


def sweep_jobs(spec: dict) -> Tuple[List[str], List[ConfigSpec], List[SimJob]]:
    """Expand a validated sweep spec into its engine jobs."""
    registry = config_registry()
    specs = [registry[name] for name in spec["configs"]]
    jobs = expand_jobs(
        spec["benchmarks"], specs, spec["samples"], spec["warmup"],
        spec["measure"], spec["instructions"], spec["seed0"],
    )
    return list(spec["benchmarks"]), specs, jobs


def content_key(kind: str, spec: dict) -> str:
    """The job id: a digest of what the job computes.

    Sweeps hash the engine's per-window content-addressed cache keys, so
    the queue's dedup layer and the result cache agree about identity by
    construction.  Attack/fuzz jobs hash the normalized spec plus the
    code version (same invalidation rule as the cache).
    """
    if kind == "sweep":
        _, _, jobs = sweep_jobs(spec)
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


def is_warm(
    kind: str, spec: dict, cache: Optional[ShardedDiskStore]
) -> bool:
    """True when the result cache can answer the whole job right now.

    Only sweeps are cache-backed (attack/fuzz runs are novelty-seeking);
    a warm sweep is completed inline at submission time — it never
    touches the queue or a worker.
    """
    if kind != "sweep" or cache is None:
        return False
    _, _, jobs = sweep_jobs(spec)
    return all(cache.has(job) for job in jobs)


# ---------------------------------------------------------------------- #
# AttackJob: the third implementation of the engine's job contract.
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class AttackJob:
    """One attack PoC execution for the engine scheduler (picklable)."""

    attack: str
    config_name: str
    secret: int
    guess_count: int

    @property
    def coordinates(self) -> tuple:
        return (self.attack, self.config_name, self.secret)

    def describe(self) -> str:
        return "attack %s on %s (secret %d)" % (
            self.attack, self.config_name, self.secret,
        )

    def execute(self):
        """Run the PoC in the current process; returns its outcome."""
        from repro.attacks.common import default_guesses
        from repro.attacks.taxonomy import IMPLEMENTED

        info = next(i for i in IMPLEMENTED if i.name == self.attack)
        spec = config_registry()[self.config_name]
        return info.module.run(
            spec.config,
            secret=self.secret,
            guesses=default_guesses(self.secret, self.guess_count),
            in_order=spec.in_order,
        )


# ---------------------------------------------------------------------- #
# Executors (run in worker threads; return result envelopes).
# ---------------------------------------------------------------------- #


def execute_sweep(
    spec: dict,
    cache: Optional[ShardedDiskStore] = None,
    engine_jobs: int = 1,
) -> dict:
    """Run one sweep through the engine; returns a ``suite`` envelope."""
    from repro.engine.scheduler import run_jobs
    from repro.envelope import make_envelope
    from repro.stats.sampling import Sample, SampledRun

    benchmarks, specs, jobs = sweep_jobs(spec)
    collect_trace = bool(spec.get("trace"))
    results, failures, stats = run_jobs(
        jobs, jobs=engine_jobs, cache=cache, collect_trace=collect_trace,
    )
    if failures:
        raise ReproError(
            "%d of %d sweep windows failed: %s" % (
                len(failures), len(jobs),
                "; ".join(
                    "%s: %s" % (f.job.describe(), f.error)
                    for f in failures[:3]
                ),
            )
        )
    cells: Dict[Tuple[str, str], List[Sample]] = {}
    for job_result in results:
        job = job_result.job
        cells.setdefault((job.benchmark, job.label), []).append(
            Sample(seed=job.seed, window=job_result.window)
        )
    cpi: Dict[str, Dict[str, dict]] = {}
    for bench in benchmarks:
        cpi[bench] = {}
        for config_spec in specs:
            run = SampledRun(
                label=config_spec.label, benchmark=bench,
                samples=cells.get((bench, config_spec.label), []),
            )
            cpi[bench][config_spec.label] = {
                "mean_cpi": run.mean_cpi,
                "ci95": run.ci95,
                "samples": len(run.samples),
            }
    body = {
        "spec": spec,
        "benchmarks": benchmarks,
        "labels": [s.label for s in specs],
        "cpi": cpi,
        "engine": {
            "jobs": stats.jobs,
            "executed": stats.executed,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "retries": stats.retries,
            "workers": stats.workers,
            "wall_seconds": stats.wall_seconds,
        },
    }
    if collect_trace:
        from repro.obs.perfetto import engine_trace_events

        body["trace_events"] = engine_trace_events(stats.job_trace)
    return make_envelope("suite", **body), stats


def execute_attack(spec: dict, engine_jobs: int = 1) -> dict:
    """Run one attack PoC through the engine's job layer."""
    from repro.engine.scheduler import run_jobs
    from repro.envelope import attack_envelope

    job = AttackJob(
        attack=spec["attack"],
        config_name=spec["config"],
        secret=spec["secret"],
        guess_count=spec["guesses"],
    )
    results, failures, stats = run_jobs([job], jobs=engine_jobs, cache=None)
    if failures:
        raise ReproError(failures[0].error)
    return attack_envelope(results[0].window, spec=spec), stats


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
    return make_envelope("fuzz-campaign", **body), None


EXECUTORS = {
    "sweep": execute_sweep,
    "attack": execute_attack,
    "fuzz": execute_fuzz,
}
