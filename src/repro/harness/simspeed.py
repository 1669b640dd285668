"""Simulator-speed benchmark (host wall-clock, not simulated cycles).

Measures how fast the out-of-order core simulates — kilo-cycles of
simulated time per second of host time — per (workload, configuration)
pair, with the idle-cycle fast-forward on and off.

* **Construction is excluded from the timer.**  Program generation,
  cache/core construction and the one-time micro-op pre-decode happen
  before ``perf_counter`` starts; only ``core.run()`` is measured
  (schema 1 timed ``simulate()`` whole).
* **Fast-forward must be bit-identical.**  A run whose
  ``cycles``/``committed`` differ between FF on and off is a
  correctness bug and the harness raises.

Schema 4 drops schema 3's ``windows`` field (every row is one run);
schema 3 dropped schema 2's per-engine rows.
``run_simspeed`` returns a JSON-serializable payload;
``render_simspeed`` pretty-prints it; ``compare_simspeed`` diffs a
fresh payload against a checked-in baseline (warn-only — shared-runner
clocks are noisy).  ``profile_case`` captures a cProfile pstats dump of
one row for regression triage.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from typing import Dict, List, Optional, Sequence

from repro.config import config_registry
from repro.core import make_core
from repro.workloads.generator import spec_program

#: Default measurement matrix: one DRAM-latency-bound workload (mcf,
#: where fast-forward shines), one branchy one (leela), one high-ILP
#: one (exchange2), across the protection schemes whose timing differs.
DEFAULT_WORKLOADS = ("mcf", "leela", "exchange2")
DEFAULT_CONFIGS = ("ooo", "strict", "invisispec-spectre", "fence-on-branch")
DEFAULT_INSTRUCTIONS = 3_000
DEFAULT_REPEATS = 3
DEFAULT_SEED = 7

#: Payload schema (4: one row per (workload, config) pair).
SCHEMA = 4

#: Interleaved rounds of the telemetry-overhead measurement (at least).
#: Every round times each variant once; a variant's overhead is the
#: median, over rounds, of its time divided by the detached time of the
#: same round, so one noisy round cannot move the estimate.
OBS_ROUNDS = 25


class SimSpeedError(RuntimeError):
    """Raised when two must-be-identical runs diverge."""


def _time_run(program, config, fast_forward: bool, repeats: int):
    """Best-of-*repeats* wall time of ``core.run()`` alone.

    A fresh core is constructed per repeat (runs mutate machine state),
    but construction — including the micro-op pre-decode — happens
    before the clock starts.  Returns ``(seconds, outcome)``.
    """
    best = None
    outcome = None
    for _ in range(repeats):
        core = make_core(program, config, fast_forward=fast_forward)
        start = time.perf_counter()
        result = core.run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            outcome = result
    return best, outcome


def _check_identical(what: str, a, b) -> None:
    if (a.stats.cycles != b.stats.cycles
            or a.stats.committed != b.stats.committed):
        raise SimSpeedError(
            "%s diverged: cycles %d vs %d, committed %d vs %d" % (
                what, a.stats.cycles, b.stats.cycles,
                a.stats.committed, b.stats.committed,
            )
        )


def measure_case(
    workload: str,
    config_name: str,
    instructions: int = DEFAULT_INSTRUCTIONS,
    repeats: int = DEFAULT_REPEATS,
    seed: int = DEFAULT_SEED,
) -> Dict[str, object]:
    """Time one (workload, config) pair, FF on and off."""
    spec = config_registry()[config_name]
    if spec.in_order:
        raise ValueError(
            "%r is an in-order configuration; the simulator-speed "
            "benchmark measures the out-of-order core" % config_name
        )
    program = spec_program(workload, instructions=instructions, seed=seed)
    wall_ff, fast = _time_run(program, spec.config, True, repeats)
    wall_no, slow = _time_run(program, spec.config, False, repeats)
    _check_identical(
        "fast-forward on %s/%s" % (workload, config_name), fast, slow,
    )
    cycles = fast.stats.cycles
    committed = fast.stats.committed
    return {
        "workload": workload,
        "config": config_name,
        "label": spec.label,
        "cycles": cycles,
        "committed": committed,
        "wall_seconds": wall_ff,
        "wall_seconds_no_ff": wall_no,
        "cycles_per_sec": cycles / wall_ff if wall_ff > 0 else 0.0,
        "cycles_per_sec_no_ff": cycles / wall_no if wall_no > 0 else 0.0,
        "committed_per_sec": committed / wall_ff if wall_ff > 0 else 0.0,
        "speedup_vs_no_ff": wall_no / wall_ff if wall_ff > 0 else 0.0,
    }


def _one_obs_run(program, config, attach_bus: bool, sample_interval: int,
                 tracer=None):
    """One timed core run, optionally with an attached telemetry bus
    (and a metrics sampler on it) and/or a run span on *tracer*."""
    core = make_core(program, config)
    sampler = None
    if attach_bus:
        from repro.obs import EventBus, MetricsSampler

        bus = EventBus().attach(core)
        if sample_interval:
            sampler = bus.add_sampler(MetricsSampler(sample_interval))
    start = time.perf_counter()
    if tracer is not None:
        with tracer.span("simspeed.run",
                         attrs={"program": program.name or ""}):
            result = core.run()
    else:
        result = core.run()
    elapsed = time.perf_counter() - start
    return elapsed, result, len(sampler.rows) if sampler is not None else 0


def measure_obs_overhead(
    workload: str = "mcf",
    config_name: str = "strict",
    instructions: int = DEFAULT_INSTRUCTIONS,
    repeats: int = DEFAULT_REPEATS,
    seed: int = DEFAULT_SEED,
    sample_interval: int = 1_000,
) -> Dict[str, object]:
    """Cost of the telemetry layer on one (workload, config) pair.

    Four timed variants of the same run: no bus at all (**detached** —
    every observer slot is None), a bus attached with no subscribers
    (every per-event attribute still None), a bus with a periodic
    metrics sampler, and a run under an installed span tracer spooling
    to a scratch directory (the span-tracing attach cost — one
    span + one JSONL append per run).  All four must be bit-identical;
    the overhead contract (DESIGN.md §3.5/§3.9) is ~0% for the first
    two and <10% with sampling or tracing enabled.

    The variants run in at least :data:`OBS_ROUNDS` interleaved rounds,
    each in a rotated order, so slow host drift — thermal, cache,
    scheduler — biases every variant alike.  Each overhead is a paired
    estimate: the median over rounds of the variant's time divided by
    the detached time of the same round.  The ``wall_seconds_*`` fields
    are per-variant medians.
    """
    import tempfile

    from repro.obs.spans import Tracer, install_tracer, uninstall_tracer

    spec = config_registry()[config_name]
    if spec.in_order:
        raise ValueError(
            "%r is an in-order configuration; measure the out-of-order "
            "core" % config_name
        )
    program = spec_program(workload, instructions=instructions, seed=seed)
    variants = {
        "detached": (False, 0, False),
        "attached-idle": (True, 0, False),
        "sampling": (True, sample_interval, False),
        "tracing": (False, 0, True),
    }
    names = list(variants)
    times: Dict[str, List[float]] = {name: [] for name in names}
    base = None
    samples = 0
    rounds = max(repeats, OBS_ROUNDS)
    with tempfile.TemporaryDirectory() as spool_dir:
        for index in range(rounds):
            shift = index % len(names)
            for name in names[shift:] + names[:shift]:
                attach_bus, interval, traced = variants[name]
                tracer = None
                if traced:
                    tracer = Tracer("simspeed", spool_dir=spool_dir)
                    install_tracer(tracer)
                try:
                    elapsed, result, rows = _one_obs_run(
                        program, spec.config, attach_bus, interval,
                        tracer=tracer,
                    )
                finally:
                    if traced:
                        uninstall_tracer()
                times[name].append(elapsed)
                if base is None:
                    base = result
                else:
                    _check_identical(
                        "telemetry variant %r on %s/%s" % (
                            name, workload, config_name,
                        ),
                        result, base,
                    )
                if name == "sampling":
                    samples = rows

    def overhead(name: str) -> float:
        return statistics.median(
            elapsed / detached
            for elapsed, detached in zip(times[name], times["detached"])
        ) - 1.0

    wall = {name: statistics.median(times[name]) for name in names}
    return {
        "workload": workload,
        "config": config_name,
        "cycles": base.stats.cycles,
        "sample_interval": sample_interval,
        "samples": samples,
        "rounds": rounds,
        "wall_seconds_detached": wall["detached"],
        "wall_seconds_attached_idle": wall["attached-idle"],
        "wall_seconds_sampling": wall["sampling"],
        "wall_seconds_tracing": wall["tracing"],
        "overhead_attached_idle": overhead("attached-idle"),
        "overhead_sampling": overhead("sampling"),
        "overhead_tracing": overhead("tracing"),
    }


def run_simspeed(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    instructions: int = DEFAULT_INSTRUCTIONS,
    repeats: int = DEFAULT_REPEATS,
    seed: int = DEFAULT_SEED,
    verbose: bool = False,
    obs: bool = False,
) -> Dict[str, object]:
    """Measure the full matrix; returns the JSON (schema 4) payload."""
    results: List[Dict[str, object]] = []
    for workload in workloads:
        for config_name in configs:
            case = measure_case(
                workload, config_name,
                instructions=instructions, repeats=repeats, seed=seed,
            )
            results.append(case)
            if verbose:
                print(
                    "  %-12s %-20s %8.0f kc/s" % (
                        case["workload"], case["config"],
                        case["cycles_per_sec"] / 1000.0,
                    )
                )
    speedups = [c["speedup_vs_no_ff"] for c in results]
    rates = [c["cycles_per_sec"] for c in results]
    payload: Dict[str, object] = {
        "schema": SCHEMA,
        "instructions": instructions,
        "repeats": repeats,
        "seed": seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
        "aggregate": {
            "min_speedup_vs_no_ff": min(speedups) if speedups else 0.0,
            "max_speedup_vs_no_ff": max(speedups) if speedups else 0.0,
            "best_cycles_per_sec": max(rates) if rates else 0.0,
        },
    }
    if obs:
        overhead = measure_obs_overhead(
            workload=workloads[0] if workloads else "mcf",
            config_name="strict" if "strict" in configs else configs[0],
            instructions=instructions, repeats=repeats, seed=seed,
        )
        payload["obs"] = overhead
        if verbose:
            print(
                "  obs overhead on %s/%s: %+.1f%% attached-idle, "
                "%+.1f%% sampling (%d samples), %+.1f%% tracing" % (
                    overhead["workload"], overhead["config"],
                    overhead["overhead_attached_idle"] * 100.0,
                    overhead["overhead_sampling"] * 100.0,
                    overhead["samples"],
                    overhead["overhead_tracing"] * 100.0,
                )
            )
    return payload


def profile_case(
    workload: str,
    config_name: str,
    output_path: str,
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = DEFAULT_SEED,
) -> str:
    """cProfile one run of a row; dump pstats to *output_path*.

    Construction stays outside the profiler, matching what the timer
    measures.  Returns the path written.  Note cProfile's tracing
    inflates wall time several-fold — the dump is for *relative*
    hotspot triage, never for kc/s numbers.
    """
    import cProfile
    import os

    spec = config_registry()[config_name]
    program = spec_program(workload, instructions=instructions, seed=seed)
    core = make_core(program, spec.config)
    profiler = cProfile.Profile()
    profiler.enable()
    core.run()
    profiler.disable()
    directory = os.path.dirname(output_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    profiler.dump_stats(output_path)
    return output_path


def _slowest_row(payload: Dict[str, object]) -> Optional[Dict[str, object]]:
    """The row with the lowest kc/s (profiling target)."""
    rows = [
        c for c in payload.get("results", []) if c.get("cycles_per_sec")
    ]
    if not rows:
        return None
    return min(rows, key=lambda c: c["cycles_per_sec"])


def render_simspeed(payload: Dict[str, object]) -> str:
    """ASCII table of one payload (schema 4)."""
    lines = [
        "Simulator speed (%d instructions, best of %d, seed %d, "
        "Python %s)" % (
            payload["instructions"], payload["repeats"],
            payload["seed"], payload["python"],
        ),
        "",
        "%-12s %-20s %10s %10s %10s %8s" % (
            "workload", "config", "sim-cycles",
            "kc/s (ff)", "kc/s (off)", "ff-spd",
        ),
        "-" * 76,
    ]
    for case in payload["results"]:
        lines.append(
            "%-12s %-20s %10d %10.0f %10.0f %7.2fx" % (
                case["workload"], case["config"], case["cycles"],
                case["cycles_per_sec"] / 1000.0,
                case["cycles_per_sec_no_ff"] / 1000.0,
                case["speedup_vs_no_ff"],
            )
        )
    agg = payload["aggregate"]
    lines.append("-" * 76)
    lines.append(
        "fast-forward speedup: min %.2fx, max %.2fx; best rate %.0f kc/s"
        % (
            agg["min_speedup_vs_no_ff"], agg["max_speedup_vs_no_ff"],
            agg["best_cycles_per_sec"] / 1000.0,
        )
    )
    obs = payload.get("obs")
    if obs:
        lines.append(
            "telemetry overhead (%s/%s, interval %d, median of %d paired "
            "rounds): %+.1f%% attached-idle, %+.1f%% sampling "
            "(%d samples), %+.1f%% tracing" % (
                obs["workload"], obs["config"], obs["sample_interval"],
                obs["rounds"],
                obs["overhead_attached_idle"] * 100.0,
                obs["overhead_sampling"] * 100.0,
                obs["samples"],
                obs.get("overhead_tracing", 0.0) * 100.0,
            )
        )
    return "\n".join(lines)


def compare_simspeed(
    payload: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = 0.25,
) -> List[str]:
    """Warnings for cases slower than *baseline* by more than *threshold*.

    Compares ``cycles_per_sec`` per (workload, config).  Returns
    human-readable warning strings — the CI job prints them and still
    exits 0, because shared-runner wall clocks are far too noisy for a
    hard perf gate.
    """
    warnings: List[str] = []
    if payload.get("schema") != baseline.get("schema"):
        return [
            "NOTE: baseline is schema %r, this run is schema %r -- "
            "skipping the regression check (rows are not comparable "
            "across schemas)" % (
                baseline.get("schema"), payload.get("schema"),
            )
        ]
    for key in ("instructions", "seed"):
        if payload.get(key) != baseline.get(key):
            # kc/s scales with program size, so cross-parameter diffs
            # would be pure noise; say so instead of fake-warning.
            return [
                "NOTE: baseline measured with %s=%r, this run with %r "
                "-- skipping the regression check"
                % (key, baseline.get(key), payload.get(key))
            ]
    reference = {
        (case["workload"], case["config"]): case
        for case in baseline.get("results", [])
    }
    for case in payload["results"]:
        key = (case["workload"], case["config"])
        base = reference.get(key)
        if base is None or not base["cycles_per_sec"]:
            continue
        ratio = case["cycles_per_sec"] / base["cycles_per_sec"]
        if ratio < 1.0 - threshold:
            warnings.append(
                "WARNING: %s/%s simulates at %.0f kc/s, "
                "%.0f%% below the baseline's %.0f kc/s" % (
                    key[0], key[1],
                    case["cycles_per_sec"] / 1000.0,
                    (1.0 - ratio) * 100.0,
                    base["cycles_per_sec"] / 1000.0,
                )
            )
    return warnings


# ---------------------------------------------------------------------- #
# Perf trajectory: append-only bench history across commits.
# ---------------------------------------------------------------------- #

#: Append-only JSONL file ``--history`` writes one row per run to.
HISTORY_PATH = "results/bench_history.jsonl"


def _history_rates(payload: Dict[str, object]) -> Dict[str, float]:
    """Flatten a simspeed payload to ``key -> cycles_per_sec``."""
    rates: Dict[str, float] = {}
    for case in payload.get("results", []):
        key = "%s/%s" % (case.get("workload", "?"), case.get("config", "?"))
        rates[key] = round(float(case.get("cycles_per_sec", 0.0)), 1)
    return rates


def append_history(payload: Dict[str, object],
                   path: str = HISTORY_PATH) -> Dict[str, object]:
    """Append one timestamped, git-SHA-stamped row for *payload*.

    The file is JSONL so rows from different commits accumulate without
    merge conflicts; :func:`compare_history` reads the last row back.
    Returns the entry written.
    """
    import datetime
    from pathlib import Path

    from repro.obs.manifest import git_revision

    entry = {
        "recorded": datetime.datetime.now(
            datetime.timezone.utc
        ).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_revision": git_revision(default=""),
        "schema": payload.get("schema"),
        "instructions": payload.get("instructions"),
        "seed": payload.get("seed"),
        "cycles_per_sec": _history_rates(payload),
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(path: str = HISTORY_PATH) -> List[Dict[str, object]]:
    """Every parseable history row, oldest first (missing file: [])."""
    from pathlib import Path

    rows: List[Dict[str, object]] = []
    try:
        text = Path(path).read_text()
    except OSError:
        return rows
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def compare_history(payload: Dict[str, object],
                    path: str = HISTORY_PATH,
                    threshold: float = 0.25) -> List[str]:
    """Human-readable drift report vs the last history row (warn-only).

    Flags per-case throughput moves beyond *threshold* in either
    direction; comparable only on the same host, so CI treats these as
    annotations, not gates.  A previous row of another schema is not
    compared.
    """
    history = load_history(path)
    if not history:
        return ["history: no prior rows at %s (this run seeds it)" % path]
    prev = history[-1]
    if prev.get("schema") != payload.get("schema"):
        return [
            "history: previous row is schema %r, this run is schema %r "
            "-- skipping the drift check" % (
                prev.get("schema"), payload.get("schema"),
            )
        ]
    lines = [
        "history: comparing against %s (%s, %d prior rows)" % (
            (prev.get("git_revision") or "no-git")[:12],
            prev.get("recorded", "?"), len(history),
        )
    ]
    prev_rates = prev.get("cycles_per_sec") or {}
    for key, now_rate in sorted(_history_rates(payload).items()):
        then_rate = prev_rates.get(key)
        if not then_rate or not now_rate:
            continue
        ratio = now_rate / then_rate
        if ratio < 1.0 - threshold:
            lines.append(
                "  WARNING %-36s %.0f -> %.0f kc/s (%.0f%% slower)" % (
                    key, then_rate / 1e3, now_rate / 1e3,
                    (1.0 - ratio) * 100.0,
                )
            )
        elif ratio > 1.0 + threshold:
            lines.append(
                "  note    %-36s %.0f -> %.0f kc/s (%.0f%% faster)" % (
                    key, then_rate / 1e3, now_rate / 1e3,
                    (ratio - 1.0) * 100.0,
                )
            )
    if len(lines) == 1:
        lines.append("  all cases within %.0f%% of the previous row"
                     % (threshold * 100.0))
    return lines
