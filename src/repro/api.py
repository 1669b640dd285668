"""The one documented simulation surface.

Everything a caller needs lives here, under four run functions with one
shared keyword vocabulary and a typed client for the job server:

* :func:`simulate`     — run one program to completion (OoO or in-order)
* :func:`run_attack`   — run one attack PoC program (same knobs)
* :func:`run_window`   — one SMARTS measurement window (same knobs)
* :func:`submit_suite` — the full paper sweep through the parallel engine
* :class:`ServerClient` — HTTP client for ``repro.server`` (lazy import)

The shared keywords mean the same thing everywhere they appear:

``in_order``
    Pick the serial timing core instead of the out-of-order pipeline.
``max_cycles``
    Cycle budget; ``None`` selects the per-core default (5M cycles
    out-of-order, 50M in-order — the in-order core needs more cycles
    for the same instruction count).
``fast_forward``
    Toggle the OoO core's bit-identical idle-cycle fast-forward.
    Results are unchanged either way; ``False`` exists for equivalence
    tests and the simulator-speed benchmark.
``manifest``
    Write a JSON provenance record for the run under
    ``results/manifests/`` (or ``REPRO_MANIFEST_DIR``).  Opt-in so bulk
    callers like the test suite produce no files.

``simulate`` replaced the historical ``run_program``/``run_inorder``
pair (``in_order=True`` selects the in-order core); neither old name
exists any more.

The differential fuzzer's entry points (``run_with_oracle``,
``run_campaign``, ``run_seed``, ``run_smt_seed``, ``TaintOracle``,
``LeakWitness``), the two-context co-residency model
(``SmtMachine``, ``run_pair`` from :mod:`repro.smt`) and the telemetry
layer's names are re-exported lazily — they resolve on first attribute
access, so plain ``simulate`` users never pay the import.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import SimConfig
from repro.core import make_core
from repro.core.inorder import InOrderCore
from repro.core.ooo import OutOfOrderCore
from repro.core.outcome import RunOutcome
from repro.isa.program import Program
from repro.stats.counters import PipelineStats

#: Default cycle budgets per core class, shared by every run function.
_DEFAULT_MAX_CYCLES_OOO = 5_000_000
_DEFAULT_MAX_CYCLES_INORDER = 50_000_000


def _budget(max_cycles: Optional[int], in_order: bool) -> int:
    if max_cycles is not None:
        return max_cycles
    return _DEFAULT_MAX_CYCLES_INORDER if in_order \
        else _DEFAULT_MAX_CYCLES_OOO


def _write_run_manifest(config, workload: str, stats) -> None:
    from repro.obs.manifest import build_manifest, write_manifest

    write_manifest(build_manifest(config, workload=workload, stats=stats))


def simulate(
    program: Program,
    config: Optional[SimConfig] = None,
    *,
    in_order: bool = False,
    max_cycles: Optional[int] = None,
    direction_predictor: str = "tournament",
    fast_forward: bool = True,
    manifest: bool = False,
) -> RunOutcome:
    """Run *program* to completion on the configured machine.

    This is the canonical entry point for single-program simulation:

    >>> outcome = simulate(program, nda_config(NDAPolicyName.STRICT))
    >>> baseline = simulate(program, in_order=True)

    ``in_order=True`` selects the serial timing core (the paper's
    TimingSimpleCPU analog), which ignores ``direction_predictor``.
    See the module docstring for the shared keyword contract.
    """
    if in_order:
        core: Union[InOrderCore, OutOfOrderCore] = InOrderCore(
            program, config
        )
    else:
        core = make_core(
            program, config, direction_predictor=direction_predictor,
            fast_forward=fast_forward,
        )
    from repro.obs.spans import maybe_tracer
    tracer = maybe_tracer()
    if tracer is None:
        outcome = core.run(max_cycles=_budget(max_cycles, in_order))
    else:
        with tracer.span(
            "simulate",
            attrs={"program": program.name or "",
                   "in_order": bool(in_order)},
        ) as span:
            outcome = core.run(max_cycles=_budget(max_cycles, in_order))
            span.attrs["cycles"] = outcome.stats.cycles
    if manifest:
        _write_run_manifest(core.config, program.name or "", outcome.stats)
    return outcome


def run_attack(
    program: Program,
    config: Optional[SimConfig] = None,
    *,
    in_order: bool = False,
    max_cycles: Optional[int] = None,
    fast_forward: bool = True,
    manifest: bool = False,
) -> RunOutcome:
    """Execute an attack proof-of-concept program on the chosen core.

    Identical to :func:`simulate` minus the direction-predictor knob
    (attacks pin their own predictor state); the host-side harnesses in
    :mod:`repro.attacks` read the covert-channel timings out of the
    returned outcome's final memory.
    """
    outcome = simulate(
        program, config, in_order=in_order,
        max_cycles=max_cycles, fast_forward=fast_forward,
    )
    if manifest:
        cfg = config if config is not None else SimConfig()
        _write_run_manifest(cfg, program.name or "", outcome.stats)
    return outcome


def run_window(
    program: Program,
    config: SimConfig,
    warmup: int = 2_000,
    measure: int = 8_000,
    *,
    in_order: bool = False,
    max_cycles: Optional[int] = None,
    fast_forward: bool = True,
    manifest: bool = False,
) -> PipelineStats:
    """Run one SMARTS measurement window and return its counters.

    Discards the first *warmup* committed instructions and measures the
    next *measure*; raises :class:`~repro.errors.SimulationError` if the
    program halts before the warm-up completes.  Shares the keyword
    contract of :func:`simulate` (see module docstring).
    """
    from repro.stats.sampling import run_window as _run_window

    window = _run_window(
        program, config, warmup, measure, in_order=in_order,
        max_cycles=_budget(max_cycles, in_order),
        fast_forward=fast_forward,
    )
    if manifest:
        _write_run_manifest(config, program.name or "", window)
    return window


def submit_suite(
    benchmarks=None,
    configs=None,
    *,
    samples: int = 3,
    warmup: int = 2_000,
    measure: int = 8_000,
    instructions: int = 14_000,
    seed0: int = 0,
    jobs: Optional[int] = None,
    cache=False,
    cache_dir=None,
    remote_cache: Optional[str] = None,
    progress=None,
    collect_trace: bool = False,
    backend=None,
    backend_options=None,
    checkpoint=None,
    resume=None,
):
    """Run a full sweep through the parallel suite engine.

    A keyword-only facade over :func:`repro.harness.experiment.run_suite`
    (which remains available for positional callers): expands
    ``(benchmark, config, sample)`` jobs, hands them to an execution
    backend (``backend=`` — ``serial``, ``local-pool``, or
    ``worker-protocol`` socket workers; bit-identical results either
    way), and serves repeats from the content-addressed result store
    (``remote_cache=<server URL>`` tiers it with the job server's shared
    artifact routes).  ``checkpoint``/``resume`` keep and replay a
    resumable manifest so preempted sweeps restart where they died.
    Returns a :class:`~repro.harness.experiment.SuiteResult` with
    per-job engine/cache accounting on ``.engine``.

    For the same sweep as a durable HTTP job instead, submit the spec
    through :class:`ServerClient` — the server derives the identical
    cache keys, so warm results short-circuit its queue too.
    """
    from repro.harness.experiment import DEFAULT_SUITE, run_suite

    return run_suite(
        benchmarks if benchmarks is not None else DEFAULT_SUITE,
        configs,
        samples=samples, warmup=warmup, measure=measure,
        instructions=instructions, seed0=seed0, jobs=jobs,
        cache=cache, cache_dir=cache_dir, remote_cache=remote_cache,
        progress=progress, collect_trace=collect_trace,
        backend=backend, backend_options=backend_options,
        checkpoint=checkpoint, resume=resume,
    )


#: Fuzzer names served lazily from :mod:`repro.fuzz` (PEP 562).
_FUZZ_EXPORTS = (
    "LeakWitness",
    "TaintOracle",
    "run_campaign",
    "run_seed",
    "run_smt_seed",
    "run_with_oracle",
)

#: Co-residency names served lazily from :mod:`repro.smt`, same pattern.
_SMT_EXPORTS = (
    "SmtMachine",
    "run_pair",
)

#: Telemetry names served lazily from :mod:`repro.obs`, same pattern.
_OBS_EXPORTS = (
    "EventBus",
    "MetricsRegistry",
    "MetricsSampler",
    "build_manifest",
    "ensure_bus",
    "metrics_from_campaign",
    "metrics_from_run",
    "smt_trace_events",
    "write_manifest",
)

#: Job-server client names served lazily from :mod:`repro.server.client`.
_SERVER_EXPORTS = (
    "JobStatus",
    "ServerClient",
    "ServerError",
)

__all__ = [
    "simulate",
    "run_attack",
    "run_window",
    "submit_suite",
    *_SERVER_EXPORTS,
    *_FUZZ_EXPORTS,
    *_SMT_EXPORTS,
    *_OBS_EXPORTS,
]


def __getattr__(name: str):
    if name in _FUZZ_EXPORTS:
        import repro.fuzz

        return getattr(repro.fuzz, name)
    if name in _SMT_EXPORTS:
        import repro.smt

        return getattr(repro.smt, name)
    if name in _OBS_EXPORTS:
        import repro.obs

        return getattr(repro.obs, name)
    if name in _SERVER_EXPORTS:
        import repro.server.client

        return getattr(repro.server.client, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
