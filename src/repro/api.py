"""The one documented simulation surface.

Everything a caller needs to run one program lives here, under two
run functions with one shared keyword vocabulary:

* :func:`simulate`   — run one program to completion (OoO or in-order)
* :func:`run_window` — one SMARTS measurement window (same knobs)

Full paper sweeps go through :func:`repro.harness.experiment.run_suite`
(exported as ``repro.run_suite``), the same function ``nda-repro bench``
calls.

The shared keywords mean the same thing everywhere they appear:

``in_order``
    Pick the serial timing core instead of the out-of-order pipeline.
``max_cycles``
    Cycle budget; ``None`` selects the per-core default (5M cycles
    out-of-order, 50M in-order — the in-order core needs more cycles
    for the same instruction count).
``fast_forward``
    Toggle the OoO core's bit-identical idle-cycle fast-forward.
    Results are unchanged either way; ``False`` is the reference that
    the equivalence tests compare against.
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
    fast_forward: bool = True,
    manifest: bool = False,
) -> RunOutcome:
    """Run *program* to completion on the configured machine.

    This is the canonical entry point for single-program simulation:

    >>> outcome = simulate(program, nda_config(NDAPolicyName.STRICT))
    >>> baseline = simulate(program, in_order=True)

    ``in_order=True`` selects the serial timing core (the paper's
    TimingSimpleCPU analog).  The out-of-order core is Table 3's
    machine: a tournament direction predictor, LRU caches filled on
    demand only, and loads that always bypass unresolved stores.
    See the module docstring for the shared keyword contract.
    """
    if in_order:
        core: Union[InOrderCore, OutOfOrderCore] = InOrderCore(
            program, config
        )
    else:
        core = make_core(program, config, fast_forward=fast_forward)
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
    "MetricsSampler",
    "build_manifest",
    "ensure_bus",
    "smt_trace_events",
    "write_manifest",
)

__all__ = [
    "simulate",
    "run_window",
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
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
