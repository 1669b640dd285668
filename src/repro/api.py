"""The one documented single-program simulation surface.

:func:`simulate` runs one program to completion (OoO or in-order).
One SMARTS measurement window is
:func:`repro.stats.sampling.run_window` (exported as
``repro.run_window``), which takes the same ``in_order``,
``max_cycles`` and ``fast_forward`` keywords.  Full paper sweeps go
through :func:`repro.harness.experiment.run_suite` (exported as
``repro.run_suite``), the same function ``nda-repro bench`` calls.

The keywords of :func:`simulate`:

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

``simulate`` replaced the historical ``run_program``/``run_inorder``
pair (``in_order=True`` selects the in-order core); neither old name
exists any more.  The fuzzer, the co-residency model and the telemetry
layer are imported from their own packages (:mod:`repro.fuzz`,
:mod:`repro.smt`, :mod:`repro.obs`).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import SimConfig
from repro.core import make_core
from repro.core.inorder import InOrderCore
from repro.core.ooo import OutOfOrderCore
from repro.core.outcome import RunOutcome
from repro.isa.program import Program

#: Default cycle budgets per core class.
_DEFAULT_MAX_CYCLES_OOO = 5_000_000
_DEFAULT_MAX_CYCLES_INORDER = 50_000_000


def simulate(
    program: Program,
    config: Optional[SimConfig] = None,
    *,
    in_order: bool = False,
    max_cycles: Optional[int] = None,
    fast_forward: bool = True,
) -> RunOutcome:
    """Run *program* to completion on the configured machine.

    This is the canonical entry point for single-program simulation:

    >>> outcome = simulate(program, nda_config(NDAPolicyName.STRICT))
    >>> baseline = simulate(program, in_order=True)

    ``in_order=True`` selects the serial timing core (the paper's
    TimingSimpleCPU analog).  The out-of-order core is Table 3's
    machine: a tournament direction predictor, LRU caches filled on
    demand only, and loads that always bypass unresolved stores.
    See the module docstring for the keyword contract.
    """
    if in_order:
        core: Union[InOrderCore, OutOfOrderCore] = InOrderCore(
            program, config
        )
    else:
        core = make_core(program, config, fast_forward=fast_forward)
    if max_cycles is None:
        max_cycles = _DEFAULT_MAX_CYCLES_INORDER if in_order \
            else _DEFAULT_MAX_CYCLES_OOO
    from repro.obs.spans import maybe_tracer
    tracer = maybe_tracer()
    if tracer is None:
        return core.run(max_cycles=max_cycles)
    with tracer.span(
        "simulate",
        attrs={"program": program.name or "",
               "in_order": bool(in_order)},
    ) as span:
        outcome = core.run(max_cycles=max_cycles)
        span.attrs["cycles"] = outcome.stats.cycles
    return outcome


__all__ = ["simulate"]
