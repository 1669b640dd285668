"""``repro.obs``: the unified telemetry layer.

One cross-cutting observability stack for the whole simulator:

* :class:`EventBus` — a structured event bus attached to the cores, the
  LSQ and the memory hierarchy through no-op-when-None observer slots:
  the one instrumentation path, shared by the pipeline tracer, the
  metrics sampler and the fuzzer's taint oracle.  Detached (the
  default), every hook is a single ``is None`` test and simulation is
  bit-identical to a build without the bus; attached, subscribers
  receive typed pipeline events.
* :class:`MetricsSampler` — a periodic in-simulation sampler producing
  occupancy/MLP/deferred-broadcast time series.
* :mod:`repro.obs.perfetto` — Chrome trace-event (Perfetto) JSON export
  of per-instruction lifecycle spans, sampler counter tracks and merged
  span spools.
* :mod:`repro.obs.spans` — trace spans for local runs: a traced CLI
  command's root span, the engine's run and per-job spans below it,
  spooled per process and merged into one Perfetto trace.
* :mod:`repro.obs.manifest` — JSON run manifests: a provenance record
  (config hash, seed, scheme, git revision, host, timings, and the
  run's ``PipelineStats`` or the campaign's counts) for every run that
  asks for one, written under ``results/manifests/``.

See DESIGN.md §3.5 ("Observability") for the event taxonomy, the
overhead contract, and the manifest schema; §3.9 covers the span
taxonomy and the spool/merger formats.
"""

from repro.obs.bus import EventBus, ensure_bus
from repro.obs.spans import (
    Span,
    Tracer,
    install_tracer,
    maybe_tracer,
    uninstall_tracer,
)
from repro.obs.sampler import MetricsSampler
from repro.obs.perfetto import (
    counter_trace_events,
    lifecycle_trace_events,
    merge_span_spools,
    read_span_spools,
    smt_trace_events,
    span_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    latest_manifest,
    list_manifests,
    load_manifest,
    manifest_dir,
    validate_manifest,
    write_manifest,
)

__all__ = [
    "EventBus",
    "ensure_bus",
    "MetricsSampler",
    "Span",
    "Tracer",
    "install_tracer",
    "maybe_tracer",
    "uninstall_tracer",
    "counter_trace_events",
    "lifecycle_trace_events",
    "merge_span_spools",
    "read_span_spools",
    "smt_trace_events",
    "span_trace_events",
    "validate_chrome_trace",
    "write_chrome_trace",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "latest_manifest",
    "list_manifests",
    "load_manifest",
    "manifest_dir",
    "validate_manifest",
    "write_manifest",
]
