"""``repro.obs``: the unified telemetry layer.

Four modules, each imported by name (this package re-exports nothing,
so a process loads only the modules it uses):

* :mod:`repro.obs.bus` — the :class:`~repro.obs.bus.EventBus`, attached
  to the cores, the LSQ and the memory hierarchy through
  no-op-when-None observer slots: the one instrumentation path, shared
  by the pipeline tracer, the metrics sampler and the fuzzer's taint
  oracle.  Detached (the default), every hook is a single ``is None``
  test and simulation is bit-identical to a build without the bus;
  attached, subscribers receive typed pipeline events.
* :mod:`repro.obs.sampler` — the
  :class:`~repro.obs.sampler.MetricsSampler`, a periodic in-simulation
  sampler producing occupancy/MLP/deferred-broadcast time series.
* :mod:`repro.obs.perfetto` — Chrome trace-event (Perfetto) JSON export
  of per-instruction lifecycle spans, sampler counter tracks and merged
  span spools.
* :mod:`repro.obs.spans` — trace spans for local runs: a traced CLI
  command's root span, the engine's run and per-job spans below it,
  spooled per process and merged into one Perfetto trace.

``repro.obs.manifest`` holds only ``git_revision()``, which the
end-to-end benchmark stamps on its history rows.

See DESIGN.md §3.5 ("Observability") for the event taxonomy and the
overhead contract; §3.9 covers the span taxonomy and the spool/merger
formats.
"""
