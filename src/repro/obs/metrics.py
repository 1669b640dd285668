"""The metrics registry: counters, gauges, and histograms with labels.

One registry unifies the repo's two stat channels —
:class:`~repro.stats.counters.PipelineStats` and fuzz-campaign witness
counts — behind a single ``MetricsRegistry.collect()`` snapshot:

    registry = MetricsRegistry()
    registry.ingest_pipeline_stats(outcome.stats, scheme="nda-strict",
                                   workload="mcf")
    payload = registry.collect()          # JSON-serializable
    restored = MetricsRegistry.restore(payload)   # exact round-trip

The snapshot embeds in run manifests (:mod:`repro.obs.manifest`) and
renders with ``nda-repro obs metrics``.  Histograms use the same
power-of-two bucketing as ``PipelineStats.record_dispatch_to_issue`` so
the existing dispatch-to-issue histogram imports losslessly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Schema version of the ``collect()`` payload.
METRICS_SCHEMA = 1


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % (amount,))
        self.value += amount


class Gauge:
    """Point-in-time value (may go up or down)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Power-of-two bucketed distribution (bucket key = lower bound)."""

    kind = "histogram"
    __slots__ = ("buckets", "sum", "count")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.sum = 0
        self.count = 0

    def observe(self, value: int, count: int = 1) -> None:
        self.sum += value * count
        self.count += count
        bucket = 0
        while (1 << (bucket + 1)) <= value:
            bucket += 1
        key = 0 if value <= 0 else (1 << bucket)
        self.buckets[key] = self.buckets.get(key, 0) + count

    def load(self, buckets: Dict[int, int], total: int, count: int) -> None:
        """Install a pre-bucketed distribution verbatim."""
        for key, item in buckets.items():
            key = int(key)
            self.buckets[key] = self.buckets.get(key, 0) + item
        self.sum += total
        self.count += count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class Metric:
    """One named metric: a family of instruments keyed by label set."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help: str = "") -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.series: Dict[LabelKey, object] = {}

    def labels(self, **labels: str):
        """The instrument for this label set (created on first use)."""
        key = _label_key(labels)
        instrument = self.series.get(key)
        if instrument is None:
            instrument = _KINDS[self.kind]()
            self.series[key] = instrument
        return instrument


class MetricsRegistry:
    """Name-keyed metric store with a JSON-stable ``collect()`` snapshot."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------ #
    # Creation.
    # ------------------------------------------------------------------ #

    def _metric(self, name: str, kind: str, help: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Metric(name, kind, help)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                "metric %r already registered as a %s, not a %s"
                % (name, metric.kind, kind)
            )
        return metric

    def counter(self, name: str, help: str = "") -> Metric:
        return self._metric(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> Metric:
        return self._metric(name, "gauge", help)

    def histogram(self, name: str, help: str = "") -> Metric:
        return self._metric(name, "histogram", help)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    # ------------------------------------------------------------------ #
    # Snapshot.
    # ------------------------------------------------------------------ #

    def collect(self) -> dict:
        """JSON-serializable snapshot of every metric, deterministically
        ordered (metrics by name, samples by label key)."""
        metrics = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            samples = []
            for key in sorted(metric.series):
                instrument = metric.series[key]
                sample: dict = {"labels": dict(key)}
                if metric.kind == "histogram":
                    sample["sum"] = instrument.sum
                    sample["count"] = instrument.count
                    sample["buckets"] = {
                        str(k): v
                        for k, v in sorted(instrument.buckets.items())
                    }
                else:
                    sample["value"] = instrument.value
                samples.append(sample)
            metrics.append({
                "name": metric.name,
                "kind": metric.kind,
                "help": metric.help,
                "samples": samples,
            })
        return {"schema": METRICS_SCHEMA, "metrics": metrics}

    @classmethod
    def restore(cls, payload: dict) -> "MetricsRegistry":
        """Inverse of :meth:`collect` (exact round-trip)."""
        registry = cls()
        for entry in payload.get("metrics", ()):
            metric = registry._metric(
                entry["name"], entry["kind"], entry.get("help", "")
            )
            for sample in entry.get("samples", ()):
                instrument = metric.labels(**sample.get("labels", {}))
                if metric.kind == "histogram":
                    instrument.load(
                        {int(k): v
                         for k, v in sample.get("buckets", {}).items()},
                        sample.get("sum", 0),
                        sample.get("count", 0),
                    )
                elif metric.kind == "counter":
                    instrument.inc(sample.get("value", 0))
                else:
                    instrument.set(sample.get("value", 0.0))
        return registry

    def render(self) -> str:
        """Monospace table of the snapshot (``nda-repro obs metrics``)."""
        from repro.stats.report import render_table

        rows: List[Tuple[str, str, str, str]] = []
        for entry in self.collect()["metrics"]:
            for sample in entry["samples"]:
                labels = ",".join(
                    "%s=%s" % pair for pair in sorted(sample["labels"].items())
                )
                if entry["kind"] == "histogram":
                    count = sample["count"]
                    mean = sample["sum"] / count if count else 0.0
                    value = "n=%d mean=%.2f" % (count, mean)
                else:
                    value = _fmt_value(sample["value"])
                rows.append((entry["name"], entry["kind"], labels, value))
        return render_table(("metric", "kind", "labels", "value"), rows)

    # ------------------------------------------------------------------ #
    # Ingestion: the two stat channels.
    # ------------------------------------------------------------------ #

    def ingest_pipeline_stats(self, stats, **labels: str) -> None:
        """Fold one :class:`PipelineStats` block in under *labels*."""
        for name, help_text in _PIPELINE_COUNTERS:
            self.counter("sim_" + name, help_text).labels(**labels).inc(
                getattr(stats, name)
            )
        cycle_class = self.counter(
            "sim_cycle_class_cycles", "Fig 9a cycle classification"
        )
        for class_name, count in stats.cycle_class.items():
            cycle_class.labels(cycle_class=class_name, **labels).inc(count)
        self.histogram(
            "sim_dispatch_to_issue_cycles",
            "dispatch-to-issue latency of committed micro-ops (Fig 9d)",
        ).labels(**labels).load(
            dict(stats.dispatch_to_issue_hist),
            stats.dispatch_to_issue_sum,
            stats.dispatch_to_issue_count,
        )
        for name, value, help_text in (
            ("sim_cpi", stats.cpi, "cycles per committed instruction"),
            ("sim_ilp", stats.ilp, "issue parallelism over busy cycles"),
            ("sim_mlp", stats.mlp, "outstanding off-chip misses (Chou)"),
            ("sim_mispredict_rate", stats.mispredict_rate,
             "branch mispredicts / resolved"),
            ("host_wall_seconds", stats.sim_wall_seconds,
             "host wall-clock of the run (nondeterministic)"),
            ("host_kilo_cycles_per_sec", stats.kilo_cycles_per_sec,
             "simulator speed (nondeterministic)"),
        ):
            if value == float("inf"):
                value = 0.0
            self.gauge(name, help_text).labels(**labels).set(value)

    def ingest_campaign(self, campaign, **labels: str) -> None:
        """Fold a fuzz :class:`CampaignResult` in: per-channel baseline
        witness counts, per-config leak counts, counterexamples."""
        witnesses = self.counter(
            "fuzz_witnesses", "leak witnesses per (config, channel)"
        )
        for result in campaign.results:
            for witness in result.witnesses:
                witnesses.labels(
                    config=result.config_name, channel=witness.channel,
                    **labels
                ).inc()
        runs = self.counter("fuzz_runs", "fuzz (seed, config) executions")
        leaked = self.counter("fuzz_leaked_runs", "runs with >=1 witness")
        for result in campaign.results:
            runs.labels(config=result.config_name, **labels).inc()
            if result.leaked:
                leaked.labels(config=result.config_name, **labels).inc()
        self.counter(
            "fuzz_counterexamples",
            "witnesses under a scheme claiming that channel blocked",
        ).labels(**labels).inc(len(campaign.counterexamples))
        self.counter("fuzz_failures", "seeds whose simulation raised").labels(
            **labels
        ).inc(len(campaign.failures))


#: PipelineStats integer counters mirrored 1:1 (name, help).
_PIPELINE_COUNTERS = tuple(
    (name, help_text) for name, help_text in (
        ("cycles", "simulated cycles"),
        ("committed", "architecturally committed instructions"),
        ("fetched", "fetched micro-ops (wrong path included)"),
        ("dispatched", "dispatched micro-ops"),
        ("issued", "issued micro-ops"),
        ("squashes", "pipeline squashes"),
        ("squashed_ops", "micro-ops discarded by squashes"),
        ("branch_mispredicts", "mispredicted branches"),
        ("branches_resolved", "resolved branches"),
        ("memory_violations", "load-store ordering violations"),
        ("faults", "architectural faults delivered"),
        ("deferred_broadcasts", "NDA deferred wake-ups"),
        ("broadcast_port_conflicts", "broadcasts deferred on ports"),
        ("invisible_loads", "InvisiSpec invisible loads"),
        ("validations", "InvisiSpec blocking validations"),
        ("exposures", "InvisiSpec off-critical-path exposures"),
    )
)


def _fmt_value(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return "%.3f" % value
    return str(int(value))


def metrics_from_run(stats, **labels: str) -> MetricsRegistry:
    """Registry holding one run's pipeline stats (the common case)."""
    registry = MetricsRegistry()
    registry.ingest_pipeline_stats(stats, **labels)
    return registry


def metrics_from_campaign(campaign, **labels: str) -> MetricsRegistry:
    """Registry holding one fuzz campaign's outcome."""
    registry = MetricsRegistry()
    registry.ingest_campaign(campaign, **labels)
    return registry
