"""Periodic in-simulation metrics sampler.

A :class:`MetricsSampler` registered on an :class:`~repro.obs.bus.EventBus`
records a time series of structural occupancy every ``interval`` cycles:
ROB/IQ/LQ/SQ entries in use, outstanding off-chip misses, and the
deltas of the deferred-broadcast counters since the previous sample
(i.e. deferred broadcasts per sampling window, "per kilocycle" at the
default interval).

The sampler never participates in the idle-cycle fast-forward decision:
when the core jumps over a quiescent span, all samples that would have
landed inside the span collapse to a single one at the landing cycle.
That is lossless for occupancy (the sampled state is frozen across a
quiescent span by definition) and keeps the fast-forward bit-identical.

Sample rows are plain dicts so the series embeds directly in manifests
and converts to Perfetto counter tracks
(:func:`repro.obs.perfetto.counter_trace_events`).
"""

from __future__ import annotations

from typing import Dict, List

#: Columns of every sample row, in emission order.
SAMPLE_COLUMNS = (
    "cycle",
    "rob",             # reorder-buffer occupancy
    "iq",              # issue-queue occupancy
    "lq",              # load-queue occupancy
    "sq",              # store-queue occupancy
    "outstanding_misses",      # off-chip misses in flight
    "deferred_broadcasts",     # NDA defers since previous sample
    "port_conflicts",          # port-conflict defers since previous sample
)


class MetricsSampler:
    """Time-series sampler for pipeline occupancy.

    Parameters
    ----------
    interval:
        Sampling period in cycles (default: one kilocycle).
    limit:
        Maximum rows retained; sampling keeps running but the series
        stops growing once the cap is reached (bounded memory on long
        runs).
    """

    def __init__(self, interval: int = 1000, limit: int = 100_000) -> None:
        if interval < 1:
            raise ValueError("sampling interval must be positive")
        self.interval = interval
        self.limit = limit
        self.rows: List[Dict[str, int]] = []
        self._prev_deferred = 0
        self._prev_conflicts = 0

    def on_sample(self, core, now: int) -> None:
        """Record one row.  Works on both core classes — structures the
        in-order core lacks read as zero occupancy."""
        stats = core.stats
        deferred = stats.deferred_broadcasts
        conflicts = stats.broadcast_port_conflicts
        if len(self.rows) < self.limit:
            rob = getattr(core, "rob", None)
            iq = getattr(core, "iq", None)
            lsq = getattr(core, "lsq", None)
            hierarchy = getattr(core, "hierarchy", None)
            self.rows.append({
                "cycle": now,
                "rob": len(rob) if rob is not None else 0,
                "iq": iq.size if iq is not None else 0,
                "lq": len(lsq.loads) if lsq is not None else 0,
                "sq": len(lsq.stores) if lsq is not None else 0,
                "outstanding_misses": (
                    hierarchy.outstanding_offchip(now)
                    if hierarchy is not None else 0
                ),
                "deferred_broadcasts": deferred - self._prev_deferred,
                "port_conflicts": conflicts - self._prev_conflicts,
            })
        self._prev_deferred = deferred
        self._prev_conflicts = conflicts

    def series(self, column: str) -> List[int]:
        """One column of the time series, by name."""
        if column not in SAMPLE_COLUMNS:
            raise KeyError(
                "unknown sample column %r (have: %s)"
                % (column, ", ".join(SAMPLE_COLUMNS))
            )
        return [row[column] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)
