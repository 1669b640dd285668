"""Pipeline statistics collected during simulation.

Everything the paper's evaluation section reports is derived from these
counters: CPI (Fig. 7), the four-way cycle breakdown (Fig. 9a), MLP and ILP
(Fig. 9b/9c), and dispatch-to-issue latency (Fig. 9d).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class CycleClass:
    """Labels for the Fig. 9a breakdown."""

    COMMIT = "commit"
    MEMORY_STALL = "memory_stall"
    BACKEND_STALL = "backend_stall"
    FRONTEND_STALL = "frontend_stall"

    ALL = (COMMIT, MEMORY_STALL, BACKEND_STALL, FRONTEND_STALL)


@dataclass
class PipelineStats:
    """Mutable counter block owned by one core instance."""

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    dispatched: int = 0
    issued: int = 0
    squashes: int = 0
    squashed_ops: int = 0
    branch_mispredicts: int = 0
    branches_resolved: int = 0
    memory_violations: int = 0
    faults: int = 0
    # Fig 9a cycle classification.
    cycle_class: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in CycleClass.ALL}
    )
    # Fig 9c ILP: issued micro-ops on cycles with >= 1 issue.
    ilp_sum: int = 0
    ilp_cycles: int = 0
    # Fig 9b MLP: outstanding off-chip misses on cycles with >= 1.
    mlp_sum: int = 0
    mlp_cycles: int = 0
    # Fig 9d dispatch-to-issue latency over committed micro-ops: mean plus
    # a power-of-two bucketed histogram (bucket key = lower bound).
    dispatch_to_issue_sum: int = 0
    dispatch_to_issue_count: int = 0
    dispatch_to_issue_hist: Dict[int, int] = field(default_factory=dict)
    # NDA accounting.
    deferred_broadcasts: int = 0
    broadcast_port_conflicts: int = 0
    # InvisiSpec accounting.
    invisible_loads: int = 0
    validations: int = 0
    exposures: int = 0
    # Host-side measurement of the run itself, filled in by ``run()``.
    # These describe the *simulator's* speed, not simulated state, so
    # they are nondeterministic and excluded from every bit-identity
    # comparison (golden tests, fast-forward equivalence).
    sim_wall_seconds: float = 0.0
    kilo_cycles_per_sec: float = 0.0

    # ------------------------------------------------------------------ #
    # Derived metrics.
    # ------------------------------------------------------------------ #

    @property
    def cpi(self) -> float:
        return self.cycles / self.committed if self.committed else float("inf")

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def ilp(self) -> float:
        """Average issue parallelism over busy-issue cycles (Fig 9c)."""
        return self.ilp_sum / self.ilp_cycles if self.ilp_cycles else 0.0

    @property
    def mlp(self) -> float:
        """Average outstanding off-chip misses when >= 1 outstanding
        (Chou et al. definition, Fig 9b)."""
        return self.mlp_sum / self.mlp_cycles if self.mlp_cycles else 0.0

    def record_dispatch_to_issue(self, latency: int) -> None:
        self.dispatch_to_issue_sum += latency
        self.dispatch_to_issue_count += 1
        bucket = 0
        while (1 << (bucket + 1)) <= latency:
            bucket += 1
        key = 0 if latency <= 0 else (1 << bucket)
        hist = self.dispatch_to_issue_hist
        hist[key] = hist.get(key, 0) + 1

    @property
    def mean_dispatch_to_issue(self) -> float:
        if not self.dispatch_to_issue_count:
            return 0.0
        return self.dispatch_to_issue_sum / self.dispatch_to_issue_count

    @property
    def mispredict_rate(self) -> float:
        if not self.branches_resolved:
            return 0.0
        return self.branch_mispredicts / self.branches_resolved

    def classify_cycle(self, label: str) -> None:
        self.cycle_class[label] += 1

    def breakdown_fractions(self) -> Dict[str, float]:
        """Cycle-class shares, summing to 1.0 (over classified cycles)."""
        total = sum(self.cycle_class.values())
        if not total:
            return {name: 0.0 for name in CycleClass.ALL}
        return {
            name: count / total for name, count in self.cycle_class.items()
        }

    def snapshot(self) -> "PipelineStats":
        """Independent copy of the counter block (dicts deep-copied)."""
        copy = PipelineStats()
        for info in fields(PipelineStats):
            value = getattr(self, info.name)
            setattr(
                copy, info.name,
                dict(value) if isinstance(value, dict) else value,
            )
        return copy

    def delta(self, start: "PipelineStats") -> "PipelineStats":
        """Counters accumulated since *start* (a snapshot of this core)."""
        delta = PipelineStats()
        for info in fields(PipelineStats):
            name = info.name
            end_value = getattr(self, name)
            start_value = getattr(start, name)
            if isinstance(end_value, dict):
                setattr(
                    delta, name,
                    {k: end_value[k] - start_value.get(k, 0)
                     for k in end_value},
                )
            else:
                setattr(delta, name, end_value - start_value)
        return delta

    def to_dict(self) -> Dict:
        """JSON-serializable form (dict keys become strings)."""
        out: Dict = {}
        for info in fields(self):
            value = getattr(self, info.name)
            if isinstance(value, dict):
                out[info.name] = {str(k): v for k, v in value.items()}
            else:
                out[info.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: Dict) -> "PipelineStats":
        """Inverse of :meth:`to_dict`; integer dict keys are restored.

        Raises ``ValueError`` unless every field is present with its
        declared type: an int field holds an int, a float field an int
        or a float, a dict field an object of ints, and none a bool.
        """
        if not isinstance(payload, dict):
            raise ValueError("stats must be an object")
        stats = cls()
        for info in fields(cls):
            value = payload.get(info.name)
            default = getattr(stats, info.name)
            if isinstance(default, dict):
                if not isinstance(value, dict) or not all(
                        _is_int(item) for item in value.values()):
                    raise ValueError(
                        "stats field %r must be an object of integers"
                        % info.name
                    )
                value = {
                    int(key) if isinstance(key, str)
                    and key.lstrip("-").isdigit() else key: item
                    for key, item in value.items()
                }
            elif not (_is_int(value) or isinstance(default, float)
                      and isinstance(value, float)):
                raise ValueError("stats field %r must be %s" % (
                    info.name,
                    "a number" if isinstance(default, float)
                    else "an integer",
                ))
            setattr(stats, info.name, value)
        return stats

    def summary(self) -> Dict[str, float]:
        """Flat dict of the headline metrics (used by reports and tests)."""
        out = {
            "cycles": float(self.cycles),
            "committed": float(self.committed),
            "cpi": self.cpi,
            "ipc": self.ipc,
            "ilp": self.ilp,
            "mlp": self.mlp,
            "dispatch_to_issue": self.mean_dispatch_to_issue,
            "mispredict_rate": self.mispredict_rate,
            "squashes": float(self.squashes),
            "sim_wall_seconds": self.sim_wall_seconds,
            "kilo_cycles_per_sec": self.kilo_cycles_per_sec,
        }
        for name, count in self.cycle_class.items():
            out["cycles_" + name] = float(count)
        return out
