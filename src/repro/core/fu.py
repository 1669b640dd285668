"""Functional-unit pool.

Models issue-port contention per :class:`~repro.isa.opcodes.FUType`.  ALU,
branch, memory (AGU), MUL and FP units are pipelined — each unit accepts one
new micro-op per cycle regardless of latency — while the divider is
unpipelined and stays busy for the full operation.  Port contention is the
covert channel SMoTher-Spectre exploits; modeling it per-type keeps that
channel representable (see ``tests/test_fu.py``).

State is int-indexed by :data:`repro.isa.microops.FU_ID`: the core's
issue phase reads ``_used``/``_counts_by_id`` directly and calls the
``*_id`` methods; the enum-accepting methods are views of the same state.
"""

from __future__ import annotations

from typing import List

from repro.config import CoreConfig
from repro.isa.microops import FU_BY_ID, FU_ID
from repro.isa.opcodes import FUType

_FU_FP = FU_ID[FUType.FP]
_FU_DIV = FU_ID[FUType.DIV]


class FUPool:
    """Tracks per-cycle issue-slot usage for every functional-unit class."""

    __slots__ = (
        "counts", "_counts_by_id", "_used", "_used_cycle", "_div_free",
        "_fpu_sleep", "_fpu_wakeup", "_fpu_last_issue",
    )

    def __init__(self, config: CoreConfig):
        counts = {
            FUType.ALU: config.num_alu,
            FUType.MUL: config.num_mul,
            FUType.DIV: config.num_div,
            FUType.FP: config.num_fp,
            FUType.MEM: config.num_mem_ports,
            FUType.BRANCH: config.num_branch,
            FUType.SYS: 1,
        }
        self.counts = counts
        self._counts_by_id: List[int] = [counts[fu] for fu in FU_BY_ID]
        self._used: List[int] = [0] * len(FU_BY_ID)
        self._used_cycle = -1
        # Unpipelined units: cycle at which each instance frees up.
        self._div_free: List[int] = [0] * config.num_div
        # FPU power gating (NetSpectre channel): last FP issue time.  The
        # unit starts asleep; wrong-path issues wake it and squash does
        # not revert the power state.
        self._fpu_sleep = config.fpu_sleep_cycles
        self._fpu_wakeup = config.fpu_wakeup_cycles
        self._fpu_last_issue = -(10 ** 9)

    def _roll(self, now: int) -> None:
        if now != self._used_cycle:
            used = self._used
            for i in range(len(used)):
                used[i] = 0
            self._used_cycle = now

    def can_issue_id(self, fu_id: int, now: int) -> bool:
        """True when an issue slot on unit id *fu_id* is free at *now*."""
        if now != self._used_cycle:
            self._roll(now)
        if self._used[fu_id] >= self._counts_by_id[fu_id]:
            return False
        if fu_id == _FU_DIV:
            for free in self._div_free:
                if free <= now:
                    return True
            return False
        return True

    def issue_id(self, fu_id: int, now: int, latency: int) -> int:
        """Consume one issue slot on unit id *fu_id* at cycle *now*.

        Returns the extra execution latency the micro-op pays (non-zero
        only for FP ops issued to a power-gated FPU).
        """
        if now != self._used_cycle:
            self._roll(now)
        self._used[fu_id] += 1
        if fu_id == _FU_FP:
            penalty = self.fp_wakeup_penalty(now)
            self._fpu_last_issue = now
            return penalty
        if fu_id == _FU_DIV:
            div_free = self._div_free
            for i, free in enumerate(div_free):
                if free <= now:
                    div_free[i] = now + latency
                    return 0
        return 0

    def can_issue(self, fu: FUType, now: int) -> bool:
        return self.can_issue_id(FU_ID[fu], now)

    def issue(self, fu: FUType, now: int, latency: int) -> int:
        return self.issue_id(FU_ID[fu], now, latency)

    def fp_wakeup_penalty(self, now: int) -> int:
        """Extra cycles the next FP op pays if the FPU is power-gated."""
        if now - self._fpu_last_issue > self._fpu_sleep:
            return self._fpu_wakeup
        return 0

    def fpu_awake(self, now: int) -> bool:
        """Is the FP cluster currently powered (observable channel state)?"""
        return now - self._fpu_last_issue <= self._fpu_sleep

    def used(self, fu: FUType, now: int) -> int:
        """Issue slots already consumed on *fu* this cycle (for stats)."""
        self._roll(now)
        return self._used[FU_ID[fu]]
