"""Register renaming: physical register file, free list, and rename table.

The model follows the MIPS R10000 / paper §5 baseline: architectural
registers are renamed onto a unified physical register file; the rename
table (RAT) maps arch -> phys; each dynamic instruction records the mapping
it displaced so that squash can roll the table back by walking the ROB from
the tail (no checkpoints needed, and rollback works from *any* squash point:
branch, memory-order violation, or fault).

Register readiness is where NDA plugs in: a physical register's value may
be *written* (execution completed) long before it is marked *ready*
(broadcast).  Consumers may only issue once the register is ready, so
deferring broadcast is exactly "delaying wake-up" in the paper's terms.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import SimulationError
from repro.isa.registers import NUM_ARCH_REGS, R0


class PhysRegFile:
    """Unified physical register file with ready bits and a free list."""

    def __init__(self, num_regs: int):
        if num_regs <= NUM_ARCH_REGS:
            raise SimulationError(
                "need more physical than architectural registers"
            )
        self.num_regs = num_regs
        self.value: List[int] = [0] * num_regs
        self.ready: List[bool] = [False] * num_regs
        # Phys regs [0, NUM_ARCH_REGS) initially back the arch registers.
        for i in range(NUM_ARCH_REGS):
            self.ready[i] = True
        self._free: Deque[int] = deque(range(NUM_ARCH_REGS, num_regs))

    @property
    def free_count(self) -> int:
        return len(self._free)

    def alloc(self) -> Optional[int]:
        """Take a register off the free list; None when exhausted."""
        if not self._free:
            return None
        reg = self._free.popleft()
        self.ready[reg] = False
        self.value[reg] = 0
        return reg

    def free(self, reg: int) -> None:
        self.ready[reg] = False
        self._free.append(reg)


class RenameTable:
    """Architectural -> physical mapping with walk-back rollback support."""

    def __init__(self, prf: PhysRegFile):
        self.prf = prf
        # Identity initial mapping: arch i -> phys i.
        self.map: List[int] = list(range(NUM_ARCH_REGS))
        self.map[R0] = R0  # phys 0 is the hardwired zero

    def lookup(self, arch_reg: int) -> int:
        return self.map[arch_reg]

    def rename_dest(self, arch_reg: int) -> Optional["tuple[int, int]"]:
        """Allocate a new physical register for *arch_reg*.

        Returns ``(new_phys, prev_phys)`` or None when the free list is
        empty (caller must stall dispatch).  R0 is never renamed.
        """
        if arch_reg == R0:
            return None
        new_phys = self.prf.alloc()
        if new_phys is None:
            return None
        prev = self.map[arch_reg]
        self.map[arch_reg] = new_phys
        return new_phys, prev

    def rollback(self, arch_reg: int, new_phys: int, prev_phys: int) -> None:
        """Undo one rename performed by a now-squashed instruction.

        Must be applied youngest-first (the ROB squash walk guarantees it).
        """
        if self.map[arch_reg] != new_phys:
            raise SimulationError(
                "rollback out of order: arch r%d maps to p%d, expected p%d"
                % (arch_reg, self.map[arch_reg], new_phys)
            )
        self.map[arch_reg] = prev_phys
        self.prf.free(new_phys)

    def retire(self, prev_phys: int) -> None:
        """A renaming instruction committed: its displaced mapping dies."""
        self.prf.free(prev_phys)
