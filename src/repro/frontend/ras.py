"""Return address stack.

Pushed at fetch of CALL/CALLR, popped at fetch of RET.  Because the RAS is
speculatively updated in the front-end, the core snapshots it at every
in-flight branch and restores the snapshot on squash (standard RAS repair).
Attackers can still mis-train it between runs — that is how ret2spec-style
control steering works — so repair restores *state*, never *history*.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

Snapshot = Tuple[Tuple[int, ...], int]


class RAS:
    """Fixed-depth circular return-address stack."""

    def __init__(self, entries: int = 16):
        if entries < 1:
            raise ValueError("RAS needs at least one entry")
        self.entries = entries
        self._stack: List[int] = [0] * entries
        self._top = 0  # number of valid entries, saturating at `entries`
        self._pos = 0  # index one past the most recent push (circular)
        self.pushes = 0
        self.pops = 0
        self.underflows = 0

    def push(self, return_pc: int) -> None:
        self._stack[self._pos] = return_pc
        self._pos = (self._pos + 1) % self.entries
        self._top = min(self._top + 1, self.entries)
        self.pushes += 1

    def pop(self) -> Optional[int]:
        """Predicted return target, or None when the stack is empty."""
        if self._top == 0:
            self.underflows += 1
            return None
        self._pos = (self._pos - 1) % self.entries
        self._top -= 1
        self.pops += 1
        return self._stack[self._pos]

    def snapshot(self) -> Snapshot:
        """Capture state for later repair."""
        return (tuple(self._stack), self._top, self._pos)  # type: ignore[return-value]

    def restore(self, snap) -> None:
        """Repair to a snapshot taken at a squashed branch."""
        stack, top, pos = snap
        self._stack = list(stack)
        self._top = top
        self._pos = pos
