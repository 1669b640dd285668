"""Issue queue: event-driven wake-up plus oldest-first select.

The implementation mirrors real wake-up/select logic: each waiting entry
holds a count of not-yet-ready sources; a tag broadcast decrements the
count of every consumer registered on that physical register, and entries
whose count hits zero move to the ready pool, from which select picks
oldest-first.  Because readiness is driven purely by broadcasts, the entire
NDA mechanism (deferred tag broadcast) naturally gates wake-up here,
exactly as in the paper's Fig. 2.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List

from repro.core.fu import FUPool
from repro.core.rename import PhysRegFile
from repro.core.rob import DynInstr

_BY_SEQ = attrgetter("seq")


class IssueQueue:
    """Out-of-order scheduler window."""

    def __init__(self, capacity: int, prf: PhysRegFile):
        self.capacity = capacity
        self.prf = prf
        self._size = 0
        self._ready: List[DynInstr] = []
        # True while _ready is known to be seq-sorted; appends clear it so
        # select() sorts only when a new entry actually arrived.
        self._ready_sorted = True
        # phys reg -> entries waiting on it.
        self._waiters: Dict[int, List[DynInstr]] = {}
        # entry -> outstanding source count (kept off DynInstr to avoid
        # widening its slots for a scheduler-private detail).
        self._pending: Dict[DynInstr, int] = {}

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size >= self.capacity

    def insert(self, entry: DynInstr) -> None:
        ready_bits = self.prf.ready
        outstanding = 0
        for src in entry.phys_srcs:
            if not ready_bits[src]:
                outstanding += 1
                self._waiters.setdefault(src, []).append(entry)
        self._size += 1
        if outstanding:
            self._pending[entry] = outstanding
        else:
            self._ready.append(entry)
            self._ready_sorted = False

    def on_broadcast(self, phys_reg: int) -> None:
        """A tag broadcast on *phys_reg*: wake its consumers."""
        waiters = self._waiters.pop(phys_reg, None)
        if not waiters:
            return
        pending = self._pending
        for entry in waiters:
            if entry.squashed:
                pending.pop(entry, None)
                continue
            if entry not in pending:
                continue  # already woken via another source's broadcast
            remaining = pending[entry] - 1
            if remaining <= 0:
                del pending[entry]
                self._ready.append(entry)
                self._ready_sorted = False
            else:
                pending[entry] = remaining

    def remove_squashed(self) -> None:
        self._ready = [e for e in self._ready if not e.squashed]
        self._pending = {
            entry: count
            for entry, count in self._pending.items()
            if not entry.squashed
        }
        self._size = len(self._ready) + len(self._pending)

    def select(
        self,
        now: int,
        width: int,
        fus: FUPool,
        may_issue: Callable[[DynInstr, int], bool],
    ) -> List[DynInstr]:
        """Pick up to *width* ready entries, oldest first.

        *may_issue* lets the core veto issue for reasons the queue cannot
        see (serializing micro-ops not yet at the ROB head).  Selected
        entries leave the queue.
        """
        if not self._ready:
            return []
        selected: List[DynInstr] = []
        remaining: List[DynInstr] = []
        if not self._ready_sorted:
            if len(self._ready) > 1:
                self._ready.sort(key=_BY_SEQ)
            self._ready_sorted = True
        for entry in self._ready:
            if entry.squashed:
                self._size -= 1
                continue
            if len(selected) >= width:
                remaining.append(entry)
                continue
            fu = entry.instr.info.fu
            if fus.can_issue(fu, now) and may_issue(entry, now):
                entry.issue_penalty = fus.issue(
                    fu, now, entry.instr.info.latency
                )
                selected.append(entry)
                self._size -= 1
            else:
                remaining.append(entry)
        self._ready = remaining  # filtered in order: still seq-sorted
        return selected

    def sources_ready(self, entry: DynInstr) -> bool:
        """Direct readiness check (used by tests)."""
        ready_bits = self.prf.ready
        return all(ready_bits[src] for src in entry.phys_srcs)
